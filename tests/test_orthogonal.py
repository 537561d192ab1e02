import numpy as np
import pytest

from conftest import zorn_mul_oracle
from moufang import paige
from moufang.composition import ZornMatrix, bilinear
from moufang.fields import field_make, field_of_order
from moufang.fields import rref, rref_batch
from moufang.orthogonal import (SpinorVerdict, column_space_basis,
                                conjugation_matrix, left_matrix_closed_form,
                                identity_matrix, is_orthogonal, is_rotation,
                                j_matrix, mat_det, mat_mul, mult_operator_matrix,
                                neg_conjugation_matrix, operator_matrices,
                                solve_linear, spinor_norm, spinor_verdicts)


def random_unit(q, rng, loop_cache={}):
    if q not in loop_cache:
        field = field_of_order(q)
        loop_cache[q] = (field, paige.enumerate_unit_coords(field))
    field, coords = loop_cache[q]
    row = coords[int(rng.integers(len(coords)))]
    return ZornMatrix.from_coords(field, [int(c) for c in row])


def test_j_matrix_layout(gf3):
    J = j_matrix(gf3)
    assert J[0, 7] == 1 and J[7, 0] == 1
    for i in (1, 2, 3):
        assert J[i, i + 3] == 2 and J[i + 3, i] == 2
    assert int((J != 0).sum()) == 8


def test_bilinear_via_j_matches_polarization_bulk(gf5):
    # <x,y> = x^t J y against (x+y)N - xN - yN, vectorized over 10^5 pairs
    eng = paige.ZornEngine(gf5)
    rng = np.random.default_rng(0x5EED)
    X = rng.integers(5, size=(100000, 8))
    Y = rng.integers(5, size=(100000, 8))
    # J route in coordinates
    jr = (X[:, 7] * Y[:, 0] + X[:, 0] * Y[:, 7]
          - X[:, 1] * Y[:, 4] - X[:, 2] * Y[:, 5] - X[:, 3] * Y[:, 6]
          - X[:, 4] * Y[:, 1] - X[:, 5] * Y[:, 2] - X[:, 6] * Y[:, 3]) % 5
    pol = (eng.norm((X + Y) % 5) - eng.norm(X) - eng.norm(Y)) % 5
    assert (jr == pol).all()


def test_mult_operator_identity(gf3):
    e = ZornMatrix.unit(gf3)
    assert np.array_equal(mult_operator_matrix(e, "left"), identity_matrix(gf3))
    assert np.array_equal(mult_operator_matrix(e, "right"), identity_matrix(gf3))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_left_operator_matches_closed_form(q, rng):
    field = field_of_order(q)
    for _ in range(40):
        a = ZornMatrix.from_coords(field, [int(rng.integers(q)) for _ in range(8)])
        assert np.array_equal(mult_operator_matrix(a, "left"),
                              left_matrix_closed_form(a))


def test_closed_form_matrix_entries(gf7, rng):
    a = ZornMatrix.from_coords(gf7, [int(rng.integers(7)) for _ in range(8)])
    M = left_matrix_closed_form(a)
    coords = a.coords()
    assert M[4, 0] == coords[4]
    assert M[1, 5] == coords[6]


@pytest.mark.parametrize("q", [3, 5])
def test_det_of_translation_is_fourth_power(q, rng):
    field = field_of_order(q)
    for _ in range(25):
        a = ZornMatrix.from_coords(field, [int(rng.integers(q)) for _ in range(8)])
        M = mult_operator_matrix(a, "left")
        n = a.det()
        assert mat_det(field, M) == field.pow_(n, 4)


def test_rotation_checks(gf3, rng):
    assert is_rotation(gf3, identity_matrix(gf3))
    for _ in range(20):
        a = random_unit(3, rng)
        for side in ("left", "right"):
            assert is_rotation(gf3, mult_operator_matrix(a, side))
    mi = neg_conjugation_matrix(gf3)
    assert is_orthogonal(gf3, mi)
    assert not is_rotation(gf3, mi)
    assert mat_det(gf3, mi) == gf3.neg(gf3.one)


@pytest.mark.parametrize("q", [2, 4])
def test_orthogonality_in_characteristic_2(q, rng):
    # the Gram matrix does not determine the norm in characteristic 2: the
    # transvection x -> x + <x, e0> e0 keeps J, but N(e0 + e7) = 1
    field = field_of_order(q)
    for _ in range(5):
        a = random_unit(q, rng)
        for side in ("left", "right"):
            assert is_orthogonal(field, mult_operator_matrix(a, side))
    T = identity_matrix(field)
    T[0, 7] = field.one
    assert np.array_equal(mat_mul(field, mat_mul(field, T.T, j_matrix(field)), T),
                          j_matrix(field))
    assert not is_orthogonal(field, T)


def test_spinor_identity(gf3):
    v = spinor_norm(gf3, identity_matrix(gf3))
    assert v.in_omega and v.discriminant_square_class == "square"


@pytest.mark.parametrize("q", [3, 5])
def test_spinor_translations_square(q, rng):
    field = field_of_order(q)
    for _ in range(40):
        a = random_unit(q, rng)
        for side in ("left", "right"):
            verdict = spinor_norm(field, mult_operator_matrix(a, side))
            assert verdict.in_special_orthogonal
            assert verdict.discriminant_square_class == "square"
            assert verdict.in_omega


def test_spinor_isotropic_branch_discriminant(gf3):
    # elements with (e-a)N = 0 and a0 != 1 exercise the isotropic branch of
    # the membership argument, where the discriminant comes out as
    # (a1 a4 + a2 a5 + a3 a6)^2
    field = gf3
    coords = paige.enumerate_unit_coords(field)
    eng = paige.ZornEngine(field)
    e = np.zeros(8, dtype=np.int64)
    e[0] = e[7] = 1
    diff = (e[None, :] - coords) % 3
    iso = (eng.norm(diff) == 0) & (coords[:, 0] != 1)
    picked = coords[iso][:20]
    assert len(picked) > 0
    for row in picked:
        a = ZornMatrix.from_coords(field, [int(c) for c in row])
        M = mult_operator_matrix(a, "left")
        verdict = spinor_norm(field, M)
        assert verdict.in_omega
        c = a.coords()
        val = field.add(field.add(field.mul(c[1], c[4]), field.mul(c[2], c[5])),
                        field.mul(c[3], c[6]))
        if val != 0:
            assert field.is_square(field.mul(val, val))


def test_spinor_rejects_char2(gf2):
    with pytest.raises(ValueError):
        spinor_norm(gf2, identity_matrix(gf2))


def test_spinor_rejects_non_orthogonal(gf3):
    M = identity_matrix(gf3)
    M[0, 0] = 2
    with pytest.raises(ValueError):
        spinor_norm(gf3, M)


def test_spinor_non_rotation_verdict(gf3):
    v = spinor_norm(gf3, neg_conjugation_matrix(gf3))
    assert v == SpinorVerdict(False, "undefined", False)


def test_involution_eigenspaces_orthogonal(gf5, rng):
    # V(sigma-1) and V(sigma+1) are orthogonal for involutions in O(V)
    for sigma in (neg_conjugation_matrix(gf5), conjugation_matrix(gf5)):
        assert np.array_equal(mat_mul(gf5, sigma, sigma), identity_matrix(gf5))
        minus = gf5.vsub(sigma, identity_matrix(gf5))
        plus = np.zeros((8, 8), dtype=np.int64)
        for i in range(8):
            for j in range(8):
                plus[i, j] = gf5.add(int(sigma[i, j]),
                                     gf5.one if i == j else gf5.zero)
        for _ in range(100):
            x = np.array([[int(rng.integers(5))] for _ in range(8)])
            y = np.array([[int(rng.integers(5))] for _ in range(8)])
            u = mat_mul(gf5, minus, x)[:, 0]
            w = mat_mul(gf5, plus, y)[:, 0]
            s = gf5.zero
            J = j_matrix(gf5)
            for i in range(8):
                for j in range(8):
                    s = gf5.add(s, gf5.mul(gf5.mul(int(u[i]), int(J[i, j])),
                                           int(w[j])))
            assert s == gf5.zero


@pytest.mark.parametrize("q", [3, 4, 5])
def test_conjugation_factorization(q, rng):
    # iota L_a^-1 iota L_a = R_a L_a, i.e. C M_L^-1 C = M_R as matrices; at
    # q = 4 mat_mul runs on the table gathers of an extension field
    field = field_of_order(q)
    C = conjugation_matrix(field)
    for _ in range(20):
        a = random_unit(q, rng)
        ML = mult_operator_matrix(a, "left")
        MR = mult_operator_matrix(a, "right")
        abar = a.conjugate()
        ML_inv = mult_operator_matrix(abar, "left")  # L_a^-1 = L_{a^-1}
        assert np.array_equal(mat_mul(field, ML, ML_inv), identity_matrix(field))
        assert np.array_equal(mat_mul(field, mat_mul(field, C, ML_inv), C), MR)


def test_solve_and_column_space(gf7, rng):
    for _ in range(30):
        A = np.array([[int(rng.integers(7)) for _ in range(8)] for _ in range(8)])
        basis = column_space_basis(gf7, A)
        for v in basis:
            w = solve_linear(gf7, A, v)
            assert w is not None
            assert np.array_equal(mat_mul(gf7, A, w[:, None])[:, 0], v)


def seeded_units(field, count=100):
    coords = paige.enumerate_unit_coords(field)
    rng = np.random.default_rng(0x5EED)
    return coords[rng.integers(len(coords), size=count)]


def scalar_verdict(field, M):
    """(orthogonal, rotation, square) of one matrix on the scalar path."""
    rotation = is_rotation(field, M)
    return (is_orthogonal(field, M), rotation,
            rotation and spinor_norm(field, M).in_omega)


def assert_verdicts_match_scalar(field, stack):
    got = spinor_verdicts(field, stack)
    want = np.array([scalar_verdict(field, M) for M in stack]).T
    assert np.array_equal(np.array(got), want)
    return got


def norm(field, v):
    return ZornMatrix.from_coords(field, v.tolist()).det()


def reflection(field, v):
    """x -> x - <x,v> N(v)^-1 v, the symmetry in the non-isotropic v."""
    p = field.p
    Jv = j_matrix(field) @ v
    c = field.inv(norm(field, v))
    return (np.eye(8, dtype=np.int64) - c * np.outer(v, Jv)) % p


def reflection_pairs(field, count, rng):
    out = []
    while len(out) < count:
        u, v = rng.integers(field.p, size=(2, 8))
        if norm(field, u) and norm(field, v):
            out.append(reflection(field, u) @ reflection(field, v) % field.p)
    return np.array(out)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 65537])
def test_batched_elimination_matches_scalar(q, rng):
    # fields.rref_batch against rref (pivot rows scaled to 1) and mat_det,
    # on stacks with a third singular, entries zero at random and five zero
    # matrices
    field = field_of_order(q)
    for shape in [(8, 8), (2, 3), (3, 8)]:
        stack = rng.integers(q, size=(60,) + shape)
        stack[rng.random(stack.shape) < 0.3] = 0
        lam = rng.integers(q, size=(20, 1))
        stack[:20, -1] = field.vadd(stack[:20, 0], field.vmul(lam, stack[:20, 1]))
        stack[-5:] = 0
        R, pivots, det = rref_batch(field, stack)
        assert (det is None) == (shape[0] != shape[1])
        for i, (A, Rm, P) in enumerate(zip(stack, R.tolist(), pivots)):
            rows, cols, _ = rref(field, A.tolist())
            assert list(np.flatnonzero(P)) == cols
            assert [[field.div(v, row[c]) for v in row]
                    for row, c in zip(Rm, cols)] == rows
            assert not any(any(row) for row in Rm[len(cols):])
            if det is not None:
                assert det[i] == mat_det(field, A)
        if det is not None:
            assert (det[:20] == 0).all() and (det[-5:] == 0).all()


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("q", [3, 5])
def test_operator_matrices_match_scalar(q, side):
    field = field_of_order(q)
    units = seeded_units(field)
    stack = operator_matrices(field, units, side)
    basis = [ZornMatrix.from_coords(field, e) for e in np.eye(8, dtype=int).tolist()]
    for M, row in zip(stack, units):
        a = ZornMatrix.from_coords(field, [int(c) for c in row])
        assert np.array_equal(M, mult_operator_matrix(a, side))
        # column j is a e_j resp. e_j a, by the scalar oracle
        assert M.T.tolist() == [list((zorn_mul_oracle(a, e) if side == "left" else
                                      zorn_mul_oracle(e, a)).coords()) for e in basis]
    orthogonal, rotation, square = assert_verdicts_match_scalar(field, stack)
    assert orthogonal.all() and rotation.all() and square.all()


@pytest.mark.parametrize("q", [3, 5])
def test_spinor_verdicts_match_scalar_on_reflection_pairs(q, rng):
    field = field_of_order(q)
    orthogonal, rotation, square = assert_verdicts_match_scalar(
        field, reflection_pairs(field, 60, rng))
    assert rotation.all()
    assert 0 < int((~square).sum()) < 60  # both classes occur


def test_spinor_verdicts_edge_cases(gf3):
    stack = np.array([identity_matrix(gf3), neg_conjugation_matrix(gf3),
                      identity_matrix(gf3)])
    stack[2, 0, 0] = 2  # x0 -> 2 x0 scales the form: not orthogonal
    orthogonal, rotation, square = assert_verdicts_match_scalar(gf3, stack)
    assert orthogonal.tolist() == [True, True, False]
    assert rotation.tolist() == square.tolist() == [True, False, False]


def test_spinor_verdicts_need_odd_prime_field(gf2):
    for field in (field_make(3, 2), gf2):
        with pytest.raises(ValueError):
            spinor_verdicts(field, identity_matrix(field)[None])
