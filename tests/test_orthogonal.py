import numpy as np
import pytest

from moufang import paige
from moufang.composition import ZornMatrix, bilinear
from moufang.fields import field_make, field_of_order
from moufang.orthogonal import (SpinorVerdict, column_space_basis,
                                conjugation_matrix, left_matrix_closed_form,
                                identity_matrix, is_orthogonal, is_rotation,
                                j_matrix, mat_det, mat_mul, mat_sub, mat_vec,
                                mult_operator_matrix, neg_conjugation_matrix,
                                norm_coords, solve_linear, spinor_norm)


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
        minus = mat_sub(gf5, sigma, identity_matrix(gf5))
        plus = np.zeros((8, 8), dtype=np.int64)
        for i in range(8):
            for j in range(8):
                plus[i, j] = gf5.add(int(sigma[i, j]),
                                     gf5.one if i == j else gf5.zero)
        for _ in range(100):
            x = np.array([int(rng.integers(5)) for _ in range(8)])
            y = np.array([int(rng.integers(5)) for _ in range(8)])
            u = mat_vec(gf5, minus, x)
            w = mat_vec(gf5, plus, y)
            s = gf5.zero
            J = j_matrix(gf5)
            for i in range(8):
                for j in range(8):
                    s = gf5.add(s, gf5.mul(gf5.mul(int(u[i]), int(J[i, j])),
                                           int(w[j])))
            assert s == gf5.zero


@pytest.mark.parametrize("q", [3, 5])
def test_conjugation_factorization(q, rng):
    # iota L_a^-1 iota L_a = R_a L_a, i.e. C M_L^-1 C = M_R as matrices
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


def test_matrix_text_form(gf3):
    from moufang.orthogonal import format_matrix
    txt = format_matrix(gf3, j_matrix(gf3))
    rows = txt.split("\n")
    assert len(rows) == 8
    assert rows[0] == "0 0 0 0 0 0 0 1"
    assert rows[1] == "0 0 0 0 2 0 0 0"


def test_solve_and_column_space(gf7, rng):
    for _ in range(30):
        A = np.array([[int(rng.integers(7)) for _ in range(8)] for _ in range(8)])
        basis = column_space_basis(gf7, A)
        for v in basis:
            w = solve_linear(gf7, A, v)
            assert w is not None
            assert np.array_equal(mat_vec(gf7, A, w), v)
