import numpy as np
import pytest

from moufang import loops, paige
from moufang.composition import ZornMatrix
from moufang.fields import field_make, field_of_order


def test_order_formulas():
    # (1/d) q^3 (q^4 - 1), d = gcd(2, q-1)
    assert paige.paige_order_formula(2) == 120
    assert paige.paige_order_formula(3) == 1080
    assert paige.paige_order_formula(4) == 16320
    assert paige.paige_order_formula(5) == 39000
    assert paige.mlt_paige_order_formula(2) == 174182400


def test_unit_loop_sizes(u3):
    # q^3 (q^4 - 1) elements in M(q)
    M2 = paige.unit_loop(2)
    assert M2.n == 120 == 2 ** 3 * (2 ** 4 - 1)
    assert u3.n == 2160 == 3 ** 3 * (3 ** 4 - 1)


def test_unit_loop_neutral_is_diag(u3):
    assert u3.labels[u3.neutral] == "[1|0,0,0|0,0,0|1]"


def test_unit_loop_rejects_large_q():
    with pytest.raises(ValueError):
        paige.unit_loop(7)


def test_conjugate_is_inverse_exhaustive():
    # x * conj(x) = e for every norm-one x, q <= 3 (checked in module too)
    for q in (2, 3):
        L = paige.unit_loop(q)
        eng = L.zorn.engine
        prods = eng.mul(L.zorn.coords, eng.conj(L.zorn.coords))
        assert (prods == eng.unit_row()[None, :]).all()


def test_quotient_ratio():
    for q in (2, 3, 4, 5):
        field = field_of_order(q)
        coords = paige.enumerate_unit_coords(field)
        eng = paige.ZornEngine(field)
        reps = int((eng.pack(coords) <= eng.pack(eng.neg(coords))).sum())
        d = 2 if q % 2 else 1
        assert len(coords) == d * reps
        assert reps == paige.paige_order_formula(q)


def test_paige_loop_orders(m2, m3):
    assert m2.n == 120
    assert m3.n == 1080


def test_paige_loops_moufang_nonassociative(m2, m3):
    assert loops.is_moufang(m2)
    assert loops.is_moufang(m3)
    assert loops.associativity_violation(m2) is not None
    assert loops.associativity_violation(m3) is not None


def test_center_paige_trivial(m2, m3):
    assert loops.center(m2) == [m2.neutral]
    assert loops.center(m3) == [m3.neutral]


def test_center_unit_loop_q3(u3):
    cen = loops.center(u3)
    assert sorted(u3.labels[i] for i in cen) == \
        ["[1|0,0,0|0,0,0|1]", "[2|0,0,0|0,0,0|2]"]


def test_standard_generators_dets():
    for q in (2, 3, 4, 5, 7, 9):
        gens = paige.standard_generators(q)
        assert len(gens) == 3
        for g in gens:
            assert g.matrix.det() == g.matrix.field.one


def test_generator_closures_small():
    assert paige.generator_closure_size(2) == 120
    assert paige.generator_closure_size(3) == 1080


def test_packed_closure_matches_reachability_q4():
    gens = paige.standard_generators(4)
    els, certified = paige.reachability_closure_certified(4, gens)
    assert certified and len(els) == 16320


def test_frobenius_identity_on_prime_field(m2):
    p = paige.frobenius_perm(m2)
    assert p.is_identity()


def test_frobenius_q4_order_two_and_multiplicative(rng):
    M4 = paige.paige_loop(4)
    f = paige.frobenius_perm(M4)
    assert not f.is_identity()
    assert (f * f).is_identity()
    I = rng.integers(M4.n, size=10000)
    J = rng.integers(M4.n, size=10000)
    lhs = f.a[M4.mult_batch(I, J)]
    rhs = M4.mult_batch(f.a[I], f.a[J])
    assert (lhs == rhs).all()


def test_frobenius_map_elementwise(gf4):
    x = ZornMatrix(gf4, 2, (1, 0, 3), (0, 2, 1), 3)
    y = paige.frobenius_map(4, x)
    assert y.coords() == tuple(gf4.frobenius(c) for c in x.coords())


def test_paige_oracle_lazy_q7():
    orc = paige.paige_oracle(7)
    g1, g2, g3 = (g.matrix for g in paige.standard_generators(7))
    z = orc.mult(g1, g2)
    assert z.det() == orc.field.one
    # canonical representative: first against its negative
    eng = orc.engine
    row = np.asarray([z.coords()], dtype=np.int64)
    assert (eng.pack(row) <= eng.pack(eng.neg(row))).all()


def test_labels_roundtrip(m2):
    be = m2.zorn
    for i in (0, 7, 56, 119):
        mat = ZornMatrix.parse(be.field, m2.labels[i])
        row = np.asarray([mat.coords()], dtype=np.int64)
        assert int(be.lookup(be.engine.pack(row))[0]) == i


def test_division_hooks(m3, rng):
    for _ in range(200):
        i, j = int(rng.integers(m3.n)), int(rng.integers(m3.n))
        k = m3.mult(i, j)
        assert m3.left_div(i, k) == j
        assert m3.right_div(k, j) == i


def test_engine_matches_scalar_zorn(gf5, rng):
    eng = paige.ZornEngine(gf5)
    for _ in range(100):
        xc = [int(rng.integers(5)) for _ in range(8)]
        yc = [int(rng.integers(5)) for _ in range(8)]
        x = ZornMatrix.from_coords(gf5, xc)
        y = ZornMatrix.from_coords(gf5, yc)
        got = eng.mul(np.asarray([xc], dtype=np.int64),
                      np.asarray([yc], dtype=np.int64))[0]
        assert tuple(int(v) for v in got) == (x * y).coords()
        assert int(eng.norm(np.asarray([xc], dtype=np.int64))[0]) == x.det()


def test_engine_matches_scalar_zorn_gf4(gf4, rng):
    eng = paige.ZornEngine(gf4)
    for _ in range(100):
        xc = [int(rng.integers(4)) for _ in range(8)]
        yc = [int(rng.integers(4)) for _ in range(8)]
        x = ZornMatrix.from_coords(gf4, xc)
        y = ZornMatrix.from_coords(gf4, yc)
        got = eng.mul(np.asarray([xc], dtype=np.int64),
                      np.asarray([yc], dtype=np.int64))[0]
        assert tuple(int(v) for v in got) == (x * y).coords()
