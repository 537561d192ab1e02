from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from conftest import QQ, zorn_mul_oracle, zorn_norm_oracle
from moufang.composition import (ZornMatrix, bilinear, bilinear_polarization,
                                 cd_double, decompose_sum_two_units, scalar_algebra)
from moufang.fields import UsageError, field_make, field_of_order
from moufang.paige import ZornEngine


def random_zorn(field, rng):
    return ZornMatrix.from_coords(field, [int(rng.integers(field.q))
                                          for _ in range(8)])


def test_zorn_mul_hand_example(gf2):
    x = ZornMatrix(gf2, 1, (1, 0, 0), (1, 0, 0), 0)
    y = ZornMatrix(gf2, 1, (0, 1, 0), (0, 1, 0), 0)
    z = x * y
    assert z == ZornMatrix(gf2, 1, (0, 1, 1), (1, 0, 1), 0)
    assert z == zorn_mul_oracle(x, y)


def test_zorn_mul_matches_oracle_random(gf3, gf5, gf7, gf4, rng):
    for f in (gf3, gf5, gf7, gf4, field_of_order(8), field_of_order(9)):
        for _ in range(150):
            x, y = random_zorn(f, rng), random_zorn(f, rng)
            assert (x * y) == zorn_mul_oracle(x, y)
            assert x.det() == zorn_norm_oracle(x)


def test_unit_is_neutral_exhaustive_gf2(gf2):
    e = ZornMatrix.unit(gf2)
    for c in product(range(2), repeat=8):
        x = ZornMatrix.from_coords(gf2, c)
        assert e * x == x and x * e == x


def test_x_times_conjugate_is_norm(gf5, rng):
    e = ZornMatrix.unit(gf5)
    for _ in range(100):
        x = random_zorn(gf5, rng)
        n = x.det()
        assert x * x.conjugate() == e.scalar_mul(n)
        assert x.conjugate() * x == e.scalar_mul(n)


def test_zorn_norm_examples(gf2):
    assert ZornMatrix.unit(gf2).det() == 1
    x = ZornMatrix(gf2, 1, (1, 0, 0), (1, 0, 0), 0)
    assert x.det() == 1  # 1*0 - 1 = -1 = 1 in GF(2)


def test_norm_multiplicative(gf3, gf5, rng):
    for f in (gf3, gf5):
        for _ in range(300):
            x, y = random_zorn(f, rng), random_zorn(f, rng)
            assert (x * y).det() == f.mul(x.det(), y.det())


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_composition_law_bulk(q):
    # det(xy) = det(x) det(y) on 10^5 random pairs per field, q <= 9
    f = field_of_order(q)
    eng = ZornEngine(f)
    rng = np.random.default_rng(0x5EED + q)
    X = rng.integers(q, size=(100000, 8))
    Y = rng.integers(q, size=(100000, 8))
    lhs = eng.norm(eng.mul(X, Y))
    rhs = f.vmul(eng.norm(X), eng.norm(Y))
    assert (lhs == rhs).all()


def test_conjugate_examples(gf5, rng):
    e = ZornMatrix.unit(gf5)
    assert e.conjugate() == e
    for _ in range(50):
        x = random_zorn(gf5, rng)
        assert x.conjugate().conjugate() == x
        # oracle: conj(x) = <x,e> e - x
        tr = bilinear_polarization(x, e)
        assert x + x.conjugate() == e.scalar_mul(tr)
        assert tr == gf5.add(x.a, x.b)


def test_bilinear_examples(gf7, rng):
    e = ZornMatrix.unit(gf7)
    assert bilinear(e, e) == 2
    for _ in range(100):
        x, y = random_zorn(gf7, rng), random_zorn(gf7, rng)
        assert bilinear(x, e) == gf7.add(x.a, x.b)
        assert bilinear(x, y) == bilinear(y, x)
        assert bilinear(x, y) == bilinear_polarization(x, y)


def test_quadratic_scaling(gf7, rng):
    for _ in range(60):
        x = random_zorn(gf7, rng)
        lam = int(rng.integers(7))
        assert x.scalar_mul(lam).det() == gf7.mul(gf7.mul(lam, lam), x.det())


def test_quadratic_rank_equation(gf5, rng):
    # x^2 - <x,e> x + N(x) e = 0
    e = ZornMatrix.unit(gf5)
    for _ in range(80):
        x = random_zorn(gf5, rng)
        lhs = (x * x) - x.scalar_mul(bilinear(x, e)) + e.scalar_mul(x.det())
        assert lhs == ZornMatrix.from_coords(gf5, [0] * 8)


def test_alternative_and_moufang_laws(gf3, gf5, rng):
    for f in (gf3, gf5):
        for _ in range(120):
            x, y, z = (random_zorn(f, rng) for _ in range(3))
            assert (x * y) * x == x * (y * x)
            assert x * (x * y) == (x * x) * y
            assert (x * y) * y == x * (y * y)
            assert ((x * y) * x) * z == x * (y * (x * z))
            assert ((x * y) * z) * y == x * (y * (z * y))
            assert (x * y) * (z * x) == (x * (y * z)) * x


def test_mismatched_domains():
    a = ZornMatrix.unit(field_make(3))
    b = ZornMatrix.unit(field_make(5))
    with pytest.raises(ValueError):
        a * b


def test_text_roundtrip(gf3, rng):
    for _ in range(20):
        x = random_zorn(gf3, rng)
        assert ZornMatrix.parse(gf3, x.text()) == x
    for bad in ("[zz]", "1|0,0,0|0,0,0|1", "[1|0,0|0,0,0|1]", "[1|0,0,0|0,0,0|3]",
                "[1|0,0,0|0,0,x|1]"):
        with pytest.raises(UsageError):
            ZornMatrix.parse(gf3, bad)


# ---------------------------------------------------------------------------
# Cayley-Dickson


def test_cd_double_hand_example(gf3):
    base = scalar_algebra(gf3)
    dbl = cd_double(base, 1)
    # (1,0)(0,1) = (1*0 + 1*conj(1)*0, 1*1 + 0*conj(0)) = (0,1)
    assert dbl.mul((1, 0), (0, 1)) == (0, 1)
    assert dbl.mul(dbl.one, (2, 1)) == (2, 1)
    assert dbl.mul((2, 1), dbl.one) == (2, 1)


def test_cd_double_rejects_zero_parameter(gf3):
    with pytest.raises(ValueError):
        cd_double(scalar_algebra(gf3), 0)


def _octonion_algebra(field):
    a = scalar_algebra(field)
    for _ in range(3):
        a = cd_double(a, field.one)
    return a


@pytest.mark.parametrize("q", [3, 5])
def test_cd_three_doublings_norm_multiplicative(q, rng):
    f = field_make(q)
    oct8 = _octonion_algebra(f)
    assert oct8.dim == 8
    for _ in range(300):
        x = tuple(int(v) for v in rng.integers(q, size=8))
        y = tuple(int(v) for v in rng.integers(q, size=8))
        assert oct8.norm(oct8.mul(x, y)) == f.mul(oct8.norm(x), oct8.norm(y))


def test_cd_four_dim_not_commutative_witness(gf3):
    quat = cd_double(cd_double(scalar_algebra(gf3), 1), 1)
    found = False
    for x in quat.elements():
        for y in quat.elements():
            if quat.mul(x, y) != quat.mul(y, x):
                found = True
                break
        if found:
            break
    assert found


def test_cd_eight_dim_not_associative_witness(gf3, rng):
    oct8 = _octonion_algebra(gf3)
    found = False
    for _ in range(5000):
        x = tuple(int(v) for v in rng.integers(3, size=8))
        y = tuple(int(v) for v in rng.integers(3, size=8))
        z = tuple(int(v) for v in rng.integers(3, size=8))
        if oct8.mul(oct8.mul(x, y), z) != oct8.mul(x, oct8.mul(y, z)):
            found = True
            break
    assert found


def test_cd_over_rationals():
    c = cd_double(scalar_algebra(QQ), Fraction(-1))
    # i^2 = -1 in the complex double
    assert c.mul((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))) == \
        (Fraction(-1), Fraction(0))


# ---------------------------------------------------------------------------
# sums of two units


def test_decompose_zero_gf3_explicit_split(gf3):
    x = ZornMatrix.from_coords(gf3, [0] * 8)
    u, v = decompose_sum_two_units(x)
    assert u == ZornMatrix(gf3, 0, (1, 0, 0), (2, 0, 0), 0)
    assert v == ZornMatrix(gf3, 0, (2, 0, 0), (1, 0, 0), 0)


def test_decompose_2e_gf3(gf3):
    x = ZornMatrix.unit(gf3).scalar_mul(2)
    u, v = decompose_sum_two_units(x)
    assert u.det() == 1 and v.det() == 1 and (u + v) == x


def test_decompose_exhaustive_gf2(gf2):
    for c in product(range(2), repeat=8):
        x = ZornMatrix.from_coords(gf2, c)
        u, v = decompose_sum_two_units(x)
        assert u.det() == 1 and v.det() == 1 and (u + v) == x


@pytest.mark.parametrize("q", [3, 5])
def test_decompose_random(q, rng):
    f = field_make(q)
    for _ in range(500):
        x = random_zorn(f, rng)
        u, v = decompose_sum_two_units(x)
        assert u.det() == 1 and v.det() == 1 and (u + v) == x
