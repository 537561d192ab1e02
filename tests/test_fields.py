from itertools import product

import numpy as np
import pytest

from moufang.fields import (GF, UsageError, field_make, field_of_order, inv, is_square,
                            parse_field_spec, prime_power, primitive_element, rref)


def brute_irreducible(coeffs, p):
    """Oracle: no factorization into two monic polynomials of degree >= 1,
    by exhaustion over all candidate divisors."""
    k = len(coeffs) - 1
    for d in range(1, k):
        for code in range(p ** d):
            div = []
            c = code
            for _ in range(d):
                div.append(c % p)
                c //= p
            div.append(1)
            # long division
            rem = list(coeffs)
            while len(rem) >= len(div) and any(rem):
                while rem and rem[-1] == 0:
                    rem.pop()
                if len(rem) < len(div):
                    break
                f = rem[-1]
                shift = len(rem) - len(div)
                for i, dv in enumerate(div):
                    rem[shift + i] = (rem[shift + i] - f * dv) % p
                while rem and rem[-1] == 0:
                    rem.pop()
            if not any(rem):
                return False
    return True


def test_field_make_prime():
    f = field_make(2, 1)
    assert f.q == 2 and f.p == 2


def test_field_make_gf9_modulus_irreducible_by_exhaustion():
    coeffs = (1, 0, 1)  # x^2 + 1
    assert all((x * x + 1) % 3 != 0 for x in range(3))  # no root mod 3
    assert brute_irreducible(list(coeffs), 3)
    f = field_make(3, 2, coeffs)
    assert f.q == 9


def test_field_make_gf4_modulus():
    assert brute_irreducible([1, 1, 1], 2)
    f = field_make(2, 2, (1, 1, 1))
    assert f.q == 4


def test_field_make_errors():
    with pytest.raises(ValueError):
        field_make(4)  # not prime
    with pytest.raises(ValueError):
        field_make(3, 2, (0, 0, 1))  # x^2 reducible
    with pytest.raises(ValueError):
        field_make(2, 7)  # no built-in modulus for 128


@pytest.mark.parametrize("p,x,want", [(7, 3, 5), (2, 1, 1)])
def test_inv_prime(p, x, want):
    f = field_make(p)
    assert inv(f, x) == want
    assert f.mul(x, f.inv(x)) == 1


def test_inv_gf4_by_exhaustion(gf4):
    t = 2  # the residue class of x
    # oracle: search the inverse exhaustively
    want = [y for y in range(4) if gf4.mul(t, y) == 1]
    assert want == [gf4.add(t, 1)]
    assert gf4.inv(t) == gf4.add(t, 1)


def test_inv_zero_raises(gf7):
    with pytest.raises(ZeroDivisionError):
        gf7.inv(0)


def test_is_square_gf7_by_exhaustion(gf7):
    squares = sorted({gf7.mul(x, x) for x in range(1, 7)})
    assert 2 in squares and 3 not in squares
    assert is_square(gf7, 2) and not is_square(gf7, 3)


def test_is_square_char2_always(gf4):
    assert all(gf4.is_square(x) for x in range(1, 4))


def test_is_square_zero_raises(gf7):
    with pytest.raises(ValueError):
        gf7.is_square(0)


def test_is_square_matches_enumeration_small():
    for spec in (field_make(2), field_make(3), field_make(5), field_make(7),
                 field_make(2, 2), field_make(2, 3), field_make(3, 2)):
        squares = {spec.mul(x, x) for x in range(spec.q)}
        for x in range(1, spec.q):
            assert spec.is_square(x) == (x in squares)


def test_primitive_element_examples():
    # oracle: multiplicative order by exhaustion
    def order(f, x):
        n, y = 1, x
        while y != 1:
            y = f.mul(y, x)
            n += 1
        return n

    f5 = field_make(5)
    assert order(f5, 2) == 4
    assert primitive_element(f5) == 2
    assert primitive_element(field_make(3)) == 2
    f7 = field_make(7)
    assert order(f7, 2) == 3 and order(f7, 3) == 6
    assert primitive_element(f7) == 3
    with pytest.raises(ValueError):
        primitive_element(field_make(2))


BUILTINS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (2, 4), (2, 5),
            (3, 2), (3, 3), (5, 2)]


@pytest.mark.parametrize("p,k", BUILTINS)
def test_field_axioms_random_triples(p, k, rng):
    f = field_make(p, k)
    xs = rng.integers(f.q, size=(200, 3))
    for a, b, c in xs:
        a, b, c = int(a), int(b), int(c)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)])
def test_frobenius_is_field_automorphism(p, k):
    f = field_make(p, k)
    for a in range(f.q):
        for b in range(f.q):
            assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))
            assert f.frobenius(f.mul(a, b)) == f.mul(f.frobenius(a), f.frobenius(b))


def test_canonical_order_is_coefficient_lex():
    f = field_make(3, 2)
    elems = f.elements()
    keys = [f.coeffs(x) for x in elems]
    assert keys == sorted(keys)
    assert len(set(elems)) == f.q


def test_parse_field_spec():
    assert parse_field_spec("gf(9)").q == 9
    assert parse_field_spec("gf(2,2,1.1.1)").q == 4
    assert parse_field_spec("GF(25)").q == 25
    for bad in ("gf(6)", "zz(4)", "gf(2,2,1.0.1)", "gf(2,x,1.1.1)", "gf(2,2)"):
        with pytest.raises(UsageError):
            parse_field_spec(bad)


def test_field_of_order():
    for q, (p, k) in {2: (2, 1), 4: (2, 2), 9: (3, 2), 25: (5, 2), 7: (7, 1)}.items():
        f = field_of_order(q)
        assert (f.p, f.k, f.q) == (p, k, q)
    for q in (-4, 0, 1, 6, 12, 100):
        with pytest.raises(UsageError, match="not a prime power"):
            field_of_order(q)


def test_prime_power():
    for q, pk in {2: (2, 1), 4: (2, 2), 9: (3, 2), 49: (7, 2), 65537: (65537, 1),
                  2 ** 40: (2, 40), 10 ** 9 + 7: (10 ** 9 + 7, 1)}.items():
        assert prime_power(q) == pk
    for q in (-4, 0, 1, 6, 10, 12, 100, 65537 * 3):
        with pytest.raises(UsageError, match="not a prime power"):
            prime_power(q)


def test_rref_over_gf5():
    f = field_make(5)
    rows, pivots = rref(f, [[0, 2, 4, 1], [0, 1, 2, 0], [1, 1, 1, 1]])
    assert pivots == [0, 1, 3]
    assert rows == [[1, 0, 4, 0], [0, 1, 2, 0], [0, 0, 0, 1]]
    assert rref(f, [[0, 0], [0, 0]]) == ([], [])


def test_format_parse_roundtrip(gf4):
    for x in range(4):
        assert gf4.parse_element(gf4.format_element(x)) == x
