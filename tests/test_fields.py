import ast
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import moufang
from moufang import fields
from moufang.fields import (BUILTIN_MODULI, GF, SAMPLE_SEED, Sampler, UsageError,
                            field_make, field_of_order, parse_field_spec, prime_power,
                            primitive_element, rref)
from moufang.paige import unit_loop_size_formula


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
    assert f.inv(x) == want
    assert f.mul(x, f.inv(x)) == 1


@pytest.mark.parametrize("p", [2, 3, 5, 1021, 1031, 65537])
def test_untabled_prime_field_matches_polynomial_path(p, rng):
    # a prime field has no lookup tables: it multiplies by a * b % p and
    # inverts by Fermat; the polynomial path is the oracle
    f = field_make(p)
    A, B = rng.integers(p, size=(2, 200)).tolist()
    assert [f.mul(a, b) for a, b in zip(A, B)] == \
        [f._mul_codes(a, b) for a, b in zip(A, B)]
    assert f.mul(np.int32(p - 1), np.int32(p - 1)) == 1
    for a in [a % p for a in (1, 2, p - 1)] + A[:20]:
        if not a:
            continue
        b = f.inv(a)
        assert 0 < b < p and f._mul_codes(a, b) == 1


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
    assert gf7.is_square(2) and not gf7.is_square(3)


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
    rows, pivots, det = rref(f, [[0, 2, 4, 1], [0, 1, 2, 0], [1, 1, 1, 1]])
    assert pivots == [0, 1, 3]
    assert rows == [[1, 0, 4, 0], [0, 1, 2, 0], [0, 0, 0, 1]]
    assert det is None  # not square
    assert rref(f, [[0, 0], [0, 0]]) == ([], [], 0)
    # a row swap flips the sign: det [[0, 2], [3, 1]] = -6 = 4 mod 5
    assert rref(f, [[0, 2], [3, 1]]) == ([[1, 0], [0, 1]], [0, 1], 4)
    # singular: the second row is twice the first
    assert rref(f, [[1, 3, 2], [2, 1, 4], [0, 1, 1]]) == \
        ([[1, 0, 4], [0, 1, 1]], [0, 1], 0)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 25, 1031, 65537])
def test_array_ops_match_scalar(q, rng):
    f = field_of_order(q)
    A, B = rng.integers(q, size=(2, 300))
    A[:30] = 0
    pairs = list(zip(A.tolist(), B.tolist()))
    assert f.vadd(A, B).tolist() == [f.add(a, b) for a, b in pairs]
    assert f.vsub(A, B).tolist() == [f.sub(a, b) for a, b in pairs]
    assert f.vmul(A, B).tolist() == [f.mul(a, b) for a, b in pairs]
    assert f.vneg(A).tolist() == [f.neg(a) for a in A.tolist()]
    assert f.vpow(A, 5).tolist() == [f.pow_(a, 5) for a in A.tolist()]
    assert f.vinv(A).tolist() == [f.inv(a) if a else 0 for a in A.tolist()]
    assert f.vmul(A, B).dtype == f.dtype == (np.int64 if q == 65537 else np.int32)


# every built-in extension field, GF(1024) mod x^10 + x^3 + 1, and moduli
# whose root t is not primitive (x^2 + 1 over GF(3) is among the built-ins)
TABLED = ([(p, k, None) for (p, k) in BUILTIN_MODULI]
          + [(2, 10, (1, 0, 0, 1) + (0,) * 6 + (1,)), (3, 2, (2, 2, 1)),
             (5, 3, (2, 3, 0, 1)), (31, 2, (1, 0, 1))])


@pytest.mark.parametrize("p,k,modulus", TABLED,
                         ids=["%d^%d%s" % (p, k, "" if m is None else ":" + "".join(map(str, m)))
                              for p, k, m in TABLED])
def test_tables_match_the_polynomial_reference(p, k, modulus, rng):
    f = field_make(p, k, modulus)
    q = f.q
    if q <= 32:
        A, B = (X.ravel() for X in np.meshgrid(np.arange(q), np.arange(q)))
    else:
        A, B = rng.integers(q, size=(2, 3000))
    pairs = list(zip(A.tolist(), B.tolist()))
    coeffs = [f.coeffs(x) for x in range(q)]
    assert f.MUL[A, B].tolist() == [f._mul_codes(a, b) for a, b in pairs]
    assert f.ADD[A, B].tolist() == [f.from_coeffs([(x + y) % p for x, y in
                                                   zip(coeffs[a], coeffs[b])])
                                    for a, b in pairs]
    assert f.NEG.tolist() == [f.from_coeffs([-x % p for x in c]) for c in coeffs]
    assert f.INV[0] == 0
    assert all(f._mul_codes(a, int(f.INV[a])) == 1 for a in range(1, q))
    assert f.MUL.dtype == f.ADD.dtype == f.NEG.dtype == f.INV.dtype == np.int32


def test_array_ops_refuse_extension_fields_without_tables():
    # x^11 + x^2 + 1 is irreducible over GF(2), but GF(2048) would need
    # 2048 x 2048 lookup tables: it is refused when built, so no extension
    # field without tables reaches the array operations
    with pytest.raises(ValueError, match="table limit of 1024"):
        field_make(2, 11, (1, 0, 1) + (0,) * 8 + (1,))
    with pytest.raises(UsageError, match="table limit"):
        parse_field_spec("gf(2,11,1.0.1.0.0.0.0.0.0.0.0.1)")
    # one below the limit in degree, x^5 + x^2 + 1 over GF(2), has them
    f = field_make(2, 5, (1, 0, 1, 0, 0, 1))
    A = np.arange(32)
    assert f.vmul(A, A).tolist() == [f.mul(a, a) for a in range(32)]
    assert f.vadd(A, A).tolist() == [0] * 32


def test_format_parse_roundtrip(gf4):
    for x in range(4):
        assert gf4.parse_element(gf4.format_element(x)) == x


# ---------------------------------------------------------------------------
# the seeded sampler


# 1 and the powers of two take every word (the bound of the accepted words
# is 2^32 itself); a high near the 19485840 units of GF(11) rejects some
HIGHS = [1, 4, 2 ** 20, unit_loop_size_formula(11) + 1, 3 * 2 ** 30, 2 ** 32]


@pytest.mark.parametrize("high", HIGHS)
def test_sampler_draws_in_range_and_in_chunks(high):
    whole = Sampler(SAMPLE_SEED).integers(high, size=1000)
    assert whole.dtype == np.int64
    assert ((0 <= whole) & (whole < high)).all()
    # a draw of a + b is a draw of a, then of b; the scalar draw is one more
    rng = Sampler(SAMPLE_SEED)
    parts = [rng.integers(high, size=s) for s in (1, 299, 0, 600)]
    assert (np.concatenate(parts) == whole[:900]).all()
    assert rng.integers(high) == whole[900]
    # and (size, 20) draws are their rows, in order
    rng = Sampler(SAMPLE_SEED)
    rows = [rng.integers(high, size=(s, 20)) for s in (7, 43)]
    assert rows[0].shape == (7, 20)
    assert (np.concatenate(rows).ravel() == whole).all()


@pytest.mark.parametrize("high", [1, 4, 6, 97])
def test_sampler_reaches_every_value(high):
    assert set(Sampler(7).integers(high, size=2000).tolist()) == set(range(high))


def test_sampler_is_uniform_past_a_biased_modulus():
    # 2^32 words reduced mod 3 * 2^30 would put half the draws below 2^30;
    # rejection puts a third there
    low = (Sampler(SAMPLE_SEED).integers(3 * 2 ** 30, size=6000) < 2 ** 30).mean()
    assert 0.3 < low < 0.37


def test_sampler_choice_gives_distinct_values():
    for n, size in ((10, 10), (6560, 100), (2 ** 40, 50)):
        picks = Sampler(SAMPLE_SEED).choice(n, size=size)
        assert len(set(picks.tolist())) == size
        assert ((0 <= picks) & (picks < n)).all()


def test_sampler_refuses_negative_seeds_and_bad_ranges():
    with pytest.raises(ValueError):
        Sampler(-5)
    for high in (0, -3, 2 ** 32 + 1):
        with pytest.raises(ValueError):
            Sampler(5).integers(high)


def test_sampler_stream_is_the_same_in_two_processes():
    code = ("from moufang.fields import Sampler\n"
            "rng = Sampler(24301)\n"
            "print(rng.integers(10 ** 6, size=8).tolist(), rng.choice(100, 5).tolist())")
    src = str(Path(moufang.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    outs = [subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=60).stdout for _ in range(2)]
    rng = Sampler(24301)
    here = "%s %s\n" % (rng.integers(10 ** 6, size=8).tolist(), rng.choice(100, 5).tolist())
    assert outs == [here, here]


# -- the memory policy -------------------------------------------------------

PARTS = [1 / 64, 1 / 4, 3 / 4, 1]


@pytest.mark.parametrize("part", PARTS)
@pytest.mark.parametrize("doubling", [False, True])
def test_blocks_cover_every_row_once(part, doubling, monkeypatch):
    monkeypatch.setattr(fields, "MEMORY_BUDGET", 2 ** 12)
    cap = fields.budget_rows(24, part)
    assert cap == max(1, int(2 ** 12 * part) // 24) and (part == 1 / 64) == (cap == 2)
    for total in (0, 1, cap - 1, cap, cap + 1):
        spans = list(fields.blocks(total, 24, part, doubling))
        assert [r for s, e in spans for r in range(s, e)] == list(range(total))
        sizes = [e - s for s, e in spans]
        want = [min(2 ** i, cap) for i in range(len(sizes))] if doubling else [cap] * len(sizes)
        assert sizes[:-1] == want[:-1] and all(0 < n <= w for n, w in zip(sizes, want))


def test_blocks_double_up_to_their_cap():
    cap = fields.budget_rows(1000)
    assert cap == 2 ** 27 // 64 // 1000 == 2097
    sizes = [e - s for s, e in fields.blocks(10 ** 5, 1000, doubling=True)]
    assert sizes[:13] == [2 ** i for i in range(12)] + [cap]
    assert set(sizes[12:-1]) == {cap} and sum(sizes) == 10 ** 5


def test_blocks_of_oversized_or_empty_rows():
    # a row past the part is a block of its own; a row of no bytes is
    # priced at one byte
    assert list(fields.blocks(3, 2 ** 22)) == [(0, 1), (1, 2), (2, 3)]
    assert fields.budget_rows(2 ** 28, part=1) == 1
    assert fields.budget_rows(0) == fields.budget_rows(1) == 2 ** 21
    assert list(fields.blocks(0, 0)) == []
    # least raises the cap, as unit_chunks' q^3 floor does
    assert list(fields.blocks(7, 2 ** 22, least=3)) == [(0, 3), (3, 6), (6, 7)]


@pytest.mark.parametrize("part", PARTS)
def test_require_budget_refuses_past_its_part(part):
    edge = int(fields.MEMORY_BUDGET * part)
    fields.require_budget(edge, "the rows", part=part)  # equality is admitted
    with pytest.raises(UsageError) as err:
        fields.require_budget(edge + 1, "the rows", part=part)
    share = "" if part == 1 else "%d/%d of " % part.as_integer_ratio()
    assert str(err.value) == ("the rows take %d bytes, past %sthe 134217728-byte "
                              "memory budget" % (edge + 1, share))


def test_refusals_keep_their_names():
    from moufang import loops, triality
    with pytest.raises(UsageError, match="^needs table mode: the tables of a 3345-element "
                                         "loop take .* memory budget$"):
        loops.require_table_fits(3345)
    with pytest.raises(UsageError, match="^the Bol reflections of a 1025-element loop "
                                         "take .* memory budget$"):
        triality.require_reflections_fit(1025)


def test_only_fields_reads_the_memory_budget():
    # every other module prices through budget_rows, blocks and
    # require_budget; docstrings and comments may name the budget
    readers = []
    for path in sorted(Path(moufang.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [getattr(node, "id", None), getattr(node, "attr", None)])
            if "MEMORY_BUDGET" in names:
                readers.append(path.stem)
    assert set(readers) == {"fields"}
