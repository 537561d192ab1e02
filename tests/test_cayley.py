import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import moufang
from moufang import cayley, fields, loops
from moufang.cayley import (E_UNIT, H_UNIT, I_UNIT, J_UNIT, K_UNIT, ONE,
                            certify_paige2_iso, conjugate, generate_unit_integrals,
                            label, mul, neg, quotient_mod_sign)
from conftest import QQ, cayley_product_oracle
from moufang.composition import cd_double, scalar_algebra
from moufang.loops import closure, closure_indices

# The product oracle: the rationals doubled three times with parameter -1.
OCT = scalar_algebra(QQ)
for _ in range(3):
    OCT = cd_double(OCT, Fraction(-1))


def frac(x):
    """Doubled coordinates -> exact rational coordinates."""
    return tuple(Fraction(c, 2) for c in x)


def norm(x):
    return OCT.norm(frac(x))


def trace(x):
    t = OCT.add(frac(x), OCT.conj(frac(x)))
    assert t[1:] == (0,) * 7
    return t[0]


@pytest.fixture(scope="module")
def units():
    return generate_unit_integrals()


@pytest.fixture(scope="module")
def quotient(units):
    return quotient_mod_sign(units)


def test_quaternion_relations():
    assert mul(I_UNIT, I_UNIT) == neg(ONE)
    assert mul(I_UNIT, J_UNIT) == K_UNIT
    assert mul(J_UNIT, I_UNIT) == neg(K_UNIT)
    assert mul(E_UNIT, E_UNIT) == neg(ONE)


def test_h_has_norm_one():
    assert norm(H_UNIT) == 1
    assert mul(H_UNIT, conjugate(H_UNIT)) == ONE


def test_basis_products_match_cd_double():
    for a in range(8):
        for b in range(8):
            x, y = [tuple(2 if t == i else 0 for t in range(8)) for i in (a, b)]
            assert frac(mul(x, y)) == OCT.mul(frac(x), frac(y))


def test_product_matches_cd_double_on_random_pairs(units, rng):
    # units, then random half-integer vectors; a product that leaves the
    # half-integers (some coordinate with denominator 4) must be refused
    pairs = [(units[int(rng.integers(240))], units[int(rng.integers(240))])
             for _ in range(200)]
    pairs += [tuple(tuple(int(c) for c in rng.integers(-5, 6, size=8)) for _ in "xy")
              for _ in range(300)]
    refused = 0
    for x, y in pairs:
        want = OCT.mul(frac(x), frac(y))
        if all((2 * c).denominator == 1 for c in want):
            assert frac(mul(x, y)) == want
        else:
            refused += 1
            with pytest.raises(ValueError):
                mul(x, y)
        assert frac(conjugate(x)) == OCT.conj(frac(x))
    assert 0 < refused < 300


def test_mul_batch_matches_cd_double(units, rng):
    # unit x unit rows, then random half-integer rows whose products all
    # stay on the lattice, in one batch each
    U = np.array(units)
    X = np.concatenate([U[rng.integers(240, size=300)], rng.integers(-5, 6, size=(300, 8))])
    Y = np.concatenate([U[rng.integers(240, size=300)], rng.integers(-5, 6, size=(300, 8))])
    want = [OCT.mul(frac(x), frac(y)) for x, y in zip(X.tolist(), Y.tolist())]
    ok = np.array([all((2 * c).denominator == 1 for c in w) for w in want])
    assert ok[:300].all() and 0 < (~ok).sum() < 300
    Z = cayley.mul_batch(X[ok], Y[ok])
    assert Z.shape == (ok.sum(), 8)
    assert [frac(z) for z in Z.tolist()] == [w for w, k in zip(want, ok) if k]
    assert [mul(x, y) for x, y in zip(X[:5].tolist(), Y[:5].tolist())] == \
        [tuple(z) for z in Z[:5].tolist()]


def _matches_the_oracle(X, Y):
    """mul_batch(X, Y) is the oracle's rows halved, or refuses the first
    product the oracle puts off the lattice; which rows are off it."""
    want = cayley_product_oracle(X, Y)
    odd = (want & 1).any(axis=1)
    if odd.any():
        first = tuple(want[odd.argmax()].tolist())
        with pytest.raises(ValueError, match=re.escape("%s/4 leaves" % (first,))):
            cayley.mul_batch(X, Y)
    else:
        assert np.array_equal(cayley.mul_batch(X, Y), want >> 1)
    return odd


@pytest.mark.parametrize("block", [cayley._ROW_BLOCK, 7])
def test_blocked_mul_batch_is_one_unblocked_product(block, units, rng, monkeypatch):
    # against the outer-product oracle; 2500 rows end inside a second block
    # of 2048, and blocks of 7 cut everywhere
    monkeypatch.setattr(cayley, "_ROW_BLOCK", block)
    U = np.array(units)
    # scaled units stay on the lattice
    X, Y = (U[rng.integers(240, size=2500)] * rng.integers(-3, 4, size=(2500, 1))
            for _ in range(2))
    assert not _matches_the_oracle(X, Y).any()
    # random half-integer rows: the batch, the rows on the lattice, and
    # each of the first rows off it alone
    A, B = rng.integers(-9, 10, size=(2, 2500, 8))
    odd = _matches_the_oracle(A, B)
    assert 0 < odd.sum() < 2500
    _matches_the_oracle(A[~odd], B[~odd])
    for r in np.flatnonzero(odd)[:5]:
        _matches_the_oracle(A[r:r + 1], B[r:r + 1])
    # rows at the coordinate limit: any coordinates below it times even
    # ones stay on the lattice, with sums past 2^58
    limit = cayley._COORD_LIMIT
    A = rng.integers(-limit + 1, limit, size=(2500, 8))
    B = 2 * rng.integers(-limit // 2 + 1, limit // 2, size=(2500, 8))
    A[::3], A[1::3], B[::5] = limit - 1, -limit + 1, -limit + 2
    assert not _matches_the_oracle(A, B).any()
    assert not _matches_the_oracle(B, A).any()
    assert np.abs(cayley_product_oracle(A, B)).max() > 2 ** 58
    # the refusal names the first product off the lattice, whichever block
    # holds it
    X[1500] = Y[1500] = Y[2400] = (1, 0, 0, 0, 0, 0, 0, 0)
    X[2400] = (0, 1, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match=re.escape("(1, 0, 0, 0, 0, 0, 0, 0)/4")):
        cayley.mul_batch(X, Y)
    with pytest.raises(ValueError, match=re.escape("(0, 1, 0, 0, 0, 0, 0, 0)/4")):
        cayley.mul_batch(X[2000:], Y[2000:])


def test_mul_batch_refuses_one_row_off_the_lattice(units):
    half = (1, 0, 0, 0, 0, 0, 0, 0)
    X = np.array(units[:10])
    X[7] = half
    Y = np.array(units[:10])
    Y[7] = half
    with pytest.raises(ValueError, match="leaves the half-integers"):
        cayley.mul_batch(X, Y)
    X[7] = Y[7] = ONE
    assert cayley.mul_batch(X, Y).shape == (10, 8)
    # past 2^28 a coordinate could overflow the int64 sums; -2^63 is its
    # own absolute value in int64
    for big in (2 ** 28, -2 ** 28, -2 ** 63):
        X[7, 3] = big
        with pytest.raises(ValueError, match="coordinates past"):
            cayley.mul_batch(X, Y)
        with pytest.raises(ValueError, match="coordinates past"):
            cayley.mul_batch(Y, X)
    with pytest.raises(ValueError, match="coordinates past"):
        cayley.mul_batch([[0, -2 ** 63, 0, 0, 0, 0, 0, 0]], [[2, 0, 0, 0, 0, 0, 0, 0]])
    with pytest.raises(ValueError, match="rows of doubled coordinates"):
        cayley.mul_batch(Y[:, :7], Y[:, :7])


def test_half_times_half_is_refused():
    half = (1, 0, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        mul(half, half)


def test_unit_count(units):
    assert len(units) == 240


def test_unit_norms_and_traces(units):
    for x in units:
        assert sum(c * c for c in x) == 4
        assert norm(x) == 1
        assert norm(x).denominator == 1
        assert trace(x).denominator == 1


def test_conjugation_closes(units):
    pool = set(units)
    for x in units:
        assert conjugate(x) in pool


def test_subtraction_stays_integral(units, rng):
    # differences have integral norm and trace (lattice spot check)
    for _ in range(300):
        a = units[int(rng.integers(240))]
        b = units[int(rng.integers(240))]
        d = tuple(u - v for u, v in zip(a, b))
        assert norm(d).denominator == 1
        assert trace(d).denominator == 1


def test_unit_closure_stays_in_its_priced_chunks(units):
    # chunks of 4096 pairs of 8 coordinates at _CLOSURE_PAIR_BYTES each
    # (2 MiB); the closure peaks at about 1.4 MB
    tracemalloc.start()
    try:
        generate_unit_integrals()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pair_bytes = 8 * loops._CLOSURE_PAIR_BYTES
    assert peak <= fields.budget_rows(pair_bytes) * pair_bytes


def test_closure_of_i_j_h_alone_is_240():
    els = closure([I_UNIT, J_UNIT, H_UNIT], cayley.mul_batch, ONE, cap=241)
    assert len(els) == 240


def test_unit_numbering_is_pinned(units):
    joined = "\n".join(label(x) for x in units).encode()
    assert hashlib.sha256(joined).hexdigest() == \
        "3d7f76f34653837c13ef91fe31ad8a898e2b98dcbab2eb5088a500643eff7632"


def test_quotient_size(quotient):
    assert quotient.n == 120


def test_quotient_table_and_labels_are_pinned(quotient):
    assert hashlib.sha256(quotient.table.tobytes()).hexdigest() == \
        "700fd89794629d5a63aaa312ac9a34cc9ca3a494478940738aba7d856d0a9b0a"
    assert hashlib.sha256("\n".join(quotient.labels).encode()).hexdigest() == \
        "d7bea71e9144a3c0f2a514603ad8536f61f1d0a2eeb4ea374ab2b653a786ce00"


def test_quotient_is_moufang_nonassociative_simple(quotient):
    assert loops.moufang_violation(quotient) is None
    assert loops.associativity_violation(quotient) is not None
    assert all(len(loops.normal_closure(quotient, [x])) == quotient.n
               for x in range(quotient.n) if x != quotient.neutral)


def test_iso_certificate(quotient):
    w = certify_paige2_iso(quotient)
    assert w.verify()
    assert w.target.n == 120


def test_ijh_generate_quotient(quotient):
    idx = {r: i for i, r in enumerate(quotient.reps)}
    gens = [idx[r] for r in map(tuple, cayley.sign_reps([I_UNIT, J_UNIT, H_UNIT]).tolist())]
    assert len(closure_indices(quotient, gens)) == 120


def test_element_labels(quotient):
    assert all(lbl.startswith("(") and lbl.endswith(")")
               for lbl in quotient.labels)
    h = tuple(cayley.sign_reps([neg(H_UNIT)])[0].tolist())
    assert label(h) == "(0,1/2,1/2,1/2,1/2,0,0,0)"
    assert label(neg(h)) == "(0,-1/2,-1/2,-1/2,-1/2,0,0,0)"


def test_structure_constants_match_the_rational_doubling():
    # built over the integers; the same doubling over the rationals is the
    # reference
    basis = [tuple(Fraction(int(a == b)) for b in range(8)) for a in range(8)]
    want = [OCT.mul(basis[i], basis[j]) for i in range(8) for j in range(8)]
    got = cayley._structure_constants()
    assert got.dtype == np.int64 and got.tolist() == [list(p) for p in want]


def test_cli_import_does_not_build_structure_constants():
    src = str(Path(moufang.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    code = ("import moufang.cli, moufang.cayley as c; "
            "print(c._structure_constants.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0"
