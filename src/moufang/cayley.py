"""Integral Cayley numbers: the classical real octonions on the integral
lattice, the 240 units of norm one, and the isomorphism of their sign
quotient with the Paige loop over GF(2).

An element is a row of 8 ints, twice its coordinates over the basis
(1, i, j, k, e, ie, je, ke), so the half-integers of the lattice are exact
and the norm of x is sum(c*c for c in x) / 4; single elements are tuples,
batches (N, 8) int64 arrays.  The multiplication is the doubling
construction applied three times from the integers with parameter -1
(``cd_double`` over ``_ZZ``: every structure constant is an integer, so no
fraction is needed); its 64 nonzero structure constants are read off the
basis products on first use into an (8*8, 8) tensor.  Each of them is one
signed term x_i y_j of one output coordinate, so a batch of products runs
on coordinate columns of ints, 64 in-place multiply-adds a block of rows."""

from __future__ import annotations

import operator
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .composition import cd_double, scalar_algebra
from .fields import blocks
from .loops import FiniteLoop, closure, closure_indices, find_isomorphism
from . import paige


# The integers, with the scalar operations cd_double uses.
_ZZ = SimpleNamespace(zero=0, one=1, add=operator.add, sub=operator.sub,
                      mul=operator.mul, neg=operator.neg, is_zero=operator.not_)


@lru_cache(maxsize=None)
def _structure_constants():
    """The (64, 8) tensor C with e_i e_j = sum_k C[8 i + j, k] e_k; each row
    holds one entry +-1.  The 64 basis products are one product of octonions
    whose coordinates are int arrays, one entry per pair (i, j)."""
    algebra = scalar_algebra(_ZZ)
    for _ in range(3):
        algebra = cd_double(algebra, -1)
    i, j = np.divmod(np.arange(64), 8)
    basis = np.eye(8, dtype=np.int64)
    C = np.array(algebra.mul(tuple(basis[i].T), tuple(basis[j].T))).T
    if not (np.sort(np.abs(C), axis=1) == basis[7]).all():
        raise AssertionError("octonion basis products are not signed basis units")
    return np.ascontiguousarray(C)


@lru_cache(maxsize=None)
def _terms():
    """The 64 signed terms of the product, read off C: (k, i, j, op) with
    e_i e_j = +-e_k, op np.add for + and np.subtract for -."""
    C = _structure_constants()
    return tuple((int(k), int(r) // 8, int(r) % 8,
                  np.add if C[r, k] > 0 else np.subtract)
                 for r, k in zip(*np.nonzero(C)))


# Coordinates past this bound could overflow the int64 sums of products.
_COORD_LIMIT = 2 ** 28

# Rows per block of mul_batch: a block holds its operands, the sums and one
# term as int64 columns, about 220 bytes a row, so no caller holds them for
# a whole batch (the 14400 products of the sign quotient would take 3.2 MB).
_ROW_BLOCK = 2048


def _rows(X):
    X = np.asarray(X, dtype=np.int64)
    if X.ndim != 2 or X.shape[1] != 8:
        raise ValueError("need (N, 8) rows of doubled coordinates, got shape %s"
                         % (X.shape,))
    return X


def _block_products(X, Y, out):
    """Products of a block of rows into out, on coordinate columns: acc[k]
    gathers the signed terms x_i y_j of 4 * (xy)_k, and the doubled product
    is acc / 2."""
    x, y = np.ascontiguousarray(X.T), np.ascontiguousarray(Y.T)
    acc = np.zeros_like(x)
    term = np.empty_like(x[0])
    xs, ys, sums = list(x), list(y), list(acc)
    for k, i, j, op in _terms():
        np.multiply(xs[i], ys[j], out=term)
        op(sums[k], term, out=sums[k])
    odd = np.bitwise_or.reduce(acc, axis=0) & 1
    if odd.any():
        raise ValueError("product %s/4 leaves the half-integers"
                         % (tuple(acc[:, odd.argmax()].tolist()),))
    np.right_shift(acc, 1, out=acc)
    out[:] = acc.T


def mul_batch(X, Y):
    """Row-by-row products of two (N, 8) arrays of doubled coordinates, an
    (N, 8) int64 array, formed _ROW_BLOCK rows at a time; ValueError when
    some product leaves the half-integer lattice."""
    X, Y = _rows(X), _rows(Y)
    if len(X) != len(Y):
        raise ValueError("need equal numbers of rows, got %d and %d" % (len(X), len(Y)))
    if any(A.max(initial=0) >= _COORD_LIMIT or A.min(initial=0) <= -_COORD_LIMIT
           for A in (X, Y)):
        raise ValueError("coordinates past %d" % _COORD_LIMIT)
    out = np.empty((len(X), 8), dtype=np.int64)
    for start in range(0, len(X), _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        _block_products(X[block], Y[block], out[block])
    return out


def mul(x, y):
    """Product of two doubled-coordinate octonions, the one-row view of
    mul_batch."""
    return tuple(mul_batch([x], [y])[0].tolist())


def neg(x):
    return tuple(-c for c in x)


def conjugate(x):
    return (x[0],) + neg(x[1:])


def label(x):
    """Coordinates as integers or n/2, e.g. (0,1/2,1/2,1/2,1/2,0,0,0)."""
    return "(%s)" % ",".join(str(c >> 1) if c % 2 == 0 else "%d/2" % c for c in x)


def _unit(index):
    return tuple(2 if t == index else 0 for t in range(8))


ONE = _unit(0)
I_UNIT = _unit(1)
J_UNIT = _unit(2)
K_UNIT = _unit(3)
E_UNIT = _unit(4)
H_UNIT = (0, 1, 1, 1, 1, 0, 0, 0)


def _keys(X):
    """One int per row of doubled coordinates in -2..2, the row read as base-5
    digits shifted by 2, so the keys ascend as the rows do lexicographically;
    AssertionError for a coordinate past -2..2, which no unit has."""
    X = _rows(X)
    if np.abs(X).max(initial=0) > 2:
        raise AssertionError("a coordinate past -2..2 is no unit's")
    return (X + 2) @ 5 ** np.arange(7, -1, -1)


def _index(keys, X):
    """Position of each row of X among the rows with the ascending keys;
    AssertionError for a row that is not among them."""
    k = _keys(X)
    at = np.searchsorted(keys, k).clip(max=len(keys) - 1)
    if (keys[at] != k).any():
        raise AssertionError("a row outside the unit integrals")
    return at


def generate_unit_integrals():
    """The 240 norm-one units, in ascending order: the orbit of 1 under
    multiplication by {+-1, +-i, +-j, h} on either side, which lies in the
    subloop they generate and, at 240 norm-one elements, is all of it."""
    gens = [ONE, neg(ONE), I_UNIT, neg(I_UNIT), J_UNIT, neg(J_UNIT), H_UNIT]
    try:
        elements = closure(gens, mul_batch, ONE, limit=240)
    except ValueError as e:
        raise AssertionError("closure of the unit integrals exceeded 240; "
                             "arithmetic bug") from e
    if len(elements) != 240:
        raise AssertionError("expected 240 unit integrals, found %d" % len(elements))
    off = (elements ** 2).sum(axis=1) != 4
    if off.any():
        raise AssertionError("element %s does not have norm one"
                             % label(elements[int(off.argmax())]))
    return [tuple(e) for e in elements[np.argsort(_keys(elements))].tolist()]


def sign_reps(X):
    """The representative of {x, -x} whose first nonzero coordinate is
    positive, for each row of the (N, 8) array X."""
    X = _rows(X)
    lead = X[np.arange(len(X)), (X != 0).argmax(axis=1)]
    if (lead == 0).any():
        raise ValueError("zero octonion has no sign representative")
    return X * np.sign(lead)[:, None]


# Bytes a product of the sign quotient's table is priced at while its row
# block is formed: the repeated and tiled operands, mul_batch's columns, the
# sign representatives and their keys take 215 (tracemalloc, the whole table
# in one block) to 350 (blocks of 8 rows).  At 2048 a block is 8 rows, 960
# products, so it is one block of mul_batch.
_QUOTIENT_PRODUCT_BYTES = 2048


def quotient_mod_sign(elements=None):
    """The 120-element loop of +-classes of the unit integrals, its table
    formed in row blocks."""
    if elements is None:
        elements = generate_unit_integrals()
    reps = sign_reps(elements)
    keys, first = np.unique(_keys(reps), return_index=True)
    reps = reps[first]
    n = len(reps)
    if n != 120:
        raise AssertionError("sign quotient has %d classes, expected 120" % n)
    table = np.empty((n, n), dtype=np.int32)
    for s, e in blocks(n, _QUOTIENT_PRODUCT_BYTES * n):
        products = mul_batch(np.repeat(reps[s:e], n, axis=0), np.tile(reps, (e - s, 1)))
        table[s:e] = _index(keys, sign_reps(products)).reshape(e - s, n)
    reps = [tuple(r) for r in reps.tolist()]
    loop = FiniteLoop(n, labels=[label(r) for r in reps], table=table)
    loop.reps = reps
    return loop


def certify_paige2_iso(quotient=None):
    """Verified isomorphism of the sign quotient with M*(2), plus the check
    that the classes of i, j, h generate the quotient."""
    if quotient is None:
        quotient = quotient_mod_sign()
    gen_idx = _index(_keys(quotient.reps), sign_reps([I_UNIT, J_UNIT, H_UNIT]))
    if len(closure_indices(quotient, gen_idx)) != quotient.n:
        raise AssertionError("i, j, h do not generate the sign quotient")
    witness = find_isomorphism(quotient, paige.paige_loop(2))
    if witness is None:
        raise AssertionError("no isomorphism with M*(2); build falsified")
    return witness
