"""Zorn vector-matrix arithmetic and the construction of the norm-one
loops M(q) and the Paige loops M*(q).

A Zorn matrix [a|alpha|beta|b] has scalar corners a, b and 3-vector
off-diagonal entries alpha, beta.  The norm is the "determinant"
ab - alpha.beta and multiplication mixes dot and cross products.
Elements are rows of 8 field codes in the coordinate order
(a, alpha1..alpha3, beta1..beta3, b).  ZornEngine, the one Zorn
arithmetic, runs the product on whole coordinate blocks at once, which
keeps the streamed enumeration of the norm-one units, generator closures
and the sum-of-two-units decomposition fast; ZornMatrix is a single
element, its arithmetic the engine's on one row.  M*(q) elements are the
lexicographically smaller member of {x, -x} under the field's canonical
element order, compared coordinate by coordinate from a to b.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

# The loop layer (loops, permgrp) is imported by the few functions that
# build a loop or a permutation, so a command that computes in the Zorn
# algebra alone does not load it.
from . import fields
from .fields import (UsageError, field_of_order, prime_power, primitive_element,
                     rref_batch)

class ZornEngine:
    """Vectorized Zorn-matrix arithmetic on (..., 8) arrays of field codes,
    the one Zorn arithmetic of the package.

    The product and the norm are each written once, over the ring
    operations of _ring: plain integer arithmetic for prime fields, reduced
    once per output coordinate in int32, which is what keeps 10^9-pair
    closures viable (int64 once sums of four products pass int32,
    p > 23171); and gathers from the lookup tables that every extension
    field has, adding by GF.vadd.  Elementwise arithmetic is the field's.
    ZornEngine.of gives the one engine of a field.
    """

    @classmethod
    def of(cls, field):
        """The engine of the field, built on first use and kept on the GF
        instance: its rank tables take O(q) to build, which at large q is
        most of a one-row product."""
        engine = getattr(field, "_zorn_engine", None)
        if engine is None:
            engine = field._zorn_engine = cls(field)
        return engine

    def __init__(self, field):
        self.field = field
        q = field.q
        self._prime = field.k == 1
        rank = field._rank.astype(np.int64)
        unrank = np.empty_like(rank)
        unrank[rank] = np.arange(q, dtype=np.int64)
        self._rank_tab = rank
        self._unrank_tab = unrank
        self._weights = (q ** np.arange(7, -1, -1, dtype=np.int64)
                         if q ** 8 <= 2 ** 62 else None)
        self._work = np.int32 if 4 * (q - 1) ** 2 < 2 ** 31 else np.int64

    def _cols(self, X):
        X = np.asarray(X)
        return [np.ascontiguousarray(X[..., i], dtype=self._work) for i in range(8)]

    def _ring(self):
        """(m, add, sub, done) on the columns of _cols: done(sum of products)
        is the field element.  Sums are taken left to right, so at most
        three temporaries are live per coordinate."""
        F = self.field
        if self._prime:
            return (np.multiply, np.add, np.subtract,
                    lambda S: np.remainder(S, F.p, out=S))
        return (lambda A, B: F.MUL[A, B]), F.vadd, F.vsub, lambda S: S

    def mul(self, X, Y):
        m, add, sub, done = self._ring()
        x, y = self._cols(X), self._cols(Y)
        a, al, be, b = x[0], x[1:4], x[4:7], x[7]
        c, ga, de, d = y[0], y[1:4], y[4:7], y[7]
        out = np.empty(np.broadcast_shapes(a.shape, c.shape) + (8,), dtype=np.int32)
        out[..., 0] = done(add(add(add(m(a, c), m(al[0], de[0])),
                                   m(al[1], de[1])), m(al[2], de[2])))
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            out[..., 1 + i] = done(add(sub(add(m(a, ga[i]), m(d, al[i])),
                                           m(be[j], de[k])), m(be[k], de[j])))
            out[..., 4 + i] = done(sub(add(add(m(c, be[i]), m(b, de[i])),
                                           m(al[j], ga[k])), m(al[k], ga[j])))
        out[..., 7] = done(add(add(add(m(b, d), m(be[0], ga[0])),
                                   m(be[1], ga[1])), m(be[2], ga[2])))
        return out

    def conj(self, X):
        X = np.asarray(X)
        out = np.empty(X.shape, dtype=np.int32)
        out[..., 0] = X[..., 7]
        out[..., 7] = X[..., 0]
        out[..., 1:7] = self.field.vneg(X[..., 1:7])
        return out

    def neg(self, X):
        return self.field.vneg(X)

    def norm(self, X):
        """ab - alpha.beta of every row."""
        m, _, sub, done = self._ring()
        x = self._cols(X)
        return done(sub(sub(sub(m(x[0], x[7]), m(x[1], x[4])),
                            m(x[2], x[5])), m(x[3], x[6])))

    def _packable(self):
        if self._weights is None:
            raise ValueError("packed coordinates overflow for q=%d" % self.field.q)
        return self._weights

    def pack(self, X):
        """Canonical-order key: base-q digits are coordinate ranks, a first."""
        weights = self._packable()
        X = np.asarray(X, dtype=np.int64)
        if self._prime:
            return X @ weights
        return self._rank_tab[X] @ weights

    def unpack(self, P):
        self._packable()
        P = np.asarray(P, dtype=np.int64)
        q = self.field.q
        digits = np.empty(P.shape + (8,), dtype=np.int64)
        rest = P.copy()
        for i in range(7, -1, -1):
            digits[..., i] = rest % q
            rest //= q
        if self._prime:
            return digits
        return self._unrank_tab[digits]

    def canonical(self, X):
        """Per row, whether x is the smaller of {x, -x} in canonical order."""
        return self.pack(X) <= self.pack(self.neg(X))

    def canon(self, X):
        """Per row, the smaller of {x, -x} in canonical coordinate order."""
        X = np.asarray(X)
        return np.where(self.canonical(X)[..., None], X, self.neg(X))

    def dot3(self, U, V):
        F = self.field
        s = F.vmul(U[..., 0], V[..., 0])
        s = F.vadd(s, F.vmul(U[..., 1], V[..., 1]))
        return F.vadd(s, F.vmul(U[..., 2], V[..., 2]))

    def unit_row(self):
        row = np.zeros(8, dtype=np.int64)
        row[0] = row[7] = self.field.one
        return row

    def structure_tensor(self):
        """Over GF(p), the int32 S in {-1, 0, 1} with (xy)_c = sum S[a, b, c] x_a y_b."""
        S = self.mul(np.eye(8, dtype=np.int32)[:, None], np.eye(8, dtype=np.int32))
        return S if self.field.p == 2 else (S + 1) % self.field.p - 1  # p - 1 to -1


@dataclass(frozen=True)
class ZornMatrix:
    """Split octonion [a|alpha|beta|b] over a finite field: a value whose
    product, norm (det) and conjugate are ZornEngine's on one row, and
    whose sums and scalar multiples are the field's array operations."""

    field: object
    a: int
    alpha: tuple
    beta: tuple
    b: int

    def _same(self, other):
        if self.field != other.field:
            raise ValueError("mismatched scalar domains: %r vs %r"
                             % (self.field, other.field))

    def _row(self):
        return np.array([self.coords()], dtype=np.int64)

    def _of(self, rows):
        return ZornMatrix.from_coords(self.field, rows[0].tolist())

    def __mul__(self, other):
        self._same(other)
        return self._of(ZornEngine.of(self.field).mul(self._row(), other._row()))

    def __add__(self, other):
        self._same(other)
        return self._of(self.field.vadd(self._row(), other._row()))

    def __sub__(self, other):
        self._same(other)
        return self._of(self.field.vsub(self._row(), other._row()))

    def __neg__(self):
        return self._of(self.field.vneg(self._row()))

    def scalar_mul(self, lam):
        return self._of(self.field.vmul(lam, self._row()))

    def conjugate(self):
        """[a|alpha|beta|b] -> [b|-alpha|-beta|a]."""
        return self._of(ZornEngine.of(self.field).conj(self._row()))

    def det(self):
        """The norm ab - alpha.beta."""
        return int(ZornEngine.of(self.field).norm(self._row())[0])

    def coords(self):
        """(x0..x7) = (a, alpha, beta, b)."""
        return (self.a,) + self.alpha + self.beta + (self.b,)

    def text(self):
        f = self.field.format_element
        return "[%s|%s|%s|%s]" % (f(self.a),
                                  ",".join(f(c) for c in self.alpha),
                                  ",".join(f(c) for c in self.beta),
                                  f(self.b))

    @classmethod
    def parse(cls, field, s):
        """Read [a|a1,a2,a3|b1,b2,b3|b]; malformed text raises UsageError."""
        body = s.strip()
        parts = body[1:-1].split("|")
        if body.startswith("[") and body.endswith("]") and len(parts) == 4:
            pe = field.parse_element
            try:
                alpha = tuple(pe(c) for c in parts[1].split(","))
                beta = tuple(pe(c) for c in parts[2].split(","))
                if len(alpha) == 3 and len(beta) == 3:
                    return cls(field, pe(parts[0]), alpha, beta, pe(parts[3]))
            except ValueError:
                pass
        raise UsageError("bad Zorn matrix text %r" % (s,))

    @classmethod
    def from_coords(cls, field, c):
        c = tuple(c)
        return cls(field, c[0], c[1:4], c[4:7], c[7])

    @classmethod
    def unit(cls, field):
        z, o = field.zero, field.one
        return cls(field, o, (z, z, z), (z, z, z), o)


# Bytes per row for decompose_batch plus the cli's verdict on its result:
# 318-445 peak measured with tracemalloc at q = 3, 4, 5 and 65537, and 469
# in working blocks of 4096 rows at q = 5.  Callers size chunks from it.
DECOMPOSE_ROW_BYTES = 512


def decompose_batch(engine, X):
    """Split every row x of the (N, 8) code array X into u + v with
    det(u) = det(v) = 1: composition.decompose_sum_two_units on whole
    arrays, giving the same u on every row.

    Rows with beta != 0 solve gamma.beta = a + b - ab + alpha.beta on the
    first nonzero coordinate of beta and take for delta the first reduced
    echelon null vector of [gamma; alpha], read off fields.rref_batch as
    composition._nullspace_first reads it off fields.rref, so
    u = [1|gamma|delta|1].  Rows with beta = 0 != alpha do the same with the
    two vector slots swapped, and rows with alpha = beta = 0 take
    u = [a|e1|-e1|0].  Returns (U, V).
    """
    F = engine.field
    X = np.asarray(X, dtype=np.int64)
    rows = np.arange(len(X))
    a, alpha, beta, b = X[:, 0], X[:, 1:4], X[:, 4:7], X[:, 7]
    swap = ~beta.any(axis=1)
    split = swap & ~alpha.any(axis=1)
    solved = np.where(swap[:, None], alpha, beta)  # the slot gamma is solved on
    other = np.where(swap[:, None], beta, alpha)
    target = F.vadd(F.vsub(F.vadd(a, b), F.vmul(a, b)), engine.dot3(alpha, beta))
    first = (solved != 0).argmax(axis=1)
    gamma = np.zeros_like(solved)
    gamma[rows, first] = F.vmul(target, F.vinv(solved[rows, first]))
    R, pivots, _ = rref_batch(F, np.stack([gamma, other], axis=1))
    free = (~pivots).argmax(axis=1)  # rank <= 2 leaves a free column
    row = np.maximum(pivots.cumsum(axis=1) - 1, 0)  # the i-th pivot's row is i
    lead = R[rows[:, None], row, np.arange(3)]
    entry = R[rows[:, None], row, free[:, None]]
    delta = np.where(pivots, F.vneg(F.vmul(entry, F.vinv(lead))), F.zero)
    delta[rows, free] = F.one
    U = np.empty_like(X)
    U[:, 0] = U[:, 7] = F.one
    U[:, 1:4] = np.where(swap[:, None], delta, gamma)
    U[:, 4:7] = np.where(swap[:, None], gamma, delta)
    U[split, :] = F.zero
    U[split, 0] = a[split]
    U[split, 1] = F.one
    U[split, 4] = F.vneg(F.one)
    return U, F.vsub(X, U)


def paige_order_formula(q):
    """(1/d) q^3 (q^4 - 1) with d = gcd(2, q-1)."""
    d = 2 if q % 2 == 1 else 1
    return q ** 3 * (q ** 4 - 1) // d


def unit_loop_size_formula(q):
    return q ** 3 * (q ** 4 - 1)


def mlt_paige_order_formula(q):
    """|POmega8+(q)| = (1/d^2) q^12 (q^2-1)(q^4-1)^2(q^6-1)."""
    d = 2 if q % 2 == 1 else 1
    return q ** 12 * (q ** 2 - 1) * (q ** 4 - 1) ** 2 * (q ** 6 - 1) // (d * d)


# Bytes priced per (alpha, beta) of a unit_chunks chunk: its digits, its
# row and the norm and pack temporaries (about 280 measured at q = 9).
_UNIT_ROW_BYTES = 512

# Norm-one units past which a command refuses up front to visit them all,
# as time limits on a 2-core x86 host.  Streamed (paige-order counting them,
# a sampled spinor-check fetching its picks): q <= 11 run, q = 9's 4782240
# in about 1.6 s and q = 11's 19485840 in about 4 s; q = 13's 62746320 would
# take about 13 s.  Checked one operator at a time (spinor-check
# --exhaustive) or listed whole (enumerate_unit_coords, for the loops and
# backends): q = 5's 78000 take 4.5 s of checks; q = 7's 823200 would take
# about 37 s.
UNIT_STREAM_LIMIT = 2 ** 25
UNIT_CHECK_LIMIT = 2 ** 17


def require_units(q, limit, what):
    """UsageError, read from q alone, when the q^3(q^4-1) norm-one units
    over GF(q) are past limit."""
    units = unit_loop_size_formula(q)
    if units > limit:
        raise UsageError("%s over GF(%d) visits %d norm-one units, past the "
                         "limit of %d" % (what, q, units, limit))


def unit_chunks(field):
    """All norm-one Zorn matrices over the field in ascending canonical
    (packed) order, as successive (N, 8) int64 chunks.

    The pack's first digit is a, so each value of a is one run of the
    order: for a != 0 the q^6 (alpha, beta) in lex order with
    b = (1 + alpha.beta) / a, and for a = 0 the (alpha, beta) with
    alpha.beta = -1, each followed by every b.  Chunks cut the (alpha, beta)
    of one a, read off base-q digits in canonical element order, and every
    row's norm is checked on the engine."""
    eng = ZornEngine.of(field)
    q, one = field.q, field.one
    elems = np.array(field.elements(), dtype=np.int64)
    digits = q ** np.arange(5, -1, -1, dtype=np.int64)
    minus_one = field.neg(one)
    for a in elems.tolist():
        # at least the q^3 beta of one alpha: at most q^4 chunks in all
        for start, stop in fields.blocks(q ** 6, _UNIT_ROW_BYTES, least=q ** 3):
            combos = elems[np.arange(start, stop)[:, None] // digits % q]
            dots = eng.dot3(combos[:, 0:3], combos[:, 3:6])
            if a:
                b = field.vmul(field.vadd(dots, one), field.inv(a))
            else:
                combos = np.repeat(combos[dots == minus_one], q, axis=0)
                b = np.tile(elems, len(combos) // q)
            rows = np.empty((len(combos), 8), dtype=np.int64)
            rows[:, 0] = a
            rows[:, 1:7] = combos
            rows[:, 7] = b
            if not (eng.norm(rows) == one).all():
                raise AssertionError("enumeration produced a non-unit element")
            yield rows


def enumerate_unit_coords(field):
    """All norm-one Zorn matrices over the field, in ascending canonical
    (packed) order: the unit_chunks, concatenated.  Size q^3(q^4-1);
    UsageError past UNIT_CHECK_LIMIT units, before anything is allocated."""
    require_units(field.q, UNIT_CHECK_LIMIT, "a listing")
    return np.concatenate(list(unit_chunks(field)))


def paige_coords(field):
    """The elements of M*(q): the canonical +- representatives among
    enumerate_unit_coords, in ascending canonical order."""
    coords = enumerate_unit_coords(field)
    return coords[ZornEngine.of(field).canonical(coords)]


def count_paige_coords(field):
    """len(paige_coords(field)), counted chunk by chunk of unit_chunks."""
    eng = ZornEngine.of(field)
    return sum(int(eng.canonical(rows).sum()) for rows in unit_chunks(field))


def unit_rows(field, index):
    """The rows of enumerate_unit_coords at the given positions, fetched
    from unit_chunks without listing the units; streaming stops at the
    chunk of the last position.  IndexError for a position outside the
    units."""
    index = np.asarray(index, dtype=np.int64)
    order = np.argsort(index, kind="stable")
    wanted = index[order]
    out = np.empty((len(index), 8), dtype=np.int64)
    start = done = 0
    if len(wanted) and wanted[0] >= 0:
        for rows in unit_chunks(field):
            stop = start + len(rows)
            end = int(np.searchsorted(wanted, stop))
            out[order[done:end]] = rows[wanted[done:end] - start]
            start, done = stop, end
            if done == len(wanted):
                break
    if done < len(wanted):
        raise IndexError("no norm-one unit at position %d" % wanted[done])
    return out


class _PaigeBackend:
    """Shared index-level arithmetic for M(q) and M*(q)."""

    def __init__(self, field, coords, quotient):
        self.field = field
        self.engine = ZornEngine.of(field)
        self.quotient = quotient
        self.coords = coords
        self.packed = self.engine.pack(coords)
        if not (np.diff(self.packed) > 0).all():
            raise AssertionError("element list not in canonical order")
        # q <= 5, so the table has at most 5^8 entries (1.6 MB)
        self._lut = np.full(field.q ** 8, -1, dtype=np.int32)
        self._lut[self.packed] = np.arange(len(coords), dtype=np.int32)

    def lookup(self, packed):
        idx = self._lut[packed]
        if np.any(idx < 0):
            raise AssertionError("product left the element set; arithmetic bug")
        return idx

    def mul_idx(self, I, J):
        Z = self.engine.mul(self.coords[I], self.coords[J])
        if self.quotient:
            Z = self.engine.canon(Z)
        return self.lookup(self.engine.pack(Z))

    def labels(self):
        """ZornMatrix.text of every element, from the q element names."""
        names = np.array([self.field.format_element(c) for c in range(self.field.q)],
                         dtype=object)
        return ["[%s|%s,%s,%s|%s,%s,%s|%s]" % tuple(row)
                for row in names[self.coords].tolist()]

    def loop(self):
        """The FiniteLoop of these elements, the backend its zorn attribute.
        Coordinate c of xy is x^T S_c y mod p, S the engine's structure_tensor,
        in a range of R = 4(p-1)^2 + 1 integers before the reduction.  So each
        half of xy is a radix-R key, an int32 matmul of a row block with the
        elements (not einsum: 2x faster, 0.1 MB more RSS), and a table of R^4
        entries maps it to its half of the packs of xy and -xy.  Prime fields
        only, refused first: no GF(p^k) table fits the budget (M*(4): 3.2 GB)."""
        from .loops import FiniteLoop
        if self.field.k != 1:
            raise AssertionError("Cayley tables are built over prime fields only")
        p, S, n = self.field.p, self.engine.structure_tensor(), len(self.coords)
        lo = (p - 1) ** 2 * np.minimum(S, 0).sum(axis=(0, 1), dtype=np.int32)
        R = (p - 1) ** 2 * int((S * S).sum(axis=(0, 1)).max()) + 1  # S * S = |S|
        radix = R ** np.arange(3, -1, -1, dtype=np.int32)
        weights = p ** np.arange(7, -1, -1, dtype=np.int32)
        Y = np.ascontiguousarray(self.coords.T, dtype=np.int32)
        XM = Y.T @ np.moveaxis(S.reshape(8, 8, 2, 4) @ radix, -1, 0)  # (half, x, b)
        off = (lo.reshape(2, 4) @ radix)[:, None, None]
        value = np.arange(R, dtype=np.int32) + lo[:, None]  # of each digit
        pos, neg = ([reduce(np.add.outer, half).ravel() for half in
                     (weights[:, None] * (s * value % p)).reshape(2, 4, R)] for s in (1, -1))
        table = np.empty((n, n), dtype=np.int32)
        for start, stop in fields.blocks(n, 32 * n):  # 32 bytes a cell (26 measured)
            keys = XM[:, start:stop] @ Y
            k0, k1 = np.subtract(keys, off, out=keys)
            P = pos[0][k0]
            P += pos[1][k1]
            if self.quotient:
                N = neg[0][k0]
                N += neg[1][k1]
                np.minimum(P, N, out=P)
                del N
            del keys, k0, k1  # before the lookup's temporaries
            table[start:stop] = self.lookup(P)
        del pos, neg, P  # before the validation's n^2 temporaries
        loop = FiniteLoop(n, labels=self.labels(), table=table)
        loop.zorn = self
        return loop


def unit_loop(q):
    """M(q): all norm-one Zorn matrices under the Zorn product.  Refused
    by the order formula, before anything is enumerated, past the table
    budget."""
    from .loops import require_table_fits
    prime_power(q)
    require_table_fits(unit_loop_size_formula(q))
    field = field_of_order(q)
    coords = enumerate_unit_coords(field)
    backend = _PaigeBackend(field, coords, quotient=False)
    # inverse = conjugate; spot-verified here for the whole loop
    eng = backend.engine
    if not (eng.mul(coords, eng.conj(coords)) == eng.unit_row()).all():
        raise AssertionError("x * conj(x) != e for some norm-one x")
    return backend.loop()


def paige_loop(q):
    """M*(q): M(q) modulo {e, -e}, on canonical +- representatives.
    Refused like unit_loop past the table budget."""
    from .loops import require_table_fits
    prime_power(q)
    expected = paige_order_formula(q)
    require_table_fits(expected)
    field = field_of_order(q)
    coords = paige_coords(field)
    if len(coords) != expected:
        raise AssertionError("|M*(%d)| = %d but the order formula gives %d"
                             % (q, len(coords), expected))
    return _PaigeBackend(field, coords, quotient=True).loop()


def _polarization_points(field):
    """The 8 basis vectors b_i and the 28 sums b_i + b_j: a quadratic form
    that vanishes at these 36 points vanishes everywhere, in every
    characteristic."""
    basis = np.eye(8, dtype=np.int32) * field.one
    i, j = np.triu_indices(8, 1)
    return np.concatenate([basis, field.vadd(basis[i], basis[j])])


def _certify(field, what, bad, *operands):
    """bad.size, or AssertionError naming the operands at the first true
    entry of bad, an array over their broadcast grid."""
    if bad.any():
        k = np.unravel_index(bad.argmax(), bad.shape)
        raise AssertionError("the Zorn product over %r fails %s at %s" % (field, what, [
            np.broadcast_to(R, bad.shape + (8,))[k].tolist() for R in operands]))
    return bad.size


def moufang_certificate(field):
    """Check ((xy)x)z = x(y(xz)) on the whole Zorn algebra over the field;
    returns the number of rows checked, 2304, and raises AssertionError on
    the first failing row.

    The product is bilinear, so the difference of the two sides is linear
    in y and in z and quadratic in x: y and z run over the 8 basis vectors
    and x over the 36 _polarization_points.  The identity then holds in
    M(q), and in M*(q) since (-x)y = -(xy)."""
    eng = ZornEngine.of(field)
    basis = np.eye(8, dtype=np.int32) * field.one
    X = _polarization_points(field)[:, None, None]
    Y, Z = basis[None, :, None], basis[None, None, :]
    lhs = eng.mul(eng.mul(eng.mul(X, Y), X), Z)
    rhs = eng.mul(X, eng.mul(Y, eng.mul(X, Z)))
    return _certify(field, "the Moufang identity", (lhs != rhs).any(axis=-1), X, Y, Z)


def norm_certificate(field):
    """Check N(xy) = N(x)N(y) on the whole Zorn algebra over the field;
    returns the number of rows checked, 1296, and raises AssertionError on
    the first failing row.

    Both sides are quadratic in x for fixed y and quadratic in y for fixed
    x, so x and y run over the 36 _polarization_points.  Products of
    norm-one elements then have norm one."""
    eng = ZornEngine.of(field)
    X = _polarization_points(field)[:, None]
    Y = X.transpose(1, 0, 2)
    bad = eng.norm(eng.mul(X, Y)) != field.vmul(eng.norm(X), eng.norm(Y))
    return _certify(field, "N(xy) = N(x)N(y)", bad, X, Y)


def standard_generators(q):
    """The three-generator set: the unit block triple for q = 2, the
    primitive-element triple for q > 3.  Determinants are checked.

    q = 3 is special: there the primitive element is -1, so the diagonal
    matrix diag(lambda, lambda^-1) = -e lies in the center class and the
    diagonal triple degenerates to two generators, which can only span a
    group.  The third generator is replaced by the unipotent e3-block
    [1|e3|0|1]; the closure of the repaired triple is all of M*(3).
    """
    field = field_of_order(q)
    z, o = field.zero, field.one
    if q == 2:
        gens = [ZornMatrix(field, o, (o, z, z), (o, z, z), z),
                ZornMatrix(field, o, (z, o, z), (z, o, z), z),
                ZornMatrix(field, z, (z, z, o), (z, z, o), o)]
    else:
        lam = primitive_element(field)
        m1 = field.neg(o)
        gens = [ZornMatrix(field, z, (o, z, z), (m1, z, z), lam),
                ZornMatrix(field, z, (z, o, z), (z, m1, z), lam),
                ZornMatrix(field, lam, (z, z, z), (z, z, z), field.inv(lam))]
        if q == 3:
            gens[2] = ZornMatrix(field, o, (z, z, o), (z, z, z), o)
    for g in gens:
        if g.det() != field.one:
            raise AssertionError("generator %s has determinant != 1" % g.text())
    return tuple(gens)


def associativity_witness(q, quotient):
    """The texts of the standard_generators(q) x, y, z, each the canonical
    +- representative that paige_loop labels when quotient, after checking
    (xy)z != +-x(yz) on the engine.  Any triple with a repeated element lies
    in a group, since Moufang loops are diassociative, so this is the first
    ordered triple of generators that can fail; and by Moufang's theorem
    three associating elements generate a group, so a triple generating the
    nonassociative M*(q) does fail.  AssertionError when it does not."""
    field = field_of_order(q)
    gens = standard_generators(q)
    if quotient:
        gens = [min(g, -g, key=lambda h: [field.rank(c) for c in h.coords()])
                for g in gens]
    eng = ZornEngine.of(field)
    x, y, z = (np.array(g.coords()) for g in gens)
    lhs, rhs = eng.mul(eng.mul(x, y), z), eng.mul(x, eng.mul(y, z))
    if (lhs == rhs).all() or (lhs == eng.neg(rhs)).all():
        raise AssertionError("the standard generators over %r associate" % (field,))
    return tuple(g.text() for g in gens)


# ---------------------------------------------------------------------------
# generator closures: one breadth-first engine over packed rows

# Bytes priced per product in a batch: the frontier rows, the engine's
# int32 columns and temporaries, both packs of each product (tracemalloc
# peaks of 58-72 per product at q = 5 and 7, one side of a batch
# multiplied at a time).
_PRODUCT_BYTES = 256

# Bytes priced per bitmap byte read off at the end: its 8 unpacked bits and
# up to 8 int64 packs.
_READOUT_BYTES = 8 + 8 * 8


def _closure_bytes(q):
    """What a closure inside M*(q) holds besides its product batches: the
    one-bit-per-pack membership bitmap, and an int64 pack per element of
    M*(q) for the frontier levels, or for the packs read off at the end."""
    return (q ** 8 + 7) // 8 + 8 * paige_order_formula(q)


def _require_closure_fits(q):
    """UsageError unless q is a prime power and a closure inside M*(q) fits
    the memory budget: _closure_bytes gets three quarters, and the last
    quarter holds the product batches.  Read from q alone, before any field
    table is built."""
    prime_power(q)
    fields.require_budget(_closure_bytes(q), "the bitmap and packs of a generator "
                          "closure in M*(%d)" % q, part=3 / 4)


def closure_packed(q, generator_matrices):
    """The reachability closure in M*(q) of the generator matrices and e:
    breadth first, each level multiplying the frontier (the elements the
    level before found) by the generators on both sides, in batches sized
    from the memory budget.  Membership is one bit per canonical pack and
    no element list is kept.  Returns the sorted canonical packs, read off
    the bitmap.
    """
    _require_closure_fits(q)
    field = field_of_order(q)
    eng = ZornEngine.of(field)
    gens = np.stack([np.asarray(g.coords(), dtype=np.int64)
                     for g in generator_matrices])
    if not (eng.norm(gens) == field.one).all():
        raise ValueError("generators must have norm one")
    member = np.zeros((q ** 8 + 7) // 8, dtype=np.uint8)

    def fresh(Z):
        """Canonical packs of the rows of Z not yet members, now marked."""
        P = np.minimum(eng.pack(Z), eng.pack(eng.neg(Z))).ravel()
        # np.unique as a sort and adjacent differences (packs are >= 0),
        # without the np.ma.is_masked check that loads numpy.ma
        P = np.sort(P[(member[P >> 3] >> (P & 7) & 1) == 0])
        P = P[np.diff(P, prepend=-1) != 0]
        np.bitwise_or.at(member, P >> 3, (1 << (P & 7)).astype(np.uint8))
        return P

    frontier = fresh(np.concatenate([gens, eng.unit_row()[None, :]]))
    G = gens[:, None, :]
    while len(frontier):
        found = []
        for start, stop in fields.blocks(len(frontier), 2 * len(gens) * _PRODUCT_BYTES):
            X = eng.unpack(frontier[start:stop])[None, :, :]
            # one side at a time, so half of the batch's products are held
            found += [fresh(eng.mul(G, X)), fresh(eng.mul(X, G))]
        frontier = np.concatenate(found)
    packs = np.empty(int(np.bitwise_count(member).sum()), dtype=np.int64)
    count = 0
    for start, stop in fields.blocks(len(member), _READOUT_BYTES):
        P = np.flatnonzero(np.unpackbits(member[start:stop], bitorder="little"))
        np.add(P, 8 * start, out=packs[count:count + len(P)])
        count += len(P)
    return packs


def reachability_closure_certified(q, generator_matrices):
    """Subloop of M*(q) generated by the given matrices, via the
    reachability closure plus two certificates.

    The reachable set R of closure_packed lies in the generated subloop H.
    norm_certificate shows N(xy) = N(x)N(y) on the whole algebra, so R lies
    in M*(q); if |R| equals the independently counted number of +-classes
    of norm-one matrices, then R = H = M*(q).  Returns (sorted packs,
    certified: bool); a failing norm certificate raises AssertionError.
    """
    packs = closure_packed(q, generator_matrices)
    field = field_of_order(q)
    norm_certificate(field)
    enumerated = _count_norm_one(field)
    if paige_order_formula(q) != enumerated:
        raise AssertionError("order formula disagrees with enumeration")
    return packs, len(packs) == enumerated


def _count_norm_one(field):
    """Number of +-classes of norm-one matrices, counted directly from the
    solution structure of ab - alpha.beta = 1, without the formula."""
    q = field.q
    count = (q - 1) * q ** 6 + (q ** 3 - 1) * q ** 3
    if field.p != 2:
        count //= 2
    return count


def generator_closure_size(q):
    """Size of the subloop of M*(q) generated by the standard triple, by the
    certified reachability closure; AssertionError when it does not
    certify.  A q past the memory budget is refused before the generators
    are built.
    """
    _require_closure_fits(q)
    packs, certified = reachability_closure_certified(q, standard_generators(q))
    if not certified:
        raise AssertionError("the reachability closure of the standard generators "
                             "of M*(%d) has %d elements, not every norm-one class"
                             % (q, len(packs)))
    return len(packs)
