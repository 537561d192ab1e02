"""Construction of the norm-one loops M(q) and the Paige loops M*(q).

Elements are rows of 8 field codes in the coordinate order
(a, alpha1..alpha3, beta1..beta3, b).  The engine below runs the Zorn
product on whole coordinate blocks at once, which keeps exhaustive
enumeration (q <= 5) and generator closures fast.  M*(q) elements are the
lexicographically smaller member of {x, -x} under the field's canonical
element order, compared coordinate by coordinate from a to b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .composition import ZornMatrix
from .fields import field_of_order, primitive_element
from .loops import FiniteLoop, ClosureCapExceeded, _TABLE_LIMIT

_EXHAUSTIVE_Q = 5
_CLOSURE_ASSERT_LIMIT = 100000


class ZornEngine:
    """Vectorized Zorn-matrix arithmetic on (..., 8) arrays of field codes.

    Three fused kernels: plain modular arithmetic for prime fields, XOR
    addition plus a multiplication-table gather in characteristic 2, and
    full table gathers otherwise.  Work is done in int32 with one reduction
    per output coordinate, which is what keeps 10^9-pair closures viable.
    """

    def __init__(self, field):
        self.field = field
        q = field.q
        if q ** 8 > 2 ** 62:
            raise ValueError("packed coordinates overflow for q=%d" % q)
        self._prime = field.k == 1
        self._char2 = field.p == 2 and field.k > 1
        if not self._prime and not field._has_tables:
            raise ValueError("vector engine needs lookup tables for %r" % (field,))
        rank = field._rank.astype(np.int64)
        unrank = np.empty_like(rank)
        unrank[rank] = np.arange(q, dtype=np.int64)
        self._rank_tab = rank
        self._unrank_tab = unrank
        self._weights = q ** np.arange(7, -1, -1, dtype=np.int64)
        if not self._prime:
            self._MUL32 = field.MUL.astype(np.int32)
            self._ADD32 = field.ADD.astype(np.int32)
            self._NEG32 = field.NEG.astype(np.int32)

    def _cols(self, X):
        X = np.asarray(X)
        return [np.ascontiguousarray(X[..., i], dtype=np.int32) for i in range(8)]

    def mul(self, X, Y):
        xa = self._cols(X)
        ya = self._cols(Y)
        a, b = xa[0], xa[7]
        c, d = ya[0], ya[7]
        al, be = xa[1:4], xa[4:7]
        ga, de = ya[1:4], ya[4:7]
        if self._prime:
            p = self.field.p
            top = (a * c + al[0] * de[0] + al[1] * de[1] + al[2] * de[2]) % p
            bottom = (b * d + be[0] * ga[0] + be[1] * ga[1] + be[2] * ga[2]) % p
            upper = [None] * 3
            lower = [None] * 3
            for i in range(3):
                j, k = (i + 1) % 3, (i + 2) % 3
                upper[i] = (a * ga[i] + d * al[i] - be[j] * de[k] + be[k] * de[j]) % p
                lower[i] = (c * be[i] + b * de[i] + al[j] * ga[k] - al[k] * ga[j]) % p
        else:
            M = self._MUL32
            if self._char2:
                fadd = np.bitwise_xor
                fneg = lambda v: v
            else:
                A = self._ADD32
                fadd = lambda u, v: A[u, v]
                fneg = lambda v: self._NEG32[v]
            top = fadd(fadd(M[a, c], M[al[0], de[0]]),
                       fadd(M[al[1], de[1]], M[al[2], de[2]]))
            bottom = fadd(fadd(M[b, d], M[be[0], ga[0]]),
                          fadd(M[be[1], ga[1]], M[be[2], ga[2]]))
            upper = [None] * 3
            lower = [None] * 3
            for i in range(3):
                j, k = (i + 1) % 3, (i + 2) % 3
                upper[i] = fadd(fadd(M[a, ga[i]], M[d, al[i]]),
                                fadd(fneg(M[be[j], de[k]]), M[be[k], de[j]]))
                lower[i] = fadd(fadd(M[c, be[i]], M[b, de[i]]),
                                fadd(M[al[j], ga[k]], fneg(M[al[k], ga[j]])))
        out = np.empty(top.shape + (8,), dtype=np.int32)
        out[..., 0] = top
        for i in range(3):
            out[..., 1 + i] = upper[i]
            out[..., 4 + i] = lower[i]
        out[..., 7] = bottom
        return out

    def vneg(self, A):
        A = np.asarray(A)
        if self._prime:
            return ((-A) % self.field.p).astype(np.int32)
        return self._NEG32[A]

    def vmul(self, A, B):
        if self._prime:
            return (np.asarray(A, dtype=np.int64) * np.asarray(B, dtype=np.int64)) \
                % self.field.p
        return self._MUL32[A, B]

    def vadd(self, A, B):
        if self._prime:
            return (np.asarray(A, dtype=np.int64) + np.asarray(B)) % self.field.p
        return self._ADD32[A, B]

    def vsub(self, A, B):
        if self._prime:
            return (np.asarray(A, dtype=np.int64) - np.asarray(B)) % self.field.p
        return self._ADD32[A, self._NEG32[B]]

    def conj(self, X):
        X = np.asarray(X)
        out = np.empty(X.shape, dtype=np.int32)
        out[..., 0] = X[..., 7]
        out[..., 7] = X[..., 0]
        out[..., 1:7] = self.vneg(X[..., 1:7])
        return out

    def neg(self, X):
        return self.vneg(np.asarray(X))

    def norm(self, X):
        c = self._cols(X)
        if self._prime:
            return (c[0] * c[7] - c[1] * c[4] - c[2] * c[5] - c[3] * c[6]) \
                % self.field.p
        M = self._MUL32
        s = M[c[0], c[7]]
        for i in (1, 2, 3):
            s = self.vsub(s, M[c[i], c[i + 3]])
        return s

    def pack(self, X):
        """Canonical-order key: base-q digits are coordinate ranks, a first."""
        X = np.asarray(X, dtype=np.int64)
        if self._prime:
            return X @ self._weights
        return self._rank_tab[X] @ self._weights

    def unpack(self, P):
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

    def canon(self, X):
        """Per row, the smaller of {x, -x} in canonical coordinate order."""
        X = np.asarray(X)
        N = self.neg(X)
        keep = (self.pack(X) <= self.pack(N))
        return np.where(keep[..., None], X, N)

    def dot3(self, U, V):
        s = self.vmul(U[..., 0], V[..., 0])
        s = self.vadd(s, self.vmul(U[..., 1], V[..., 1]))
        return self.vadd(s, self.vmul(U[..., 2], V[..., 2]))

    def unit_row(self):
        row = np.zeros(8, dtype=np.int64)
        row[0] = row[7] = self.field.one
        return row


def engine_for(q):
    fs = field_of_order(q)
    return ZornEngine(fs)


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


def enumerate_unit_coords(field):
    """All norm-one Zorn matrices over the field, in ascending canonical
    (packed) order.  Size q^3(q^4-1)."""
    eng = ZornEngine(field)
    q = field.q
    elems_canonical = np.array(field.elements(), dtype=np.int64)
    # all (alpha, beta) combos in canonical-lex order
    grids = np.meshgrid(*([elems_canonical] * 6), indexing="ij")
    combos = np.stack([g.ravel() for g in grids], axis=-1)  # (q^6, 6)
    al, be = combos[:, 0:3], combos[:, 3:6]
    dots = eng.dot3(al, be)
    blocks = []
    one = field.one
    for a in elems_canonical:
        if a == 0:
            mask = dots == eng.vneg(one)  # alpha.beta = -1
            al0, be0 = al[mask], be[mask]
            m = len(al0)
            for b in elems_canonical:
                rows = np.empty((m, 8), dtype=np.int64)
                rows[:, 0] = 0
                rows[:, 1:4] = al0
                rows[:, 4:7] = be0
                rows[:, 7] = b
                blocks.append(rows)
        else:
            a_inv = field.inv(int(a))
            b = eng.vmul(eng.vadd(dots, one), a_inv)
            rows = np.empty((len(combos), 8), dtype=np.int64)
            rows[:, 0] = a
            rows[:, 1:4] = al
            rows[:, 4:7] = be
            rows[:, 7] = b
            blocks.append(rows)
    coords = np.concatenate(blocks, axis=0)
    eng_packed = eng.pack(coords)
    order = np.argsort(eng_packed, kind="stable")
    coords = coords[order]
    if not (eng.norm(coords) == one).all():
        raise AssertionError("enumeration produced a non-unit element")
    return coords


@dataclass
class UnitLoopElement:
    """A norm-one Zorn matrix together with its canonical-representative flag."""

    matrix: ZornMatrix
    is_canonical_rep: bool

    @classmethod
    def of(cls, matrix):
        eng = ZornEngine(matrix.field)
        row = np.array([matrix.coords()], dtype=np.int64)
        rep = eng.canon(row)
        return cls(matrix, bool((rep == row).all()))


class _PaigeBackend:
    """Shared index-level arithmetic for M(q) and M*(q)."""

    def __init__(self, field, coords, quotient):
        self.field = field
        self.engine = ZornEngine(field)
        self.quotient = quotient
        self.coords = coords
        self.packed = self.engine.pack(coords)
        if not (np.diff(self.packed) > 0).all():
            raise AssertionError("element list not in canonical order")
        space = field.q ** 8
        if space <= 2 ** 24:
            lut = np.full(space, -1, dtype=np.int32)
            lut[self.packed] = np.arange(len(coords), dtype=np.int32)
            self._lut = lut
        else:
            self._lut = None

    def lookup(self, packed):
        if self._lut is not None:
            idx = self._lut[packed]
        else:
            pos = np.searchsorted(self.packed, packed)
            pos = np.clip(pos, 0, len(self.packed) - 1)
            idx = np.where(self.packed[pos] == packed, pos, -1).astype(np.int32)
        if np.any(idx < 0):
            raise KeyError("product left the element set; arithmetic bug")
        return idx

    def mul_idx(self, I, J):
        Z = self.engine.mul(self.coords[I], self.coords[J])
        if self.quotient:
            Z = self.engine.canon(Z)
        return self.lookup(self.engine.pack(Z))

    def ldiv_idx(self, i, j):
        # x \ y = conj(x) * y, valid since inverses are conjugates here
        Z = self.engine.mul(self.engine.conj(self.coords[[i]]), self.coords[[j]])
        if self.quotient:
            Z = self.engine.canon(Z)
        return int(self.lookup(self.engine.pack(Z))[0])

    def rdiv_idx(self, i, j):
        Z = self.engine.mul(self.coords[[i]], self.engine.conj(self.coords[[j]]))
        if self.quotient:
            Z = self.engine.canon(Z)
        return int(self.lookup(self.engine.pack(Z))[0])

    def labels(self):
        f = self.field.format_element
        out = []
        for row in self.coords:
            out.append("[%s|%s|%s|%s]" % (
                f(int(row[0])),
                ",".join(f(int(c)) for c in row[1:4]),
                ",".join(f(int(c)) for c in row[4:7]),
                f(int(row[7]))))
        return out

    def neutral_index(self):
        e = self.engine.unit_row()
        return int(self.lookup(self.engine.pack(e[None, :]))[0])


def _attach_backend(loop, backend):
    loop.zorn = backend
    return loop


def unit_loop(q):
    """M(q): all norm-one Zorn matrices under the Zorn product."""
    if q > _EXHAUSTIVE_Q:
        raise ValueError("exhaustive enumeration is limited to q <= %d" % _EXHAUSTIVE_Q)
    field = field_of_order(q)
    coords = enumerate_unit_coords(field)
    backend = _PaigeBackend(field, coords, quotient=False)
    n = len(coords)
    loop = FiniteLoop(n, labels=backend.labels(), batch_fn=backend.mul_idx,
                      neutral=backend.neutral_index(),
                      ldiv_fn=backend.ldiv_idx, rdiv_fn=backend.rdiv_idx)
    # inverse = conjugate; spot-verified here for the whole loop
    eng = backend.engine
    prods = eng.mul(coords, eng.conj(coords))
    if not (prods == eng.unit_row()[None, :]).all():
        raise AssertionError("x * conj(x) != e for some norm-one x")
    return _attach_backend(loop, backend)


def paige_loop(q):
    """M*(q): M(q) modulo {e, -e}, on canonical +- representatives."""
    if q > _EXHAUSTIVE_Q:
        raise ValueError("use paige_oracle for q > %d" % _EXHAUSTIVE_Q)
    field = field_of_order(q)
    coords = enumerate_unit_coords(field)
    eng = ZornEngine(field)
    keep = eng.pack(coords) <= eng.pack(eng.neg(coords))
    coords = coords[keep]
    backend = _PaigeBackend(field, coords, quotient=True)
    n = len(coords)
    expected = paige_order_formula(q)
    if n != expected:
        raise AssertionError("|M*(%d)| = %d but the order formula gives %d"
                             % (q, n, expected))
    loop = FiniteLoop(n, labels=backend.labels(), batch_fn=backend.mul_idx,
                      neutral=backend.neutral_index(),
                      ldiv_fn=backend.ldiv_idx, rdiv_fn=backend.rdiv_idx)
    return _attach_backend(loop, backend)


class PaigeOracle:
    """Lazy M*(q) for q beyond the enumeration bound: multiplication of
    canonical representatives without materializing the element set."""

    def __init__(self, q):
        self.field = field_of_order(q)
        self.engine = ZornEngine(self.field)
        self.q = q

    def canonical(self, matrix):
        row = np.asarray([matrix.coords()], dtype=np.int64)
        rep = self.engine.canon(row)[0]
        return ZornMatrix.from_coords(self.field, [int(c) for c in rep])

    def mult(self, x, y):
        z = self.canonical(x * y)
        return z


def paige_oracle(q):
    return PaigeOracle(q)


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
    return tuple(UnitLoopElement.of(g) for g in gens)


def frobenius_map(q, elem):
    """Coordinate-wise p-th power on a unit loop element."""
    field = elem.matrix.field if isinstance(elem, UnitLoopElement) else elem.field
    mat = elem.matrix if isinstance(elem, UnitLoopElement) else elem
    coords = tuple(field.frobenius(c) for c in mat.coords())
    out = ZornMatrix.from_coords(field, coords)
    if isinstance(elem, UnitLoopElement):
        return UnitLoopElement.of(out)
    return out


def frobenius_perm(loop):
    """The permutation induced by x -> x^p on a loop built by this module."""
    backend = loop.zorn
    field = backend.field
    q = field.q
    X = backend.coords
    out = X.copy()
    # coordinate-wise p-th power via repeated squaring on code arrays
    def vpow(A, n):
        eng = backend.engine
        R = np.full_like(A, field.one)
        B = A.copy()
        while n:
            if n & 1:
                R = eng.vmul(R, B)
            B = eng.vmul(B, B)
            n >>= 1
        return R
    out = vpow(X, field.p)
    if backend.quotient:
        out = backend.engine.canon(out)
    from .permgrp import Perm
    return Perm(backend.lookup(backend.engine.pack(out)))


# ---------------------------------------------------------------------------
# vectorized generator closure


def closure_packed(q, generator_matrices, cap=_CLOSURE_ASSERT_LIMIT, quotient=True,
                   chunk=2_000_000):
    """Breadth-first multiplicative closure of Zorn matrices over GF(q),
    modulo {e,-e} when quotient is set.  Same round structure and intra-level
    canonical ordering as loops.closure, but batched.

    Returns the packed element array in discovery order.
    """
    field = field_of_order(q)
    eng = ZornEngine(field)
    space = field.q ** 8
    if space > 2 ** 26:
        raise ValueError("packed closure is limited to q <= 7")
    # membership is sign-insensitive in quotient mode (both packs marked),
    # so pair products skip the canonicalization entirely
    member = np.zeros(space, dtype=bool)

    def mark(rows):
        member[eng.pack(rows)] = True
        if quotient:
            member[eng.pack(eng.neg(rows))] = True

    def canon_rows(rows):
        return eng.canon(rows) if quotient else np.asarray(rows)

    seed_rows = [np.asarray(g.matrix.coords() if isinstance(g, UnitLoopElement)
                            else g.coords(), dtype=np.int64)
                 for g in generator_matrices]
    seed = canon_rows(np.stack(seed_rows))
    unit = canon_rows(eng.unit_row()[None, :])
    seed = np.concatenate([seed, unit], axis=0)
    packs = eng.pack(seed)
    _, first = np.unique(packs, return_index=True)
    packs = packs[np.sort(first)]

    elements = packs.copy()
    mark(eng.unpack(elements))
    frontier_start = 0
    while frontier_start < len(elements):
        frontier_end = len(elements)
        old = elements[:frontier_start]
        new = elements[frontier_start:frontier_end]
        pair_blocks = [(old, new), (new, old), (new, new)]
        found = []
        for A, B in pair_blocks:
            if len(A) == 0 or len(B) == 0:
                continue
            rowsA = eng.unpack(A)
            rowsB = eng.unpack(B)
            step = max(1, chunk // max(1, len(B)))
            for lo in range(0, len(A), step):
                take = min(step, len(A) - lo)
                X = np.repeat(rowsA[lo:lo + take], len(B), axis=0)
                Y = np.tile(rowsB, (take, 1))
                Z = eng.mul(X, Y)
                P = eng.pack(Z)
                fresh_mask = ~member[P]
                if fresh_mask.any():
                    Zf = canon_rows(Z[fresh_mask])
                    Pf = np.unique(eng.pack(Zf))
                    mark(eng.unpack(Pf))
                    found.append(Pf)
        if found:
            fresh_all = np.unique(np.concatenate(found))
            if len(elements) + len(fresh_all) > cap:
                raise ClosureCapExceeded("closure exceeded cap %d" % cap)
            elements = np.concatenate([elements, fresh_all])
        frontier_start = frontier_end
    return elements


def reachability_closure_certified(q, generator_matrices, quotient=True):
    """Subloop generated by the given matrices, via translation
    reachability plus a cardinality certificate.

    The reachable set R (products by generators on either side, from the
    generators and e) is contained in the generated subloop H.  Every
    element of R is checked to have norm one, so R is inside the norm-one
    loop; if |R| equals the independently enumerated number of norm-one
    (+-classes of) matrices, then R = H = M*(q) resp. M(q).  Returns
    (packed elements, certified: bool).  When the certificate fails the
    caller must fall back to the exhaustive pairwise closure.
    """
    field = field_of_order(q)
    eng = ZornEngine(field)

    def canon_rows(rows):
        return eng.canon(rows) if quotient else np.asarray(rows)

    gen_rows = np.stack([np.asarray(g.matrix.coords() if isinstance(g, UnitLoopElement)
                                    else g.coords(), dtype=np.int64)
                         for g in generator_matrices])
    if not (eng.norm(gen_rows) == field.one).all():
        raise ValueError("generators must have norm one")
    seed = np.concatenate([canon_rows(gen_rows),
                           canon_rows(eng.unit_row()[None, :])], axis=0)
    space = field.q ** 8
    member = np.zeros(space, dtype=bool)
    packs = np.unique(eng.pack(seed))
    member[packs] = True
    frontier = seed
    total = len(packs)
    while len(frontier):
        m = len(frontier)
        g = len(gen_rows)
        left = eng.mul(np.repeat(gen_rows, m, axis=0), np.tile(frontier, (g, 1)))
        right = eng.mul(np.tile(frontier, (g, 1)), np.repeat(gen_rows, m, axis=0))
        prods = canon_rows(np.concatenate([left, right], axis=0))
        P = eng.pack(prods)
        fresh = np.unique(P[~member[P]])
        member[fresh] = True
        total += len(fresh)
        frontier = eng.unpack(fresh)
    elements = np.flatnonzero(member)
    rows = eng.unpack(elements)
    if not (eng.norm(rows) == field.one).all():
        raise AssertionError("reachable set left the norm-one loop")
    expected = paige_order_formula(q) if quotient else unit_loop_size_formula(q)
    enumerated = _count_norm_one(field, quotient)
    if expected != enumerated:
        raise AssertionError("order formula disagrees with enumeration")
    return elements, total == enumerated


def _count_norm_one(field, quotient):
    """Number of norm-one matrices (or +-classes), counted directly from
    the solution structure of ab - alpha.beta = 1, without the formula."""
    q = field.q
    count = (q - 1) * q ** 6 + (q ** 3 - 1) * q ** 3
    if quotient and field.p != 2:
        count //= 2
    return count


def generator_closure_size(q, cap=_CLOSURE_ASSERT_LIMIT):
    """Size of the subloop of M*(q) generated by the standard triple.

    Small fields run the exhaustive pairwise closure; larger ones first try
    the certified reachability route and only fall back to the pairwise
    closure when the certificate does not apply.
    """
    gens = standard_generators(q)
    if q <= 3:
        return len(closure_packed(q, gens, cap=cap, quotient=True))
    elements, certified = reachability_closure_certified(q, gens, quotient=True)
    if certified:
        return len(elements)
    return len(closure_packed(q, gens, cap=cap, quotient=True))
