"""Construction of the norm-one loops M(q) and the Paige loops M*(q).

Elements are rows of 8 field codes in the coordinate order
(a, alpha1..alpha3, beta1..beta3, b).  The engine below runs the Zorn
product on whole coordinate blocks at once, which keeps exhaustive
enumeration (q <= 5), generator closures and the sum-of-two-units
decomposition fast.  M*(q) elements are the
lexicographically smaller member of {x, -x} under the field's canonical
element order, compared coordinate by coordinate from a to b.
"""

from __future__ import annotations

import numpy as np

from . import loops
from .composition import ZornMatrix
from .fields import UsageError, field_of_order, prime_power, primitive_element
from .loops import FiniteLoop, ClosureCapExceeded

_EXHAUSTIVE_Q = 5
_CLOSURE_ASSERT_LIMIT = 100000


class ZornEngine:
    """Vectorized Zorn-matrix arithmetic on (..., 8) arrays of field codes.

    Three fused kernels: plain modular arithmetic for prime fields, XOR
    addition plus a multiplication-table gather in characteristic 2, and
    full table gathers otherwise.  Work is done in int32 with one reduction
    per output coordinate, which is what keeps 10^9-pair closures viable;
    prime fields whose sums of four products pass int32 (p > 23171) work in
    int64.  Extension fields need the field's lookup tables: past
    fields._TABLE_LIMIT they are refused with UsageError.
    """

    def __init__(self, field):
        self.field = field
        q = field.q
        self._prime = field.k == 1
        self._char2 = field.p == 2 and field.k > 1
        if not self._prime and not field._has_tables:
            raise UsageError("the Zorn engine needs lookup tables, which %r "
                             "is too large to build" % (field,))
        rank = field._rank.astype(np.int64)
        unrank = np.empty_like(rank)
        unrank[rank] = np.arange(q, dtype=np.int64)
        self._rank_tab = rank
        self._unrank_tab = unrank
        self._weights = (q ** np.arange(7, -1, -1, dtype=np.int64)
                         if q ** 8 <= 2 ** 62 else None)
        self._work = np.int32 if 4 * (q - 1) ** 2 < 2 ** 31 else np.int64
        if not self._prime:
            self._MUL32 = field.MUL.astype(np.int32)
            self._ADD32 = field.ADD.astype(np.int32)
            self._NEG32 = field.NEG.astype(np.int32)
            self._INV32 = field.INV.astype(np.int32)

    def _cols(self, X):
        X = np.asarray(X)
        return [np.ascontiguousarray(X[..., i], dtype=self._work) for i in range(8)]

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

    def vinv(self, A):
        """Inverses of nonzero codes (what a zero gives is unspecified); a
        prime field takes A^(p-2) by repeated squaring, with no table."""
        if not self._prime:
            return self._INV32[A]
        p = self.field.p
        base = np.asarray(A, dtype=np.int64)
        out = np.ones_like(base)
        n = p - 2
        while n:
            if n & 1:
                out = out * base % p
            base = base * base % p
            n >>= 1
        return out

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


# Bytes per row for decompose_batch plus the cli's verdict on its result:
# 327-396 peak measured with tracemalloc at q = 3, 4, 5 and 65537, and about
# 600 of peak RSS.  Callers size chunks from it; `decompose --q 5
# --exhaustive` then peaks at 52 MB RSS (71 MB at 2048, 110 MB at 1024).
DECOMPOSE_ROW_BYTES = 4096


def decompose_batch(engine, X):
    """Split every row x of the (N, 8) code array X into u + v with
    det(u) = det(v) = 1: composition.decompose_sum_two_units on whole
    arrays, giving the same u on every row.

    Rows with beta != 0 solve gamma.beta = a + b - ab + alpha.beta on the
    first nonzero coordinate of beta and take for delta the first reduced
    echelon null vector of [gamma; alpha], so u = [1|gamma|delta|1].  Rows
    with beta = 0 != alpha do the same with the two vector slots swapped, and
    rows with alpha = beta = 0 take u = [a|e1|-e1|0].  Returns (U, V).
    """
    e = engine
    X = np.asarray(X, dtype=np.int64)
    rows = np.arange(len(X))
    a, alpha, beta, b = X[:, 0], X[:, 1:4], X[:, 4:7], X[:, 7]
    swap = ~beta.any(axis=1)
    split = swap & ~alpha.any(axis=1)
    solved = np.where(swap[:, None], alpha, beta)  # the slot gamma is solved on
    other = np.where(swap[:, None], beta, alpha)
    target = e.vadd(e.vsub(e.vadd(a, b), e.vmul(a, b)), e.dot3(alpha, beta))
    first = (solved != 0).argmax(axis=1)
    gamma = np.zeros_like(solved)
    gamma[rows, first] = e.vmul(target, e.vinv(solved[rows, first]))
    delta = _first_null_vectors(e, np.stack([gamma, other], axis=1))
    U = np.empty_like(X)
    U[:, 0] = U[:, 7] = e.field.one
    U[:, 1:4] = np.where(swap[:, None], delta, gamma)
    U[:, 4:7] = np.where(swap[:, None], gamma, delta)
    U[split, :] = e.field.zero
    U[split, 0] = a[split]
    U[split, 1] = e.field.one
    U[split, 4] = e.vneg(e.field.one)
    return U, e.vsub(X, U)


def _first_null_vectors(engine, M):
    """For each 2 x 3 matrix of the stack M, the first vector of the reduced
    echelon basis of its null space, as composition._nullspace_first gives
    it: fields.rref on every matrix at once, one column at a time."""
    e = engine
    M = M.copy()
    rows = np.arange(len(M))
    rank = np.zeros(len(M), dtype=np.int64)
    pivot_row = np.full((len(M), 3), -1)
    for c in range(3):
        up = (rank == 0) & (M[:, 0, c] == 0) & (M[:, 1, c] != 0)
        M[up] = M[up, ::-1]
        r = np.minimum(rank, 1)
        has = (rank < 2) & (M[rows, r, c] != 0)
        h, r = rows[has], r[has]
        piv = e.vmul(M[h, r], e.vinv(M[h, r, c])[:, None])
        M[h, r] = piv
        M[h, 1 - r] = e.vsub(M[h, 1 - r], e.vmul(M[h, 1 - r, c][:, None], piv))
        pivot_row[h, c] = r
        rank[has] += 1
    free = (pivot_row < 0).argmax(axis=1)  # rank <= 2 leaves a free column
    vec = np.zeros((len(M), 3), dtype=np.int64)
    vec[rows, free] = e.field.one
    for c in range(3):
        h = rows[pivot_row[:, c] >= 0]
        vec[h, c] = e.vneg(M[h, pivot_row[h, c], free[h]])
    return vec


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
    (packed) order.  Size q^3(q^4-1); UsageError past q = _EXHAUSTIVE_Q,
    before anything is allocated."""
    if field.q > _EXHAUSTIVE_Q:
        raise UsageError("exhaustive enumeration is limited to q <= %d" % _EXHAUSTIVE_Q)
    eng = ZornEngine(field)
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

    def neutral_index(self):
        e = self.engine.unit_row()
        return int(self.lookup(self.engine.pack(e[None, :]))[0])


def _attach_backend(loop, backend):
    loop.zorn = backend
    return loop


def unit_loop(q):
    """M(q): all norm-one Zorn matrices under the Zorn product."""
    field = field_of_order(q)
    coords = enumerate_unit_coords(field)
    backend = _PaigeBackend(field, coords, quotient=False)
    n = len(coords)
    loop = FiniteLoop(n, labels=backend.labels(), batch_fn=backend.mul_idx,
                      neutral=backend.neutral_index())
    # inverse = conjugate; spot-verified here for the whole loop
    eng = backend.engine
    prods = eng.mul(coords, eng.conj(coords))
    if not (prods == eng.unit_row()[None, :]).all():
        raise AssertionError("x * conj(x) != e for some norm-one x")
    return _attach_backend(loop, backend)


def paige_loop(q):
    """M*(q): M(q) modulo {e, -e}, on canonical +- representatives."""
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
                      neutral=backend.neutral_index())
    return _attach_backend(loop, backend)


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


def frobenius_map(q, elem):
    """Coordinate-wise p-th power on a Zorn matrix."""
    return ZornMatrix.from_coords(elem.field,
                                  tuple(elem.field.frobenius(c) for c in elem.coords()))


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
# generator closures: one breadth-first engine over packed rows

# Peak bytes measured with tracemalloc: per product in a batch (operand
# rows, the engine's int32 columns and temporaries, the packs; 256 at q = 3,
# 4 and 7) and per element of the closure (the discovery array, level merges
# and frontier rows; 72-75 at q = 5 and 7).
_PRODUCT_BYTES = 256
_ELEMENT_BYTES = 80


def _require_closure_fits(q):
    """UsageError unless q is a prime power and a closure inside M*(q) fits
    loops.MEMORY_BUDGET: the q^8-byte membership bitmap and _ELEMENT_BYTES
    per element of M*(q) get three quarters, product batches the last
    quarter.  Read from q alone, before any field table is built."""
    prime_power(q)
    need = q ** 8 + _ELEMENT_BYTES * paige_order_formula(q)
    if 4 * need > 3 * loops.MEMORY_BUDGET:
        raise UsageError("a generator closure in M*(%d) needs %d bytes, past "
                         "3/4 of the memory budget of %d bytes"
                         % (q, need, loops.MEMORY_BUDGET))


def _closure(q, generator_matrices, pairwise):
    """Breadth-first closure in M*(q) of the generator matrices and e.

    Each level multiplies the frontier (the elements found by the level
    before) by all known elements on both sides when pairwise, else by the
    generators on both sides, in batches sized from the memory budget.
    Membership is one bitmap over packed rows with x and -x both marked, so
    a product is canonicalized only once it is found fresh; every element
    found is checked to have norm one.  Returns the canonical packs in
    discovery order: the seed (generators, then e, first occurrence kept),
    then each level sorted.
    """
    _require_closure_fits(q)
    field = field_of_order(q)
    eng = ZornEngine(field)
    gens = np.stack([np.asarray(g.coords(), dtype=np.int64)
                     for g in generator_matrices])
    if not (eng.norm(gens) == field.one).all():
        raise ValueError("generators must have norm one")
    batch = max(1, loops.MEMORY_BUDGET // 4 // _PRODUCT_BYTES)
    member = np.zeros(q ** 8, dtype=bool)

    def fresh(Z):
        """Sorted canonical packs of the rows of Z not yet members, marked
        and checked to have norm one."""
        Z = Z[~member[eng.pack(Z)]]
        P = np.unique(eng.pack(eng.canon(Z)))
        rows = eng.unpack(P)
        if not (eng.norm(rows) == field.one).all():
            raise AssertionError("closure left the norm-one loop")
        member[P] = True
        member[eng.pack(eng.neg(rows))] = True
        return P

    seed = eng.pack(eng.canon(np.concatenate([gens, eng.unit_row()[None, :]])))
    _, first = np.unique(seed, return_index=True)
    elements = seed[np.sort(first)]
    fresh(eng.unpack(elements))
    start = 0
    while start < len(elements):
        new = eng.unpack(elements[start:])
        if pairwise:
            old = eng.unpack(elements[:start])
            blocks = [(old, new), (new, old), (new, new)]
        else:
            blocks = [(gens, new), (new, gens)]
        found = []
        for A, B in blocks:
            bstep = max(1, min(len(B), batch))
            astep = max(1, batch // bstep)
            for b0 in range(0, len(B), bstep):
                Bc = B[b0:b0 + bstep]
                for a0 in range(0, len(A), astep):
                    Ac = A[a0:a0 + astep]
                    found.append(fresh(eng.mul(np.repeat(Ac, len(Bc), axis=0),
                                               np.tile(Bc, (len(Ac), 1)))))
        start = len(elements)
        elements = np.concatenate([elements] + found)
        elements[start:].sort()
        if pairwise and len(elements) > _CLOSURE_ASSERT_LIMIT:
            raise ClosureCapExceeded("closure exceeded cap %d" % _CLOSURE_ASSERT_LIMIT)
    return elements


def closure_packed(q, generator_matrices):
    """Breadth-first multiplicative closure of norm-one Zorn matrices over
    GF(q) modulo {e,-e}, multiplying every pair.  Same round structure and
    intra-level canonical ordering as loops.closure, but batched.

    Returns the packed element array in discovery order.
    """
    return _closure(q, generator_matrices, pairwise=True)


def reachability_closure_certified(q, generator_matrices):
    """Subloop of M*(q) generated by the given matrices, via translation
    reachability plus a cardinality certificate.

    The reachable set R (products by generators on either side, from the
    generators and e) is contained in the generated subloop H.  Every
    element of R is checked to have norm one, so R is inside M*(q); if |R|
    equals the independently counted number of +-classes of norm-one
    matrices, then R = H = M*(q).  Returns (sorted packed elements,
    certified: bool).  When the certificate fails the caller must fall back
    to the exhaustive pairwise closure.
    """
    elements = np.sort(_closure(q, generator_matrices, pairwise=False))
    enumerated = _count_norm_one(generator_matrices[0].field)
    if paige_order_formula(q) != enumerated:
        raise AssertionError("order formula disagrees with enumeration")
    return elements, len(elements) == enumerated


def _count_norm_one(field):
    """Number of +-classes of norm-one matrices, counted directly from the
    solution structure of ab - alpha.beta = 1, without the formula."""
    q = field.q
    count = (q - 1) * q ** 6 + (q ** 3 - 1) * q ** 3
    if field.p != 2:
        count //= 2
    return count


def generator_closure_size(q):
    """Size of the subloop of M*(q) generated by the standard triple.

    Small fields run the exhaustive pairwise closure; larger ones first try
    the certified reachability route and only fall back to the pairwise
    closure when the certificate does not apply.  A q past the memory
    budget is refused before the generators are built.
    """
    _require_closure_fits(q)
    gens = standard_generators(q)
    if q <= 3:
        return len(closure_packed(q, gens))
    elements, certified = reachability_closure_certified(q, gens)
    if certified:
        return len(elements)
    return len(closure_packed(q, gens))
