"""Finite loop engine: Cayley tables, translations, multiplication and inner
mapping groups, characteristic subloops, normality tests and normal closures,
Moufang/autotopism checks, isomorphism search and automorphism groups.

A loop is its Cayley table: FiniteLoop holds a validated table, and a loop
whose table and two division tables would not fit the memory budget is
refused when it is constructed.  The division tables are built only by the
checks that need them; construction, closures and the normal closures of
simple loops work on the table alone.  Element indices are the only
currency here; labels are carried for printing and file round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fields
from .fields import SAMPLE_SEED, UsageError, blocks, moufang_mode
from .permgrp import Perm, PermGroup, compose, invert, orbit


def require_table_fits(n):
    """Refuse, with UsageError, an n-element loop whose Cayley table and two
    division tables, 3 n^2 int32 cells, do not fit (n <= 3344 fit)."""
    fields.require_budget(12 * n * n, "needs table mode: the tables of a %d-element loop" % n)


def _require_loop_size(n):
    """ValueError for a loop of no elements, UsageError past the budget."""
    if n < 1:
        raise ValueError("a loop has at least one element, not %d" % n)
    require_table_fits(n)


class ClosureCapExceeded(RuntimeError):
    pass


class FiniteLoop:
    """A finite loop on indices 0..n-1, held as its validated Cayley table."""

    def __init__(self, n, labels=None, *, table):
        _require_loop_size(n)
        self.n = n
        self.labels = list(labels) if labels is not None else [str(i) for i in range(n)]
        if len(self.labels) != n:
            raise ValueError("need %d labels" % n)
        self._orders = None
        self._ldiv = None
        self._rdiv = None
        self.table = np.asarray(table, dtype=np.int32)
        if self.table.shape != (n, n):
            raise ValueError("table shape mismatch")
        self._validate_table()
        self.neutral = self._find_neutral_table()

    # -- construction helpers ------------------------------------------------

    def _validate_table(self):
        """The Latin property, on sorted copies of row blocks, then of
        column blocks, priced at 8 bytes a cell (the copy and the comparison
        take 5)."""
        T, n = self.table, self.n
        want = np.arange(n, dtype=np.int32)
        for s, e in blocks(n, 8 * n):
            if not (np.sort(T[s:e], axis=1) == want[None, :]).all():
                raise ValueError("table rows are not permutations (Latin property fails)")
        for s, e in blocks(n, 8 * n):
            if not (np.sort(T[:, s:e], axis=0) == want[:, None]).all():
                raise ValueError("table columns are not permutations (Latin property fails)")

    def _find_neutral_table(self):
        idx = np.arange(self.n, dtype=np.int32)
        for e in range(self.n):
            if (self.table[e] == idx).all() and (self.table[:, e] == idx).all():
                return e
        raise ValueError("no neutral element")

    # -- multiplication and division ------------------------------------------

    def mult(self, i, j):
        return int(self.table[i, j])

    @property
    def ldiv(self):
        """Table of x \\ y (solution of x*c = y): the table's rows inverted."""
        if self._ldiv is None:
            d = np.empty((self.n, self.n), dtype=np.int32)
            for s, e in blocks(self.n, 8 * self.n):
                invert(self.table[s:e], out=d[s:e])
            self._ldiv = d
        return self._ldiv

    @property
    def rdiv(self):
        """Table of x / y (solution of c*y = x): the table's columns inverted."""
        if self._rdiv is None:
            d = np.empty((self.n, self.n), dtype=np.int32)
            for s, e in blocks(self.n, 12 * self.n):
                d[:, s:e] = invert(self.table[:, s:e].T).T
            self._rdiv = d
        return self._rdiv

    def left_div(self, i, j):
        return int(self.ldiv[i, j])

    def right_div(self, i, j):
        return int(self.rdiv[i, j])

    def two_sided_inverses(self):
        """Array inv with x*inv[x] = inv[x]*x = e, or None if some element
        has distinct one-sided inverses."""
        inv = self.ldiv[:, self.neutral].copy()       # x \ e
        if not (self.rdiv[self.neutral, :] == inv).all():  # e / x
            return None
        return inv

    def power_order(self, x):
        """Least k >= 1 with the left power x^[k] = e."""
        e = self.neutral
        y = x
        k = 1
        while y != e:
            y = self.mult(x, y)
            k += 1
            if k > self.n:
                raise RuntimeError("power order exceeded loop size; not a loop?")
        return k

    def element_orders(self):
        if self._orders is None:
            self._orders = np.array([self.power_order(x) for x in range(self.n)],
                                    dtype=np.int32)
        return self._orders

    def __repr__(self):
        return "FiniteLoop(n=%d)" % self.n


# ---------------------------------------------------------------------------
# generation


# Bytes a chunk of the generic closure allots each pair, per coordinate of
# an element: its two operand rows, the product, mult's temporaries and the
# sort keys (tracemalloc peak of the 240 unit integrals in full chunks of
# 4096 pairs: about 42 with cayley.mul_batch), rounded up to a power of two.
_CLOSURE_PAIR_BYTES = 64


# Keys stay below this bound, so key * radix + digit cannot overflow int64.
_KEY_LIMIT = 2 ** 62


def _ranks(v):
    """The rank of each entry of v among its distinct values, and their
    number."""
    values, rank = np.unique(v, return_inverse=True)
    return rank, len(values)


def _row_keys(A):
    """One int64 per row of the 2-D int array A, ordered as the rows are
    lexicographically: the columns are the digits of a mixed radix over
    their value spans.  When the next radix would take the keys past 2^62,
    the keys so far are replaced by their ranks, and the column too if it
    is still too wide."""
    A = np.asarray(A, dtype=np.int64)
    key = np.zeros(len(A), dtype=np.int64)
    if not len(A):
        return key
    cols = A.T.copy()  # the digits are formed in place
    size = 1  # every key is below size
    for col, lo, hi in zip(cols, cols.min(axis=1).tolist(), cols.max(axis=1).tolist()):
        span = hi - lo + 1
        if size * span > _KEY_LIMIT:
            key, size = _ranks(key)
        if size * span > _KEY_LIMIT:
            col, span = _ranks(col)
        else:
            col -= lo
        key *= span
        key += col
        size *= span
    return key


def lex_unique(A):
    """The distinct rows of the 2-D int array A in lexicographic order, and
    the index among them of each row of A; one argsort of _row_keys(A)."""
    key = _row_keys(A)
    order = np.argsort(key)
    key = key[order]
    head = np.ones(len(A), dtype=bool)
    head[1:] = key[1:] != key[:-1]
    group = np.empty(len(A), dtype=np.int64)
    group[order] = np.cumsum(head) - 1
    return np.asarray(A).take(order[head], axis=0), group


def positions(table, rows):
    """Index in table, a 2-D array of distinct rows, of each of rows; -1
    where a row is absent."""
    _, group = lex_unique(np.concatenate([table, rows]))
    where = np.full(len(table) + len(rows), -1, dtype=np.int64)
    where[group[:len(table)]] = np.arange(len(table))
    return where[group[len(table):]]


def _level_products(mult, factors, start, end, t0, t1):
    """mult on the pairs t0..t1 of the closure level of factors[start:end],
    as rows: row r of the level, start <= r < end, holds the pairs (r, j)
    for j < end, then (i, r) for i < start."""
    t = np.arange(t0, t1)
    r = t // (end + start)
    t -= r * (end + start)
    r += start
    right = t >= end
    X = factors.take(np.where(right, t - end, r), axis=0)
    Y = factors.take(np.where(right, r, t), axis=0)
    return np.asarray(mult(X, Y), dtype=np.int64).reshape(t1 - t0, -1)


def closure(generators, mult, one, cap=100000):
    """Smallest multiplicatively closed set containing the generators and one.

    Elements are ints or equal-length rows of ints; mult(X, Y) takes two
    equal-length arrays of them and returns the array of products.
    Numbering is breadth first: level 0 is the deduplicated generators plus
    the neutral element, each later level holds the new products of pairs
    with at least one factor in the level before, in lexicographic order.
    A level runs in blocks of pairs, one mult call each, and
    ClosureCapExceeded is raised after the first chunk that takes the
    closure past cap elements.  Returns the element list (ints or tuples).
    """
    if not generators:
        raise ValueError("need at least one generator")
    seed = np.asarray(list(generators) + [one], dtype=np.int64)
    flat = seed.ndim == 1
    seed = seed.reshape(len(seed), -1)
    _, first = np.unique(lex_unique(seed)[1], return_index=True)
    elements = seed[np.sort(first)]
    pair_bytes = _CLOSURE_PAIR_BYTES * elements.shape[1]
    start = 0
    while start < len(elements):
        end = len(elements)
        factors = elements[:, 0] if flat else elements
        total = (end - start) * (end + start)
        known = elements
        for t0, t1 in blocks(total, pair_bytes):
            # one sort of the distinct known rows and the products; the
            # groups no known row reaches are the new elements
            rows, group = lex_unique(np.concatenate(
                [known, _level_products(mult, factors, start, end, t0, t1)]))
            new = np.ones(len(rows), dtype=bool)
            new[group[:len(known)]] = False
            known = np.concatenate([known, rows[new]])
            if len(known) > cap:
                raise ClosureCapExceeded("closure exceeded cap %d" % cap)
        elements = np.concatenate([elements, lex_unique(known[end:])[0]])
        start = end
    return elements[:, 0].tolist() if flat else [tuple(e) for e in elements.tolist()]


def closure_indices(loop, seed):
    """Subloop generated by the given indices (table mode).

    Each round marks the products of the members so far, gathering rows of
    T[cur, cur] in doubling blocks, and stops as soon as every element is
    marked: a closure that covers the loop early skips the rest of its
    round."""
    T = loop.table
    n = loop.n
    member = np.zeros(n, dtype=bool)
    member[[int(s) for s in seed]] = True
    member[loop.neutral] = True
    size = int(np.count_nonzero(member))
    while size < n:
        cur = np.flatnonzero(member)
        for s, e in blocks(len(cur), 16 * len(cur), doubling=True):
            member[T[cur[s:e, None], cur]] = True
            size = int(np.count_nonzero(member))
            if size == n:
                break
        if size == len(cur):
            break
    return np.flatnonzero(member)


def generating_sequence(loop):
    """Greedy small generating set: scan indices, keep those outside the
    closure so far.  Returns (gens, levels) with levels[i] = sorted element
    array of the subloop generated by gens[:i+1]."""
    gens = []
    levels = []
    cur = closure_indices(loop, [])
    for x in range(loop.n):
        if len(cur) == loop.n:
            break
        if x in cur:
            continue
        gens.append(x)
        cur = closure_indices(loop, gens)
        levels.append(cur)
    if len(cur) != loop.n:
        raise AssertionError("generating scan failed")
    return gens, levels


# ---------------------------------------------------------------------------
# translations and the associated groups


def left_translation(loop, x):
    """Permutation y -> x*y."""
    return Perm(loop.table[x, :], _checked=True)


def right_translation(loop, x):
    """Permutation y -> y*x."""
    return Perm(loop.table[:, x], _checked=True)


def mlt_group(loop):
    """Multiplication group <L_x, R_x : x in loop>."""
    gens = [left_translation(loop, x) for x in range(loop.n)]
    gens += [right_translation(loop, x) for x in range(loop.n)]
    return PermGroup(loop.n, gens)


def inner_generators(loop):
    """The standard generators of the inner mapping group as permutations:
    L_x L_y L_{yx}^-1, R_x R_y R_{xy}^-1 and R_x L_x^-1, for all x, y."""
    T, LD, RD = loop.table, loop.ldiv, loop.rdiv
    n = loop.n
    for x in range(n):
        yield Perm(LD[x, T[:, x]], _checked=True)  # R_x L_x^-1 : s -> x \ (s x)
        xs = T[x, :]
        yx = T[:, x]
        for y in range(n):
            yield Perm(LD[yx[y], T[y, xs]], _checked=True)   # s -> (yx) \ (y (x s))
        sx = T[:, x]
        for y in range(n):
            yield Perm(RD[T[sx, y], T[x, y]], _checked=True)  # s -> ((s x) y) / (x y)


def inner_mapping_group(loop):
    """Inn(loop) = <L_xL_yL_{yx}^-1, R_xR_yR_{xy}^-1, R_xL_x^-1>."""
    e = loop.neutral
    gens = []
    seen = set()
    for p in inner_generators(loop):
        if p(e) != e:
            raise AssertionError("inner generator moves the neutral element")
        if not p.is_identity() and p not in seen:
            seen.add(p)
            gens.append(p)
    return PermGroup(loop.n, gens)


# ---------------------------------------------------------------------------
# characteristic subloops


def commutant(loop):
    """Elements commuting with everything."""
    T = loop.table
    return [x for x in range(loop.n) if (T[x, :] == T[:, x]).all()]


def _nucleus_exact_one(loop, x):
    T = loop.table
    return bool((T[T[x, :], :] == T[x, T]).all()
                and (T[T[:, x], :] == T[:, T[x, :]]).all()
                and (T[T, x] == T[:, T[:, x]]).all())


def nucleus(loop, candidates=None):
    """Elements associating with all pairs in every position.

    A cheap prefilter on 64 seeded random pairs cuts the candidate list, then
    every survivor is checked exactly against all n^2 pairs, so the result
    is exact.
    """
    n, T = loop.n, loop.table
    if candidates is None:
        candidates = np.arange(n, dtype=np.int64)
    else:
        candidates = np.asarray(sorted(candidates), dtype=np.int64)
    rng = fields.Sampler(SAMPLE_SEED)
    alive = candidates
    for _ in range(64):
        if len(alive) == 0:
            return []
        y = rng.integers(n)
        z = rng.integers(n)
        alive = alive[(T[T[alive, y], z] == T[alive, T[y, z]])
                      & (T[T[y, alive], z] == T[y, T[alive, z]])
                      & (T[T[y, z], alive] == T[y, T[z, alive]])]
    return [int(x) for x in alive if _nucleus_exact_one(loop, int(x))]


def center(loop):
    """C(loop) intersected with the nucleus."""
    return nucleus(loop, candidates=commutant(loop))


# ---------------------------------------------------------------------------
# normality and simplicity


def _conjugation_images(loop, member, S):
    """The images of S outside member under the maps T_x: s -> x \\ (sx),
    from the first doubling block of x that has any, or None.  Row x of the
    left division is scattered from row x of the table, so no division table
    is built (a row takes at most 32 bytes per element)."""
    T, n = loop.table, loop.n
    for s, e in blocks(n, 32 * n, doubling=True):
        img = compose(T[S, s:e].T, invert(T[s:e]))
        fresh = img[~member[img]]
        if len(fresh):
            return fresh
    return None


def _apply_inner_images(loop, sub):
    """Some inner-map images of the index set sub outside it, or None when
    sub is fixed setwise by every inner mapping (table mode).

    The maps T_x go first, on the table alone (_conjugation_images); only
    when none of them moves sub are the division tables built for the
    sweep of L(x, y): s -> (yx) \\ (y(xs)) and R(x, y): s -> ((sx)y) / (xy),
    vectorized per x."""
    n = loop.n
    member = np.zeros(n, dtype=bool)
    member[sub] = True
    S = np.asarray(sub, dtype=np.int64)
    fresh = _conjugation_images(loop, member, S)
    if fresh is None:
        T, LD, RD = loop.table, loop.ldiv, loop.rdiv
        for x in range(n):
            phi = LD[T[:, x][:, None], T[:, T[x, S]]]
            rho = RD[T[T[S, x]], T[x, :][None, :]]
            pool = np.concatenate([phi.ravel(), rho.ravel()])
            fresh = pool[~member[pool]]
            if len(fresh):
                break
        else:
            return None
    return np.flatnonzero(np.bincount(fresh, minlength=n))


def is_normal(loop, sub):
    """Whether the subloop (given as an index set) is fixed setwise by
    every inner mapping."""
    sub = np.asarray(sorted(int(s) for s in sub), dtype=np.int64)
    fresh = _apply_inner_images(loop, sub)
    return fresh is None


def normal_closure(loop, seed_elems):
    """Smallest normal subloop containing the given indices: alternates
    multiplicative closure with sweeps of the inner-map generators."""
    sub = closure_indices(loop, seed_elems)
    while True:
        if len(sub) == loop.n:
            return sub
        fresh = _apply_inner_images(loop, sub)
        if fresh is None:
            return sub
        sub = closure_indices(loop, np.concatenate([sub, fresh]))


# ---------------------------------------------------------------------------
# identities


# Bytes a sampled Moufang check allots each triple: three int64 draws, the
# int32 products on both sides and their comparison (tracemalloc peak: 36
# per triple at 500000 triples of M*(3), 44 at 100000).  A chunk gets the
# whole budget, 524288 triples, so 100000 samples are one chunk.
_MOUFANG_SAMPLE_BYTES = 256


def moufang_violation(loop, samples=100000, seed=SAMPLE_SEED):
    """First violation of ((xy)x)z = x(y(xz)) or None, in moufang_mode.

    Sampled triples are drawn in chunks, each one (size, 3) draw from one
    fields.Sampler stream: the chunks draw the triples of a single draw."""
    n, T = loop.n, loop.table
    if moufang_mode(n, samples) == "exhaustive":
        for x in range(n):
            lhs = T[T[T[x, :], x], :]          # [y, z] -> ((xy)x)z
            rhs = T[x, T[:, T[x, :]]]          # [y, z] -> x(y(xz))
            bad = lhs != rhs
            if bad.any():
                return (x,) + divmod(int(bad.argmax()), n)
        return None
    rng = fields.Sampler(seed)
    for s, e in blocks(samples, _MOUFANG_SAMPLE_BYTES, part=1):
        X, Y, Z = rng.integers(n, size=(e - s, 3)).T
        bad = np.flatnonzero(T[T[T[X, Y], X], Z] != T[X, T[Y, T[X, Z]]])
        if len(bad):
            i = int(bad[0])
            return (int(X[i]), int(Y[i]), int(Z[i]))
    return None


def associativity_violation(loop):
    """Some triple with (xy)z != x(yz), or None (table mode)."""
    T = loop.table
    for x in range(loop.n):
        lhs = T[T[x, :], :]
        rhs = T[x, T]
        bad = lhs != rhs
        if bad.any():  # the first failing (y, z) in row-major order
            return (x,) + divmod(int(bad.argmax()), loop.n)
    return None


def _carries_products(T1, T2, alpha, beta, gamma, sub):
    """Whether alpha(x) * beta(y) in the table T2 is gamma(x * y in T1) for
    all x, y in the index array sub, compared in row blocks (the gathers,
    the gamma images and the comparison take at most 32 bytes a cell)."""
    A, B = alpha[sub], beta[sub]
    for s, e in blocks(len(sub), 32 * len(sub)):
        if not (T2[np.ix_(A[s:e], B)] == gamma[T1[np.ix_(sub[s:e], sub)]]).all():
            return False
    return True


def autotopism_check(loop, alpha, beta, gamma):
    """Whether x^alpha * y^beta = (xy)^gamma for all pairs."""
    T = loop.table
    return _carries_products(T, T, alpha.a, beta.a, gamma.a, np.arange(loop.n))


# ---------------------------------------------------------------------------
# isomorphisms


@dataclass
class LoopMorphismWitness:
    source: FiniteLoop
    target: FiniteLoop
    mapping: np.ndarray

    def verify(self):
        m = self.mapping
        n = self.source.n
        if sorted(map(int, m)) != list(range(self.target.n)) or n != self.target.n:
            return False
        return _carries_products(self.source.table, self.target.table, m, m, m,
                                 np.arange(n))


def _invariant_vector(loop):
    """Per-element isomorphism invariant: (power order, size of <x>)."""
    orders = loop.element_orders()
    sizes = np.array([len(closure_indices(loop, [x])) for x in range(loop.n)],
                     dtype=np.int32)
    return orders, sizes


def _derivation_schedules(loop, gens, levels):
    """For each generator prefix, products (a, b -> c) that reach every
    element of the corresponding subloop from the prefix, in BFS order."""
    T = loop.table
    schedules = []
    for gi in range(len(gens)):
        known = set([loop.neutral] + gens[: gi + 1])
        order = [loop.neutral] + gens[: gi + 1]
        steps = []
        target = len(levels[gi])
        while len(known) < target:
            grew = False
            snapshot = list(order)
            for a in snapshot:
                for b in snapshot:
                    c = int(T[a, b])
                    if c not in known:
                        known.add(c)
                        order.append(c)
                        steps.append((a, b, c))
                        grew = True
            if not grew:
                raise AssertionError("derivation schedule failed to close")
        schedules.append((steps, np.asarray(levels[gi], dtype=np.int64)))
    return schedules


def _invariant_candidates(o1, s1, o2, s2, gens):
    """For each generator, the targets whose invariants match its own."""
    return [[h for h in range(len(o2)) if o2[h] == o1[g] and s2[h] == s1[g]]
            for g in gens]


def _extender(L1, L2, gens, levels, candidates):
    """First-found backtracking over generator images.

    extend(level, trial, images) tries each h of images (default: the
    candidates of that level) as the image of gens[level], completes the map
    on the level's subloop through its derivation schedule, checks that it
    is injective and a homomorphism there, recurses, and at the leaf checks
    the whole table.  Returns the first complete map, or None."""
    T1, T2 = L1.table, L2.table
    schedules = _derivation_schedules(L1, gens, levels)

    def extend(level, trial, images=None):
        if level == len(gens):
            return trial if _carries_products(T1, T2, trial, trial, trial,
                                              np.arange(len(trial))) else None
        g = gens[level]
        steps, sub = schedules[level]
        for h in candidates[level] if images is None else images:
            if (trial == h).any():
                continue
            t = trial.copy()
            t[g] = h
            ok = True
            for (a, b, c) in steps:
                v = T2[t[a], t[b]]
                prev = t[c]
                if prev < 0:
                    t[c] = v
                elif prev != v:
                    ok = False
                    break
            if not ok:
                continue
            if np.bincount(t[sub]).max() > 1:
                continue
            if not _carries_products(T1, T2, t, t, t, sub):
                continue
            m = extend(level + 1, t)
            if m is not None:
                return m
        return None

    return extend


def find_isomorphism(L1, L2):
    """A verified isomorphism witness, or None after exhausting the search."""
    n = L1.n
    if n != L2.n:
        return None
    o1, s1 = _invariant_vector(L1)
    o2, s2 = _invariant_vector(L2)
    if sorted(zip(map(int, o1), map(int, s1))) != sorted(zip(map(int, o2), map(int, s2))):
        return None
    gens, levels = generating_sequence(L1)
    extend = _extender(L1, L2, gens, levels,
                       _invariant_candidates(o1, s1, o2, s2, gens))
    start = np.full(n, -1, dtype=np.int64)
    start[L1.neutral] = L2.neutral
    m = extend(0, start)
    if m is None:
        return None
    witness = LoopMorphismWitness(L1, L2, m.astype(np.int32))
    assert witness.verify()
    return witness


def automorphisms(loop):
    """Aut(loop) as a PermGroup on the element indices (table mode).

    The base is the generating sequence g_0..g_{k-1}.  From the deepest
    level up, level i fixes the subloop <g_0..g_{i-1}> pointwise and tries
    each invariant-matching image h of g_i outside the orbit of g_i under
    the generators found so far; the automorphism with g_i -> h that the
    backtracking of find_isomorphism finds first becomes a strong generator.
    When no automorphism reaches h, none reaches the orbit of h either.
    |Aut| is the product of the basic orbit lengths; Schreier-Sims on the
    strong generators must give the same order."""
    n = loop.n
    gens, levels = generating_sequence(loop)
    orders, sizes = _invariant_vector(loop)
    candidates = _invariant_candidates(orders, sizes, orders, sizes, gens)
    extend = _extender(loop, loop, gens, levels, candidates)
    strong = []

    def point_orbit(x):
        S = np.array([p.a for p in strong], dtype=np.int32).reshape(-1, n)
        return set(np.frombuffer(b"".join(orbit([x], S)[0]), np.int32).tolist())

    order = 1
    for i in reversed(range(len(gens))):
        fixed = levels[i - 1] if i else [loop.neutral]
        trial = np.full(n, -1, dtype=np.int64)
        trial[fixed] = fixed
        basic = point_orbit(gens[i])
        dead = set()
        for h in candidates[i]:
            if h in basic or h in dead:
                continue
            m = extend(i, trial, [h])
            if m is None:
                dead |= point_orbit(h)
                continue
            strong.append(Perm(m))
            basic = point_orbit(gens[i])
        order *= len(basic)
    group = PermGroup(n, strong)
    if group.order() != order:
        raise AssertionError("Schreier-Sims order %d != product of basic "
                             "orbit lengths %d" % (group.order(), order))
    return group


# ---------------------------------------------------------------------------
# small constructors and file format


def cyclic_loop(n):
    require_table_fits(n)
    idx = np.arange(n, dtype=np.int32)
    table = np.add.outer(idx, idx)
    return FiniteLoop(n, table=np.remainder(table, n, out=table))


def direct_product(L1, L2):
    n1, n2 = L1.n, L2.n
    T1, T2 = L1.table, L2.table
    require_table_fits(n1 * n2)
    T = np.empty((n1 * n2, n1 * n2), dtype=np.int32)
    for a in range(n1):
        for b in range(n2):
            i = a * n2 + b
            T[i, :] = (np.repeat(T1[a, :], n2) * n2
                       + np.tile(T2[b, :], n1))
    labels = ["(%s,%s)" % (x, y) for x in L1.labels for y in L2.labels]
    return FiniteLoop(n1 * n2, labels=labels, table=T)


def loop_from_perm_group(group):
    """The underlying loop (group) of a permutation group, by enumeration."""
    elems = group.elements(limit=5000)
    index = {p: i for i, p in enumerate(elems)}
    n = len(elems)
    T = np.empty((n, n), dtype=np.int32)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            T[i, j] = index[p * q]
    return FiniteLoop(n, table=T)


def _open_user_path(path, mode="r"):
    """open() for a path named on the command line: a path that cannot be
    opened, missing or a directory, is a UsageError."""
    try:
        return open(path, mode)
    except OSError as e:
        raise UsageError(str(e)) from None


def write_table(loop, path):
    """Cayley table file: n, labels, then n rows of indices."""
    T = loop.table
    with _open_user_path(path, "w") as fh:
        fh.write("%d\n" % loop.n)
        fh.write(" ".join(loop.labels) + "\n")
        for row in T:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def read_table(path):
    """The loop of a write_table file; UsageError on a malformed file, on rows
    that are no loop table, or on a size past the budget (before any row).
    Rows are parsed one at a time into the int32 table."""
    with _open_user_path(path) as fh:
        try:
            n = int(fh.readline())
            _require_loop_size(n)
            labels = fh.readline().split()
            table = np.empty((n, n), dtype=np.int32)
            for row in table:
                cells = fh.readline().split()
                if len(cells) != n:
                    raise ValueError("a row of %d cells, not %d" % (len(cells), n))
                row[:] = cells
            return FiniteLoop(n, labels=labels, table=table)
        except UsageError:
            raise
        except (ValueError, OverflowError) as e:  # undecodable text included
            raise UsageError("%s is not a loop table: %s" % (path, e)) from None
