"""Finite loop engine: Cayley tables, translations, multiplication and inner
mapping groups, characteristic subloops, normality tests and normal closures,
Moufang/autotopism checks, isomorphism search by map propagation and
automorphism groups.

A loop is its Cayley table: FiniteLoop holds a validated table, and a loop
whose table and two division tables would not fit the memory budget is
refused when it is constructed.  The division tables are built only by the
checks that need them; construction, closures and the normal closures of
simple loops work on the table alone.  Element indices are the only
currency here; labels are carried for printing and file round-trips.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import fields
from .fields import SAMPLE_SEED, UsageError, blocks, moufang_mode
from .permgrp import Perm, PermGroup, compose, invert, orbit, row_lookup


def require_table_fits(n):
    """Refuse, with UsageError, an n-element loop whose Cayley table and two
    division tables, 3 n^2 int32 cells, do not fit (n <= 3344 fit)."""
    fields.require_budget(12 * n * n, "needs table mode: the tables of a %d-element loop" % n)


def _require_loop_size(n):
    """ValueError for a loop of no elements, UsageError past the budget."""
    if n < 1:
        raise ValueError("a loop has at least one element, not %d" % n)
    require_table_fits(n)


def require_latin(T):
    """ValueError unless the n x n array T is a Latin square on 0..n-1,
    checked on sorted copies of row blocks, then of column blocks, priced at
    8 bytes a cell (the copy and the comparison take 5)."""
    n = len(T)
    want = np.arange(n, dtype=np.int32)
    for s, e in blocks(n, 8 * n):
        if not (np.sort(T[s:e], axis=1) == want[None, :]).all():
            raise ValueError("table rows are not permutations (Latin property fails)")
    for s, e in blocks(n, 8 * n):
        if not (np.sort(T[:, s:e], axis=0) == want[:, None]).all():
            raise ValueError("table columns are not permutations (Latin property fails)")


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
        require_latin(self.table)
        self.neutral = self._find_neutral_table()

    # -- construction helpers ------------------------------------------------

    def _find_neutral_table(self):
        idx = np.arange(self.n, dtype=np.int32)
        for e in range(self.n):
            if (self.table[e] == idx).all() and (self.table[:, e] == idx).all():
                return e
        raise ValueError("no neutral element")

    # -- multiplication and division ------------------------------------------

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

    def two_sided_inverses(self):
        """Array inv with x*inv[x] = inv[x]*x = e, or None if some element
        has distinct one-sided inverses."""
        inv = self.ldiv[:, self.neutral].copy()       # x \ e
        if not (self.rdiv[self.neutral, :] == inv).all():  # e / x
            return None
        return inv

    def element_orders(self):
        """Per element x, the least k >= 1 with the left power x^[k] = e
        (_left_power_walk)."""
        if self._orders is None:
            self._orders = _left_power_walk(self, np.arange(self.n))
        return self._orders

    def __repr__(self):
        return "FiniteLoop(n=%d)" % self.n


def _left_power_walk(loop, x, marks=None):
    """The orders of the elements x: their left powers x^[k] = x x^[k-1]
    step at once, one gather a step, until each meets e.  With marks, row i
    is set at every left power of x[i]."""
    # L_x is a permutation, so the walk from e comes back to e within n steps
    orders = np.zeros(len(x), dtype=np.int32)
    rows, power, k = np.arange(len(x)), x, 1
    while len(rows):
        if marks is not None:
            marks[rows, power] = True
        done = power == loop.neutral
        orders[rows[done]] = k
        rows, power = rows[~done], power[~done]
        power, k = loop.table[x[rows], power], k + 1
    return orders


# ---------------------------------------------------------------------------
# generation


_INT32 = np.iinfo(np.int32)


def _int32_rows(rows):
    """rows as an int32 array; ValueError for an entry past int32, which
    orbit's int32 rows would wrap."""
    A = np.asarray(rows, dtype=np.int64)
    if A.size and (A.min() < _INT32.min or A.max() > _INT32.max):
        raise ValueError("row entries past int32, from %d to %d" % (A.min(), A.max()))
    return A.astype(np.int32)


def closure(generators, mult, one, limit=None):
    """The rows reachable from one by the maps x -> g x and x -> x g, g among
    the generators: one permgrp.orbit call, so the rows come breadth first,
    one's row first, each row's images in the order g_0 x, x g_0, g_1 x, ...

    Elements are equal-length rows of ints, and mult(X, Y) takes two (m, w)
    int64 arrays of them and returns the (m, w) products.  The set lies in
    the subloop the generators and one generate; a caller that needs all of
    it certifies it, by its count, say.  Returns the (N, w) int64 array of
    the rows; ValueError for a row past int32 or past limit rows."""
    one = _int32_rows(one).reshape(1, -1)
    G = _int32_rows(generators).reshape(-1, one.shape[1]).astype(np.int64)
    k = len(G)

    def images(X):
        Xs, Gs = np.repeat(X.astype(np.int64), k, axis=0), np.tile(G, (len(X), 1))
        products = np.stack([mult(Gs, Xs), mult(Xs, Gs)], axis=1)
        return _int32_rows(products).reshape(len(X), 2 * k, X.shape[1])

    rows = orbit(one, images, limit)[0]
    return np.frombuffer(b"".join(rows), np.int32).reshape(len(rows), -1).astype(np.int64)


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


# Bytes a sampled Moufang check allots each triple: the sampler's words,
# three int64 draws, the int32 products on both sides and their comparison
# (tracemalloc peak: 60 per triple in one chunk of 100000 triples of Z(513),
# 84 in chunks of 16384).  A chunk is a working block, 16384 triples.
_MOUFANG_SAMPLE_BYTES = 128


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
    for s, e in blocks(samples, _MOUFANG_SAMPLE_BYTES):
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
    """Per-element isomorphism invariant: (power order, size of <x>).  x and
    y with the same left powers generate the same subloop, so one closure
    runs per distinct set, marked by the order walk in priced blocks."""
    # each of x and y lies in the other's powers; the sets are kept packed
    # eight elements a byte, and a block's bool rows and their packed copy
    # take 2 bytes an element
    n = loop.n
    orders = np.empty(n, dtype=np.int32)
    packed = np.empty((n, -(-n // 8)), dtype=np.uint8)
    for s, e in blocks(n, 2 * n):
        marks = np.zeros((e - s, n), dtype=bool)
        orders[s:e] = _left_power_walk(loop, np.arange(s, e), marks)
        packed[s:e] = np.packbits(marks, axis=1)
    _, first, kind = np.unique(packed, axis=0, return_index=True, return_inverse=True)
    sizes = np.array([len(closure_indices(loop, [x])) for x in first.tolist()],
                     dtype=np.int32)
    return orders, sizes[kind.ravel()]


def _invariant_candidates(o1, s1, o2, s2, gens):
    """For each generator, the targets whose invariants match its own."""
    return [[h for h in range(len(o2)) if o2[h] == o1[g] and s2[h] == s1[g]]
            for g in gens]


def _propagate(T1, T2, t, old, fresh):
    """Extend the partial map t (int64, -1 where unset) in place to the
    subloop its set entries generate, by t(xy) = t(x) t(y) in the table T2;
    False at the first product whose image disagrees with one already
    mapped.

    Semi-naive rounds: fresh holds the entries mapped in the last round and
    old those mapped before it (at the start, set entries whose products t
    already carries), so a round forms fresh x (old, fresh) and old x fresh,
    and every product outside the first old x old is mapped or checked
    exactly once.  Rows go in blocks at 32 bytes a cell, as _carries_products."""
    while len(fresh):
        known = np.concatenate([old, fresh])
        mapped = t >= 0
        for rows, cols in ((fresh, known), (old, fresh)):
            for s, e in blocks(len(rows), 32 * len(cols)):
                P = T1[rows[s:e, None], cols]
                V = T2[t[rows[s:e, None]], t[cols]]
                unset = t[P] < 0
                t[P[unset]] = V[unset]
                if (t[P] != V).any():
                    return False
        old, fresh = known, np.flatnonzero((t >= 0) & ~mapped)
    return True


def _extender(L1, L2, gens, levels, candidates):
    """First-found backtracking over generator images.

    extend(level, trial, images) tries each h of images (default: the
    candidates of that level) as the image of gens[level], extends the map
    to the level's subloop by _propagate, checks that it is injective there
    and recurses; the trial carries the products of its set entries, so
    only those with gens[level] are formed.  The last level's subloop is the
    whole loop, so a map that reaches the leaf carries every product of the
    table.  Returns the first complete map, or None."""
    T1, T2 = L1.table, L2.table

    def extend(level, trial, images=None):
        if level == len(gens):
            return trial
        old, fresh = np.flatnonzero(trial >= 0), np.array([gens[level]])
        for h in candidates[level] if images is None else images:
            if (trial == h).any():
                continue
            t = trial.copy()
            t[fresh] = h
            if not _propagate(T1, T2, t, old, fresh) or np.bincount(t[levels[level]]).max() > 1:
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
    if not witness.verify():
        raise AssertionError("the isomorphism found does not carry the products")
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
    """The underlying loop (group) of a permutation group, by enumeration:
    row i of the table looks up the products of element i with every
    element among the elements, in row blocks at 16 bytes an image."""
    E = np.stack([p.a for p in group.elements(limit=5000)])
    n, find = len(E), row_lookup(E)
    T = np.empty((n, n), dtype=np.int32)
    for s, e in blocks(n, 16 * E.size):
        T[s:e] = find(compose(E[s:e, None, :], E))
    return FiniteLoop(n, table=T)


@contextmanager
def _open_user_path(path, mode="r"):
    """open() for a path named on the command line: a path that cannot be
    opened (missing or a directory), read or written (a full device) is a
    UsageError."""
    try:
        with open(path, mode) as fh:
            yield fh
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
