"""Finite loop engine: Cayley tables, translations, multiplication and inner
mapping groups, characteristic subloops, normality and simplicity tests,
Moufang/autotopism checks, and isomorphism search.

Loops at or below _TABLE_LIMIT elements carry a full numpy Cayley table plus
left/right division tables; larger loops run off a batched multiplication
oracle.  Element indices are the only currency here; labels are carried for
printing and file round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .permgrp import Perm, PermGroup

_TABLE_LIMIT = 2048
SAMPLE_SEED = 0x5EED
_IDENTITY_SAMPLE_LIMIT = 512  # exhaustive identity checks up to this size


class ClosureCapExceeded(RuntimeError):
    pass


class FiniteLoop:
    """A finite loop on indices 0..n-1."""

    def __init__(self, n, labels=None, table=None, batch_fn=None,
                 neutral=None, ldiv_fn=None, rdiv_fn=None, validate=True):
        self.n = n
        self.labels = list(labels) if labels is not None else [str(i) for i in range(n)]
        if len(self.labels) != n:
            raise ValueError("need %d labels" % n)
        self._batch_fn = batch_fn
        self._ldiv_fn = ldiv_fn
        self._rdiv_fn = rdiv_fn
        self._orders = None
        if table is not None:
            self.table = np.asarray(table, dtype=np.int32)
            if self.table.shape != (n, n):
                raise ValueError("table shape mismatch")
        elif n <= _TABLE_LIMIT:
            self.table = self._build_table()
        else:
            if batch_fn is None:
                raise ValueError("loops above %d elements need a multiplication oracle"
                                 % _TABLE_LIMIT)
            self.table = None
        if self.table is not None:
            self._ldiv = None
            self._rdiv = None
            if validate:
                self._validate_table()
            if neutral is None:
                neutral = self._find_neutral_table()
        else:
            if neutral is None:
                raise ValueError("oracle-backed loops must name their neutral element")
            if validate:
                self._validate_neutral_oracle(neutral)
        self.neutral = int(neutral)

    # -- construction helpers ------------------------------------------------

    def _build_table(self):
        rows = []
        idx = np.arange(self.n, dtype=np.int64)
        for i in range(self.n):
            rows.append(self._raw_batch(np.full(self.n, i, dtype=np.int64), idx))
        return np.asarray(rows, dtype=np.int32)

    def _raw_batch(self, I, J):
        return np.asarray(self._batch_fn(I, J), dtype=np.int32)

    def _validate_table(self):
        n = self.n
        want = np.arange(n, dtype=np.int32)
        if not (np.sort(self.table, axis=1) == want[None, :]).all():
            raise ValueError("table rows are not permutations (Latin property fails)")
        if not (np.sort(self.table, axis=0) == want[:, None]).all():
            raise ValueError("table columns are not permutations (Latin property fails)")

    def _find_neutral_table(self):
        idx = np.arange(self.n, dtype=np.int32)
        for e in range(self.n):
            if (self.table[e] == idx).all() and (self.table[:, e] == idx).all():
                return e
        raise ValueError("no neutral element")

    def _validate_neutral_oracle(self, e):
        idx = np.arange(self.n, dtype=np.int64)
        left = self._raw_batch(np.full(self.n, e, dtype=np.int64), idx)
        right = self._raw_batch(idx, np.full(self.n, e, dtype=np.int64))
        if not ((left == idx).all() and (right == idx).all()):
            raise ValueError("declared neutral element is not neutral")

    # -- multiplication and division ------------------------------------------

    def mult(self, i, j):
        if self.table is not None:
            return int(self.table[i, j])
        return int(self._raw_batch(np.array([i]), np.array([j]))[0])

    def mult_batch(self, I, J):
        I = np.asarray(I, dtype=np.int64)
        J = np.asarray(J, dtype=np.int64)
        if self.table is not None:
            return self.table[I, J].astype(np.int32)
        return self._raw_batch(I, J)

    @property
    def ldiv(self):
        """Table of x \\ y (solution of x*c = y)."""
        if self.table is None:
            raise ValueError("division tables need table mode")
        if self._ldiv is None:
            n = self.n
            d = np.empty((n, n), dtype=np.int32)
            d[np.arange(n)[:, None], self.table] = np.arange(n, dtype=np.int32)[None, :]
            self._ldiv = d
        return self._ldiv

    @property
    def rdiv(self):
        """Table of x / y (solution of c*y = x)."""
        if self.table is None:
            raise ValueError("division tables need table mode")
        if self._rdiv is None:
            n = self.n
            d = np.empty((n, n), dtype=np.int32)
            d[self.table, np.arange(n, dtype=np.int32)[None, :]] = \
                np.arange(n, dtype=np.int32)[:, None]
            self._rdiv = d
        return self._rdiv

    def left_div(self, i, j):
        if self.table is not None:
            return int(self.ldiv[i, j])
        if self._ldiv_fn is not None:
            return int(self._ldiv_fn(i, j))
        raise ValueError("no division oracle")

    def right_div(self, i, j):
        if self.table is not None:
            return int(self.rdiv[i, j])
        if self._rdiv_fn is not None:
            return int(self._rdiv_fn(i, j))
        raise ValueError("no division oracle")

    def right_inverse(self, i):
        return self.left_div(i, self.neutral)

    def left_inverse(self, i):
        return self.right_div(self.neutral, i)

    def two_sided_inverses(self):
        """Array inv with x*inv[x] = inv[x]*x = e, or None if some element
        has distinct one-sided inverses."""
        n = self.n
        inv = np.empty(n, dtype=np.int32)
        for x in range(n):
            r = self.right_inverse(x)
            if self.left_inverse(x) != r:
                return None
            inv[x] = r
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

    def index_of_label(self, label):
        return self.labels.index(label)

    def __repr__(self):
        return "FiniteLoop(n=%d)" % self.n


# ---------------------------------------------------------------------------
# generation


def closure(generators, mult, one, cap=100000, sort_key=None):
    """Smallest multiplicatively closed set containing the generators and one.

    Elements are opaque hashables; mult is the product oracle.  Numbering is
    breadth first: level 0 is the deduplicated generators plus the neutral
    element, each later level is sorted by sort_key (default: the element
    itself), so the numbering is reproducible.  Raises ClosureCapExceeded
    past cap elements.  Returns (elements, products) where products maps
    index pairs to indices for every pair inspected; the product record is
    dropped once the result outgrows table size.
    """
    if not generators:
        raise ValueError("need at least one generator")
    key = sort_key if sort_key is not None else (lambda v: v)
    seed = []
    seen = set()
    for g in list(generators) + [one]:
        if g not in seen:
            seen.add(g)
            seed.append(g)
    elements = list(seed)
    index = {g: i for i, g in enumerate(elements)}
    raw_products = {}
    keep_products = True
    frontier_start = 0
    while frontier_start < len(elements):
        frontier_end = len(elements)
        if keep_products and frontier_end > _TABLE_LIMIT:
            keep_products = False
            raw_products.clear()
        new = []
        for i in range(frontier_end):
            j_lo = frontier_start if i < frontier_start else 0
            for j in range(j_lo, frontier_end):
                z = mult(elements[i], elements[j])
                if keep_products:
                    raw_products[(i, j)] = z
                if z not in seen:
                    if len(elements) + len(new) >= cap:
                        raise ClosureCapExceeded("closure exceeded cap %d" % cap)
                    seen.add(z)
                    new.append(z)
        new.sort(key=key)
        for z in new:
            index[z] = len(elements)
            elements.append(z)
        frontier_start = frontier_end
    products = {ij: index[z] for ij, z in raw_products.items()}
    return elements, products


def loop_from_closure(generators, mult, one, cap=100000, sort_key=None, label=str):
    """Run closure and wrap the result as a table-mode FiniteLoop; a closure
    that grows past _TABLE_LIMIT elements raises ValueError."""
    limit = min(cap, _TABLE_LIMIT)
    try:
        elements, products = closure(generators, mult, one, cap=limit, sort_key=sort_key)
    except ClosureCapExceeded:
        if limit == cap:
            raise
        raise ValueError("closure grows past the table limit %d" % _TABLE_LIMIT) from None
    n = len(elements)
    table = np.empty((n, n), dtype=np.int32)
    for (i, j), k in products.items():
        table[i, j] = k
    return FiniteLoop(n, labels=[label(g) for g in elements], table=table), elements


def closure_indices(loop, seed):
    """Subloop generated by the given indices (table mode)."""
    T = loop.table
    if T is None:
        raise ValueError("closure_indices needs table mode")
    member = np.zeros(loop.n, dtype=bool)
    todo = set(int(s) for s in seed)
    todo.add(loop.neutral)
    cur = np.array(sorted(todo), dtype=np.int64)
    member[cur] = True
    while True:
        prods = T[np.ix_(cur, cur)].ravel()
        fresh = np.unique(prods[~member[prods]])
        if len(fresh) == 0:
            return np.flatnonzero(member)
        member[fresh] = True
        cur = np.flatnonzero(member)


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
    if not gens:  # trivial loop
        gens = [loop.neutral]
        levels = [cur]
    return gens, levels


# ---------------------------------------------------------------------------
# translations and the associated groups


def left_translation(loop, x):
    """Permutation y -> x*y."""
    if loop.table is not None:
        return Perm(loop.table[x, :], _checked=True)
    idx = np.arange(loop.n, dtype=np.int64)
    return Perm(loop.mult_batch(np.full(loop.n, x, dtype=np.int64), idx))


def right_translation(loop, x):
    """Permutation y -> y*x."""
    if loop.table is not None:
        return Perm(loop.table[:, x], _checked=True)
    idx = np.arange(loop.n, dtype=np.int64)
    return Perm(loop.mult_batch(idx, np.full(loop.n, x, dtype=np.int64)))


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
    if loop.table is not None:
        T = loop.table
        return [x for x in range(loop.n) if (T[x, :] == T[:, x]).all()]
    out = []
    idx = np.arange(loop.n, dtype=np.int64)
    for x in range(loop.n):
        xs = loop.mult_batch(np.full(loop.n, x, dtype=np.int64), idx)
        sx = loop.mult_batch(idx, np.full(loop.n, x, dtype=np.int64))
        if (xs == sx).all():
            out.append(x)
    return out


def _nucleus_exact_one(loop, x):
    if loop.table is not None:
        T = loop.table
        if not (T[T[x, :], :] == T[x, T]).all():
            return False
        if not (T[T[:, x], :] == T[:, T[x, :]]).all():
            return False
        if not (T[T, x] == T[:, T[:, x]]).all():
            return False
        return True
    n = loop.n
    idx = np.arange(n, dtype=np.int64)
    Y, Z = np.meshgrid(idx, idx, indexing="ij")
    Yf, Zf = Y.ravel(), Z.ravel()
    X = np.full(len(Yf), x, dtype=np.int64)
    if not (loop.mult_batch(loop.mult_batch(X, Yf), Zf)
            == loop.mult_batch(X, loop.mult_batch(Yf, Zf))).all():
        return False
    if not (loop.mult_batch(loop.mult_batch(Yf, X), Zf)
            == loop.mult_batch(Yf, loop.mult_batch(X, Zf))).all():
        return False
    if not (loop.mult_batch(loop.mult_batch(Yf, Zf), X)
            == loop.mult_batch(Yf, loop.mult_batch(Zf, X))).all():
        return False
    return True


def nucleus(loop, candidates=None, prefilter=64, seed=SAMPLE_SEED):
    """Elements associating with all pairs in every position.

    A cheap random prefilter cuts the candidate list, then every survivor is
    checked exactly against all n^2 pairs, so the result is exact.
    """
    n = loop.n
    if candidates is None:
        candidates = np.arange(n, dtype=np.int64)
    else:
        candidates = np.asarray(sorted(candidates), dtype=np.int64)
    rng = np.random.default_rng(seed)
    alive = candidates
    for _ in range(prefilter):
        if len(alive) == 0:
            return []
        y = int(rng.integers(n))
        z = int(rng.integers(n))
        Yv = np.full(len(alive), y, dtype=np.int64)
        Zv = np.full(len(alive), z, dtype=np.int64)
        ok = (loop.mult_batch(loop.mult_batch(alive, Yv), Zv)
              == loop.mult_batch(alive, loop.mult_batch(Yv, Zv)))
        ok &= (loop.mult_batch(loop.mult_batch(Yv, alive), Zv)
               == loop.mult_batch(Yv, loop.mult_batch(alive, Zv)))
        ok &= (loop.mult_batch(loop.mult_batch(Yv, Zv), alive)
               == loop.mult_batch(Yv, loop.mult_batch(Zv, alive)))
        alive = alive[ok]
    return [int(x) for x in alive if _nucleus_exact_one(loop, int(x))]


def center(loop):
    """C(loop) intersected with the nucleus."""
    return nucleus(loop, candidates=commutant(loop))


# ---------------------------------------------------------------------------
# normality and simplicity


def _apply_inner_images(loop, sub):
    """One sweep of all inner-map images of the index set sub; returns any
    indices found outside it (table mode, vectorized per x)."""
    T, LD, RD = loop.table, loop.ldiv, loop.rdiv
    n = loop.n
    member = np.zeros(n, dtype=bool)
    member[sub] = True
    S = np.asarray(sub, dtype=np.int64)
    for x in range(n):
        img_t = LD[x, T[S, x]]
        xs = T[x, S]
        phi = LD[T[:, x][:, None], T[:, xs]]
        rho = RD[T[T[S, x]][:, :], T[x, :][None, :]]
        pool = np.concatenate([img_t.ravel(), phi.ravel(), rho.ravel()])
        fresh = pool[~member[pool]]
        if len(fresh):
            return np.unique(fresh)
    return None


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


def is_simple(loop, sample=None, seed=SAMPLE_SEED):
    """True iff the normal closure of every non-neutral element is the whole
    loop.  With sample=k only k seeded elements are tested (a certificate of
    non-simplicity is still exact; simplicity becomes a spot check)."""
    others = [x for x in range(loop.n) if x != loop.neutral]
    if not others:
        return False  # trivial loop: not simple by the usual convention
    if sample is not None and sample < len(others):
        rng = np.random.default_rng(seed)
        others = [others[int(i)] for i in rng.choice(len(others), size=sample,
                                                     replace=False)]
    return all(len(normal_closure(loop, [x])) == loop.n for x in others)


# ---------------------------------------------------------------------------
# identities


def moufang_violation(loop, samples=100000, seed=SAMPLE_SEED):
    """First violation of ((xy)x)z = x(y(xz)) or None.

    Exhaustive at or below 512 elements, seeded samples above.
    """
    n = loop.n
    if loop.table is not None and n <= _IDENTITY_SAMPLE_LIMIT:
        T = loop.table
        for x in range(n):
            lhs = T[T[T[x, :], x], :]          # [y, z] -> ((xy)x)z
            rhs = T[x, T[:, T[x, :]]]          # [y, z] -> x(y(xz))
            bad = np.argwhere(lhs != rhs)
            if len(bad):
                y, z = map(int, bad[0])
                return (x, y, z)
        return None
    rng = np.random.default_rng(seed)
    X = rng.integers(n, size=samples)
    Y = rng.integers(n, size=samples)
    Z = rng.integers(n, size=samples)
    lhs = loop.mult_batch(loop.mult_batch(loop.mult_batch(X, Y), X), Z)
    rhs = loop.mult_batch(X, loop.mult_batch(Y, loop.mult_batch(X, Z)))
    bad = np.flatnonzero(lhs != rhs)
    if len(bad):
        i = int(bad[0])
        return (int(X[i]), int(Y[i]), int(Z[i]))
    return None


def is_moufang(loop, samples=100000, seed=SAMPLE_SEED):
    return moufang_violation(loop, samples=samples, seed=seed) is None


def associativity_violation(loop):
    """Some triple with (xy)z != x(yz), or None (table mode)."""
    T = loop.table
    if T is None:
        raise ValueError("needs table mode")
    for x in range(loop.n):
        lhs = T[T[x, :], :]
        rhs = T[x, T]
        bad = np.argwhere(lhs != rhs)
        if len(bad):
            y, z = map(int, bad[0])
            return (x, y, z)
    return None


def autotopism_check(loop, alpha, beta, gamma):
    """Whether x^alpha * y^beta = (xy)^gamma for all pairs."""
    a, b, g = alpha.a, beta.a, gamma.a
    if loop.table is not None:
        T = loop.table
        return bool((T[np.ix_(a, b)] == g[T]).all())
    n = loop.n
    idx = np.arange(n, dtype=np.int64)
    X, Y = np.meshgrid(idx, idx, indexing="ij")
    Xf, Yf = X.ravel(), Y.ravel()
    return bool((loop.mult_batch(a[Xf], b[Yf]) == g[loop.mult_batch(Xf, Yf)]).all())


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
        T1, T2 = self.source.table, self.target.table
        return bool((T2[np.ix_(m, m)] == m[T1]).all())


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


def _iso_search(L1, L2, count_all, collector=None):
    n = L1.n
    if n != L2.n:
        return (None, 0)
    if n > _IDENTITY_SAMPLE_LIMIT:
        raise ValueError("isomorphism search capped at %d elements"
                         % _IDENTITY_SAMPLE_LIMIT)
    o1, s1 = _invariant_vector(L1)
    o2, s2 = _invariant_vector(L2)
    if sorted(zip(map(int, o1), map(int, s1))) != sorted(zip(map(int, o2), map(int, s2))):
        return (None, 0)

    gens, levels = generating_sequence(L1)
    T1, T2 = L1.table, L2.table
    schedules = _derivation_schedules(L1, gens, levels)
    candidates = [[h for h in range(n) if o2[h] == o1[g] and s2[h] == s1[g]]
                  for g in gens]

    found = []
    count = [0]

    def extend(level, trial):
        if level == len(gens):
            m = trial
            if (T2[np.ix_(m, m)] == m[T1]).all():
                count[0] += 1
                if not found:
                    found.append(m.copy())
                if collector is not None:
                    collector.append(m.astype(np.int32).copy())
                return not count_all
            return False
        g = gens[level]
        steps, sub = schedules[level]
        for h in candidates[level]:
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
            msub = t[sub]
            if len(np.unique(msub)) != len(sub):
                continue
            if not (T2[np.ix_(msub, msub)] == t[T1[np.ix_(sub, sub)]]).all():
                continue
            if extend(level + 1, t):
                return True
        return False

    start = np.full(n, -1, dtype=np.int64)
    start[L1.neutral] = L2.neutral
    extend(0, start)
    witness = None
    if found:
        witness = LoopMorphismWitness(L1, L2, found[0].astype(np.int32))
        assert witness.verify()
    return (witness, count[0])


def find_isomorphism(L1, L2):
    """A verified isomorphism witness, or None after exhausting the search."""
    witness, _ = _iso_search(L1, L2, count_all=False)
    return witness


def automorphism_count(loop):
    """Number of self-isomorphisms, by the same backtracking engine."""
    _, count = _iso_search(loop, loop, count_all=True)
    return count


def automorphisms(loop):
    """All automorphisms as index arrays (exhaustive backtracking)."""
    maps = []
    _iso_search(loop, loop, count_all=True, collector=maps)
    return maps


# ---------------------------------------------------------------------------
# small constructors and file format


def loop_from_table(labels, table):
    return FiniteLoop(len(labels), labels=labels, table=table)


def cyclic_loop(n):
    idx = np.arange(n, dtype=np.int32)
    return FiniteLoop(n, table=(idx[:, None] + idx[None, :]) % n)


def direct_product(L1, L2):
    n1, n2 = L1.n, L2.n
    T = np.empty((n1 * n2, n1 * n2), dtype=np.int32)
    for a in range(n1):
        for b in range(n2):
            i = a * n2 + b
            T[i, :] = (np.repeat(L1.table[a, :], n2) * n2
                       + np.tile(L2.table[b, :], n1))
    labels = ["(%s,%s)" % (x, y) for x in L1.labels for y in L2.labels]
    return FiniteLoop(n1 * n2, labels=labels, table=T)


def loop_from_perm_group(group, limit=5000):
    """The underlying loop (group) of a permutation group, by enumeration."""
    elems = group.elements(limit=limit)
    index = {p: i for i, p in enumerate(elems)}
    n = len(elems)
    T = np.empty((n, n), dtype=np.int32)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            T[i, j] = index[p * q]
    return FiniteLoop(n, table=T)


def write_table(loop, path):
    """Cayley table file: n, labels, then n rows of indices."""
    if loop.table is None:
        raise ValueError("export needs table mode")
    with open(path, "w") as fh:
        fh.write("%d\n" % loop.n)
        fh.write(" ".join(loop.labels) + "\n")
        for row in loop.table:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def read_table(path):
    with open(path) as fh:
        n = int(fh.readline())
        labels = fh.readline().split()
        rows = [[int(v) for v in fh.readline().split()] for _ in range(n)]
    return FiniteLoop(n, labels=labels, table=np.array(rows, dtype=np.int32))
