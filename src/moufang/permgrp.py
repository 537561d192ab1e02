"""Permutation groups on {0..n-1} with deterministic Schreier-Sims chains.

Maps act on the right and compose left to right: (p * q)(i) = q(p(i)).
A PermGroup keeps its generators and builds a base/strong-generating-set
stabilizer chain on first use; orders and membership tests are exact, never
probabilistic.  Generators enter the chain one at a time, and only those
that fail to sift through the chain built so far; the construction then
processes every Schreier generator and the verification pass re-sifts all
of them, so a completed chain is a certificate, not a heuristic.

Sets of permutations are int32 stacks, one image array per row, composed,
inverted and walked breadth-first by compose, invert and orbit.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from . import fields


@lru_cache(maxsize=None)
def _identity_images(n):
    """The read-only image array of the identity on n points, one per degree."""
    a = np.arange(n, dtype=np.int32)
    a.flags.writeable = False
    return a


def _flat_index(A, B):
    """The images A as indices into B's raveled rows: each row of A shifted
    by the start of its row in B, the leading axes broadcast."""
    return A + np.arange(0, B.size, B.shape[-1], dtype=np.int32).reshape(B.shape[:-1] + (1,))


def compose(A, B):
    """A then B, row by row: row r is B_r[A_r], by one flat gather on B's
    rows.  The leading axes of A and B broadcast, so a 1-D B applies to every
    row of A, and A's rows may be narrower than B's (rows of points)."""
    if B.ndim == 1:
        return B.take(A)
    return B.ravel().take(_flat_index(A, B))


def invert(A, out=None):
    """Row r is the inverse of A_r, by one int32 scatter; out, if given, is a
    C-contiguous int32 array of A's shape that receives the inverses."""
    if out is None:
        out = np.empty(A.shape, dtype=np.int32)
    out.ravel()[_flat_index(A, A)] = _identity_images(A.shape[-1])
    return out


def orbit(start, maps, limit=None):
    """Breadth-first orbit of the int32 row start under maps: a (k, w) stack
    acting on the right (row x goes to S_j[x]), or a function giving the
    images of an (m, w) stack's rows under k maps as an (m, k, w) array.
    Rows are told apart by their bytes, taken in orbit order with each row's
    images in map order; the first occurrence wins.  Returns the rows' bytes
    in that order (each row is held once; np.frombuffer reads it in place),
    each row's parent row and map index (-1 for start); raises ValueError
    past limit rows.  The maps get as many rows a call as fields.budget_rows
    gives at 8 bytes per byte of their images."""
    images = maps if callable(maps) else lambda X: compose(X[:, None, :], maps)
    start = np.asarray(start, dtype=np.int32).ravel()
    width = start.nbytes
    keys = [start.tobytes()]  # the rows found, in orbit order
    seen = set(keys)
    parents, gens = [-1], [-1]
    head, step = 0, 1         # the first row whose images are not taken
    while head < len(keys):
        X = np.frombuffer(b"".join(keys[head:head + step]), np.int32).reshape(-1, start.size)
        buf = np.asarray(images(X), dtype=np.int32).tobytes()
        k = len(buf) // X.nbytes
        step = fields.budget_rows(8 * width * max(k, 1))
        for i in range(len(buf) // width):
            key = buf[i * width:(i + 1) * width]
            if key not in seen:
                seen.add(key)
                keys.append(key)
                parents.append(head + i // k)
                gens.append(i % k)
        if limit is not None and len(keys) > limit:
            raise ValueError("orbit exceeds the enumeration limit %d" % limit)
        head += len(X)
    return keys, np.array(parents), np.array(gens)


class Perm:
    """A permutation stored as its image array."""

    __slots__ = ("a", "_hash")

    def __init__(self, images, _checked=False):
        a = np.asarray(images, dtype=np.int32)
        if not _checked:
            n = len(a)
            if n and (np.bincount(a, minlength=n).max(initial=1) != 1 or a.min(initial=0) < 0
                      or a.max(initial=-1) >= n):
                raise ValueError("not a permutation of 0..%d" % (n - 1,))
        self.a = a
        self._hash = None

    @classmethod
    def identity(cls, n):
        return cls(np.arange(n, dtype=np.int32), _checked=True)

    @classmethod
    def from_cycles(cls, n, cycles):
        a = np.arange(n, dtype=np.int32)
        for cyc in cycles:
            for i, j in zip(cyc, cyc[1:]):
                a[i] = j
            if cyc:
                a[cyc[-1]] = cyc[0]
        return cls(a)

    @property
    def degree(self):
        return len(self.a)

    def __call__(self, i):
        return int(self.a[i])

    def __mul__(self, other):
        # apply self first, then other
        return Perm(other.a[self.a], _checked=True)

    def inverse(self):
        return Perm(invert(self.a), _checked=True)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        r = Perm.identity(self.degree)
        base = self
        while n:
            if n & 1:
                r = r * base
            base = base * base
            n >>= 1
        return r

    def is_identity(self):
        return bool((self.a == _identity_images(len(self.a))).all())

    def order(self):
        n = 1
        p = self
        while not p.is_identity():
            p = p * self
            n += 1
        return n

    def __eq__(self, other):
        return isinstance(other, Perm) and np.array_equal(self.a, other.a)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.a.tobytes())
        return self._hash

    def text(self):
        return "%d: %s" % (self.degree, " ".join(str(int(i)) for i in self.a))

    @classmethod
    def parse(cls, s):
        head, _, body = s.partition(":")
        images = [int(t) for t in body.split()]
        if int(head) != len(images):
            raise ValueError("degree mismatch in %r" % (s,))
        return cls(images)

    def __repr__(self):
        return "Perm(%s)" % (list(map(int, self.a)),)


class _Level:
    __slots__ = ("base", "gens", "orbit_list", "pos", "U", "Uinv",
                 "stale", "processed")

    def __init__(self, base, degree):
        self.base = base
        self.gens = []          # strong generators introduced at this level
        self.orbit_list = []    # the basic orbit, breadth-first
        self.pos = np.full(degree, -1, dtype=np.intp)  # point -> row, or -1
        self.U = self.Uinv = None  # the transversal stacks (_recompute_orbit)
        self.stale = True
        self.processed = set()  # (point, gen id) pairs already handled


class IncompleteChainError(RuntimeError):
    pass


class PermGroup:
    """Group generated by a list of permutations of one degree."""

    def __init__(self, degree, generators):
        gens = []
        seen = set()
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree %d != group degree %d"
                                 % (g.degree, degree))
            if g.is_identity() or g in seen:
                continue
            seen.add(g)
            gens.append(g)
        self.degree = degree
        self.gens = gens
        self._levels = None

    # -- stabilizer chain ---------------------------------------------------

    def _strong_gens(self, level):
        out = []
        for lv in self._levels[level:]:
            out.extend(lv.gens)
        return out

    def _recompute_orbit(self, idx):
        """The basic orbit of level idx under its strong generators, and its
        transversal as two int32 stacks: U[i] = U[parent[i]] * S[gen[i]] maps
        the base to orbit point i, and Uinv[i] is its inverse."""
        lv = self._levels[idx]
        lv.U = lv.Uinv = None  # freed before the new stacks are allocated
        n = self.degree
        S = np.array([s.a for s in self._strong_gens(idx)], dtype=np.int32).reshape(-1, n)
        keys, parent, gen = orbit([lv.base], S)
        points = np.frombuffer(b"".join(keys), np.int32)
        lv.orbit_list = points.tolist()
        lv.pos[:] = -1
        lv.pos[points] = np.arange(len(points))
        lv.U, lv.Uinv = np.empty((2, len(points), n), dtype=np.int32)
        lv.U[0] = lv.Uinv[0] = _identity_images(n)
        for i in range(1, len(points)):
            lv.U[i] = S[gen[i]].take(lv.U[parent[i]])
            invert(lv.U[i], out=lv.Uinv[i])
        lv.stale = False

    def _sift(self, p, start=0):
        """Reduce p through the chain; returns (residue, level reached)."""
        for idx in range(start, len(self._levels)):
            lv = self._levels[idx]
            row = lv.pos[p.a[lv.base]]
            if row < 0:
                return p, idx
            p = Perm(lv.Uinv[row].take(p.a), _checked=True)
        return p, len(self._levels)

    @staticmethod
    def _schreier(lv, i, s):
        """The Schreier generator u_t s u_{t^s}^-1 of row i (point t) of the
        level's orbit and the strong generator s."""
        a = s.a.take(lv.U[i])
        return Perm(lv.Uinv[lv.pos[a[lv.base]]].take(a), _checked=True)

    def _insert(self, h, idx):
        if idx == len(self._levels):
            base = int(np.nonzero(h.a != _identity_images(self.degree))[0][0])
            self._levels.append(_Level(base, self.degree))
        self._levels[idx].gens.append(h)
        for lv in self._levels[: idx + 1]:
            lv.stale = True

    def _chain(self, limit=None):
        """Incremental Schreier-Sims (Seress, Permutation Group Algorithms,
        sec. 4.2): the chain is complete for the generators admitted so far,
        and a new generator enters it only if it fails to sift.  So after
        each admission the product of the basic orbit lengths is the order
        of a subgroup of G; with limit, the build stops and returns None as
        soon as that product passes limit, leaving no partial chain behind."""
        if self._levels is not None:
            return self._levels
        self._levels = []
        for g in self.gens:
            r, idx = self._sift(g)
            if not r.is_identity():
                self._insert(r, idx)
                self._complete(idx)
                if limit is not None and self._orbit_product() > limit:
                    self._levels = None
                    return None
        self._verify()
        return self._levels

    def _complete(self, top):
        """Sift Schreier generators from level top down to 0, inserting every
        residue that fails and descending to the level it was inserted at."""
        ptr = top
        while ptr >= 0:
            lv = self._levels[ptr]
            if lv.stale:
                self._recompute_orbit(ptr)
            gens = self._strong_gens(ptr)
            gen_ids = [id(s) for s in gens]
            descended = False
            for i, t in enumerate(lv.orbit_list):
                for s, sid in zip(gens, gen_ids):
                    key = (t, sid)
                    if key in lv.processed:
                        continue
                    lv.processed.add(key)
                    schreier = self._schreier(lv, i, s)
                    if schreier.is_identity():
                        continue
                    r, idx = self._sift(schreier, ptr + 1)
                    if not r.is_identity():
                        self._insert(r, idx)
                        ptr = idx
                        descended = True
                        break
                if descended:
                    break
            if descended:
                continue
            ptr -= 1

    def _verify(self):
        """Re-sift every Schreier generator and every input generator."""
        for g in self.gens:
            r, _ = self._sift(g)
            if not r.is_identity():
                raise IncompleteChainError("input generator fails to sift")
        for idx in range(len(self._levels)):
            lv = self._levels[idx]
            if lv.stale:
                self._recompute_orbit(idx)
            for s in self._strong_gens(idx):
                for i in range(len(lv.orbit_list)):
                    r, _ = self._sift(self._schreier(lv, i, s), idx + 1)
                    if not r.is_identity():
                        raise IncompleteChainError("Schreier generator fails to sift")

    # -- queries --------------------------------------------------------------

    def _orbit_product(self):
        n = 1
        for lv in self._levels:
            n *= len(lv.orbit_list)
        return n

    def order(self):
        self._chain()
        return self._orbit_product()

    def order_exceeds(self, limit):
        """Whether |G| > limit, certified either way: by a lower bound from
        the chain built so far, or by the completed chain, which is kept."""
        return self._chain(limit) is None or self._orbit_product() > limit

    def contains(self, p):
        if p.degree != self.degree:
            raise ValueError("degree mismatch")
        self._chain()
        r, _ = self._sift(p)
        return r.is_identity()

    def is_subgroup(self, other):
        """Whether other <= self."""
        return all(self.contains(g) for g in other.gens)

    def base(self):
        return [lv.base for lv in self._chain()]

    def strong_generators(self):
        """The strong generators of the completed chain; they generate G,
        often with far fewer permutations than its input generators."""
        self._chain()
        return self._strong_gens(0)

    @cached_property
    def _gen_stack(self):
        """(2k, n) int32 image arrays of the k generators followed by their
        inverses, built on first use."""
        S = np.array([g.a for g in self.gens], dtype=np.int32).reshape(-1, self.degree)
        return np.concatenate([S, invert(S)])

    def random_element(self, rng, size=None):
        """A random word of 20 uniformly chosen generators and inverses
        (Seress, Permutation Group Algorithms, 2003), deterministic for a
        seeded fields.Sampler rng; for sampling checks, never for orders.
        With size, a (size, n) int32 stack of words, lettered by one draw
        rng.integers(2k, size=(size, 20)) (k + i: generator i inverted) and
        composed by one flat gather per letter; a + b words draw a, then b,
        since the sampler's draws continue one stream."""
        if size is None:
            return Perm(self.random_element(rng, 1)[0], _checked=True)
        words = np.tile(_identity_images(self.degree), (size, 1))
        if self.gens:
            letters = rng.integers(2 * len(self.gens), size=(size, 20), dtype=np.int32)
            flat = self._gen_stack.ravel()
            for i in range(20):
                words = flat.take(letters[:, i:i + 1] * self.degree + words)
        return words

    def elements(self, limit=200000):
        """Every group element, as the orbit of the identity under right
        multiplication by the generators; exact but only sensible for small
        groups.  Each element reads its orbit row's bytes in place (read-only)."""
        keys = orbit(_identity_images(self.degree), self._gen_stack[:len(self.gens)],
                     limit)[0]
        return [Perm(np.frombuffer(key, np.int32), _checked=True) for key in keys]

    def __repr__(self):
        return "PermGroup(degree=%d, gens=%d)" % (self.degree, len(self.gens))


def homomorphism_kernel(group, images):
    """Kernel of the homomorphism sending group.gens[i] -> images[i].

    The images live in a small symmetric group (degree 3 for line-class
    actions).  Kernel generators come from the Schreier construction on the
    coset action of the image group on itself.  The assignment is checked
    exactly first: the diagonal embedding must have the order of the group.
    """
    gens = group.gens
    if len(images) != len(gens):
        raise ValueError("need one image per generator")
    if not gens:
        return PermGroup(group.degree, [])
    n, m = group.degree, images[0].degree
    diag = PermGroup(n + m, [Perm(np.concatenate([g.a, h.a + n]), _checked=True)
                             for g, h in zip(gens, images)])
    if diag.order() != group.order():
        raise ValueError("generator images do not define a homomorphism")

    ident_g = Perm.identity(n)
    ident_h = Perm.identity(m)

    # BFS over the image subgroup; transversal element t_h satisfies img(t_h) = h
    transversal = {ident_h: ident_g}
    queue = [ident_h]
    head = 0
    while head < len(queue):
        h = queue[head]
        head += 1
        for g, img in zip(gens, images):
            h2 = h * img
            if h2 not in transversal:
                transversal[h2] = transversal[h] * g
                queue.append(h2)

    kernel_gens = []
    seen = set()
    for h in queue:
        t = transversal[h]
        for g, img in zip(gens, images):
            k = t * g * transversal[h * img].inverse()
            if not k.is_identity() and k not in seen:
                seen.add(k)
                kernel_gens.append(k)
    return PermGroup(group.degree, kernel_gens)
