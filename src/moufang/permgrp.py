"""Permutation groups on {0..n-1} with deterministic Schreier-Sims chains.

Maps act on the right and compose left to right: (p * q)(i) = q(p(i)).
A PermGroup keeps its generators and builds a base/strong-generating-set
stabilizer chain on first use; orders and membership tests are exact, never
probabilistic.  Generators enter the chain one at a time, and only those
that fail to sift through the chain built so far; the construction then
processes every Schreier generator and the verification pass re-sifts all
of them, so a completed chain is a certificate, not a heuristic.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np


@lru_cache(maxsize=None)
def _identity_images(n):
    """The read-only image array of the identity on n points, one per degree."""
    a = np.arange(n, dtype=np.int32)
    a.flags.writeable = False
    return a


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
        inv = np.empty_like(self.a)
        inv[self.a] = _identity_images(len(self.a))
        return Perm(inv, _checked=True)

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
    __slots__ = ("base", "gens", "orbit_u", "orbit_uinv", "orbit_list",
                 "stale", "processed")

    def __init__(self, base):
        self.base = base
        self.gens = []          # strong generators introduced at this level
        self.orbit_u = {}       # point -> transversal perm u, u(base) = point
        self.orbit_uinv = {}
        self.orbit_list = []
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
        lv = self._levels[idx]
        gens = self._strong_gens(idx)
        ident = Perm.identity(self.degree)
        lv.orbit_u = {lv.base: ident}
        lv.orbit_uinv = {lv.base: ident}
        lv.orbit_list = [lv.base]
        head = 0
        while head < len(lv.orbit_list):
            x = lv.orbit_list[head]
            head += 1
            ux = lv.orbit_u[x]
            for s in gens:
                y = int(s.a[x])
                if y not in lv.orbit_u:
                    uy = ux * s
                    lv.orbit_u[y] = uy
                    lv.orbit_uinv[y] = uy.inverse()
                    lv.orbit_list.append(y)
        lv.stale = False

    def _sift(self, p, start=0):
        """Reduce p through the chain; returns (residue, level reached)."""
        for idx in range(start, len(self._levels)):
            lv = self._levels[idx]
            t = int(p.a[lv.base])
            if t not in lv.orbit_u:
                return p, idx
            if t != lv.base:
                p = p * lv.orbit_uinv[t]
        return p, len(self._levels)

    def _insert(self, h, idx):
        if idx == len(self._levels):
            base = int(np.nonzero(h.a != _identity_images(self.degree))[0][0])
            self._levels.append(_Level(base))
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
            for t in list(lv.orbit_list):
                ut = lv.orbit_u[t]
                for s, sid in zip(gens, gen_ids):
                    key = (t, sid)
                    if key in lv.processed:
                        continue
                    lv.processed.add(key)
                    y = int(s.a[t])
                    schreier = ut * s * lv.orbit_uinv[y]
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
                for t in lv.orbit_list:
                    schreier = lv.orbit_u[t] * s * lv.orbit_uinv[int(s.a[t])]
                    r, _ = self._sift(schreier, idx + 1)
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

    @cached_property
    def _gen_stack(self):
        """(2k, n) int32 image arrays of the k generators followed by their
        inverses, built on first use."""
        k = len(self.gens)
        S = np.empty((2 * k, self.degree), dtype=np.int32)
        for i, g in enumerate(self.gens):
            S[i] = g.a
            S[k + i, g.a] = _identity_images(self.degree)
        return S

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
        """Every group element by breadth-first closure; exact but only
        sensible for small groups.  Each element's products with the
        generators come from one gather on the generator stack and are told
        apart by their image bytes, which the listed elements read in place
        (read-only)."""
        gens = self._gen_stack[:len(self.gens)]
        width = self.degree * gens.itemsize
        ident = Perm.identity(self.degree)
        seen = {ident.a.tobytes()}
        out = [ident]
        head = 0
        while head < len(out):
            images = gens[:, out[head].a].tobytes()
            head += 1
            for i in range(len(gens)):
                key = images[i * width:(i + 1) * width]
                if key not in seen:
                    if len(out) >= limit:
                        raise ValueError("group exceeds enumeration limit %d" % limit)
                    seen.add(key)
                    out.append(Perm(np.frombuffer(key, dtype=gens.dtype), _checked=True))
        return out

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
