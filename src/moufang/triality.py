"""The loop / 3-net / group-with-triality dictionary.

A loop L gives a 3-net on L x L with point id x*n + y and three line
classes: vertical (X = c, class 1), horizontal (Y = c, class 2) and
transversal (XY = c, class 3); line c of class cls has id (cls-1)*n + c.
Collineations act faithfully on the 3n lines (every point is the meet of
its vertical and horizontal lines), so Bol reflections are kept as line
permutations: a few are built from the coordinate formulas and verified on
points, the others are their conjugates along the line orbit.  The group
they generate carries the triality structure: sigma and rho act on the
direction-preserving part by conjugation and satisfy [g,s][g,s]^r[g,s]^r2 = 1.

The reverse construction takes such a group and rebuilds a net whose lines
are the three conjugacy classes of reflections, points being the triples
generating a copy of S3."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from . import fields
from .fields import SAMPLE_SEED, blocks
from .loops import FiniteLoop
from .permgrp import Perm, PermGroup, compose, invert, orbit

VERTICAL, HORIZONTAL, TRANSVERSAL = 1, 2, 3
EXHAUSTIVE_LIMIT = 10000


class NetAxiomError(RuntimeError):
    pass


class NotACollineationError(RuntimeError):
    pass


class LoopNet3:
    """3-net of a loop, materialized as index arithmetic on n^2 points.
    The net axioms hold by construction: FiniteLoop validates that its
    table is Latin, and the division tables are read off that table."""

    def __init__(self, loop):
        self.loop = loop
        self.n = loop.n
        self.n_points = loop.n * loop.n

    @cached_property
    def transversal_points(self):
        """Row c lists the points of transversal line c by x, as
        points_of_line(TRANSVERSAL, c) does."""
        return np.arange(self.n, dtype=np.int64) * self.n + self.loop.ldiv.T

    def line_through(self, point, cls):
        """The line of class cls through the point, by its index in the
        class; for an array of points, an array of lines."""
        x, y = divmod(point, self.n)
        if cls == VERTICAL:
            return x
        if cls == HORIZONTAL:
            return y
        line = self.loop.table[x, y]
        return line if np.ndim(line) else int(line)

    def points_of_line(self, cls, c):
        n = self.n
        idx = np.arange(n, dtype=np.int64)
        if cls == VERTICAL:
            return c * n + idx
        if cls == HORIZONTAL:
            return idx * n + c
        # transversal x*y = c: y = x \ c
        return idx * n + self.loop.ldiv[idx, c]

    def intersect(self, cls1, c1, cls2, c2):
        if cls1 == cls2:
            raise ValueError("parallel lines")
        if cls1 > cls2:
            cls1, c1, cls2, c2 = cls2, c2, cls1, c1
        if (cls1, cls2) == (VERTICAL, HORIZONTAL):
            return c1 * self.n + c2
        if (cls1, cls2) == (VERTICAL, TRANSVERSAL):
            return c1 * self.n + int(self.loop.ldiv[c1, c2])
        # horizontal y=c1 meets transversal xy=c2 at x = c2 / c1
        return int(self.loop.rdiv[c2, c1]) * self.n + c1

    def origin(self):
        e = self.loop.neutral
        return e * self.n + e

    def point_label(self, point):
        x, y = divmod(point, self.n)
        return "(%s,%s)" % (self.loop.labels[x], self.loop.labels[y])

    def n_lines(self):
        return 3 * self.n


@dataclass
class Collineation:
    """A verified collineation: its point permutation and its action on the
    3n lines, line c of class cls being (cls-1)*n + c.  The action on lines
    is faithful, and a homomorphism of collineations."""

    point_map: Perm
    line_perm: Perm

    @property
    def class_action(self):
        """The image classes of classes 1, 2 and 3, read off the lines."""
        n = self.line_perm.degree // 3
        return tuple(int(self.line_perm.a[k * n]) // n + 1 for k in range(3))

    def is_direction_preserving(self):
        return self.class_action == (1, 2, 3)


def _analyze_point_map(net, img, expect):
    """The 3n line images of a point map, as an int32 array indexed and
    valued by line id; raise if some line image is not a line or the line
    classes do not permute.  A line image is a line of several classes only
    in the 1-point net (points on a line are distinct and the table is
    Latin), and there class cls goes to expect[cls - 1]."""
    n = net.n
    T = net.loop.table
    Xi = (img // n).reshape(n, n)
    Yi = (img % n).reshape(n, n)
    coords = (Xi, Yi, T[Xi, Yi])
    lines = np.empty(3 * n, dtype=np.int32)
    action = []
    # the points of each line, one line per row: vertical lines are the rows
    # of the (x, y) grid, horizontal lines its columns
    for cls, name, on_lines in (
            (VERTICAL, "vertical", lambda A: A),
            (HORIZONTAL, "horizontal", lambda A: A.T),
            (TRANSVERSAL, "transversal", lambda A: A.ravel()[net.transversal_points])):
        rows = [on_lines(A) for A in coords]
        fits = [k + 1 for k, R in enumerate(rows) if (R == R[:, :1]).all()]
        if not fits:
            raise NotACollineationError("a %s line maps to a non-line" % name)
        to = expect[cls - 1] if expect[cls - 1] in fits else fits[0]
        action.append(to)
        lines[(cls - 1) * n: cls * n] = (to - 1) * n + rows[to - 1][:, 0]
    if sorted(action) != [1, 2, 3]:
        raise NotACollineationError("line classes do not permute")
    for cls in (1, 2, 3):
        if np.bincount(lines[(cls - 1) * n: cls * n]).max() > 1:
            raise NotACollineationError("line map of class %d not bijective" % cls)
    return lines


def collineation_from_point_map(net, img, expect=(VERTICAL, HORIZONTAL, TRANSVERSAL)):
    """Wrap a point permutation as a verified Collineation; expect is the
    class action taken where the point map leaves it open (see
    _analyze_point_map)."""
    img = np.asarray(img, dtype=np.int64)
    perm = Perm(img)
    return Collineation(perm, Perm(_analyze_point_map(net, img, expect), _checked=True))


def diagonal_point_map(net, alpha):
    """(x, y) -> (x a, y a) for a map alpha given as an index array."""
    n = net.n
    alpha = np.asarray(alpha, dtype=np.int64)
    X, Y = np.divmod(np.arange(n * n, dtype=np.int64), n)
    return alpha[X] * n + alpha[Y]


def bol_reflection(loop, cls, m, net=None):
    """Bol reflection with axis X=m / Y=m / XY=m, from the coordinate
    formulas; verified to be an involution and a collineation that fixes
    its axis pointwise and swaps the other two classes.

    For loops without two-sided inverses, or when the verification fails,
    NotACollineationError is raised; by the Bol criterion that identifies
    exactly the non-Moufang inputs."""
    if net is None:
        net = LoopNet3(loop)
    n = loop.n
    T = loop.table
    inv = loop.two_sided_inverses()
    if inv is None:
        raise NotACollineationError("loop has one-sided inverses only; "
                                    "reflection formulas need x^-1")
    X, Y = np.divmod(np.arange(n * n, dtype=np.int64), n)
    if cls == VERTICAL:
        # (x, y) -> (m (x^-1 m), m^-1 (x y))
        nx = T[m, T[inv[X], m]]
        ny = T[inv[m], T[X, Y]]
    elif cls == HORIZONTAL:
        # (x, y) -> ((x y) m^-1, (m y^-1) m)
        nx = T[T[X, Y], inv[m]]
        ny = T[T[m, inv[Y]], m]
    elif cls == TRANSVERSAL:
        # (x, y) -> (m y^-1, x^-1 m)
        nx = T[m, inv[Y]]
        ny = T[inv[X], m]
    else:
        raise ValueError("class must be 1, 2 or 3")
    img = nx * n + ny
    if not (img[img] == np.arange(n * n, dtype=np.int64)).all():
        raise NotACollineationError("reflection formula is not an involution")
    want = tuple(c if c == cls else 6 - cls - c for c in (1, 2, 3))
    coll = collineation_from_point_map(net, img, expect=want)
    if coll.class_action != want:
        raise NotACollineationError("reflection does not swap the other two classes")
    axis = net.points_of_line(cls, m)
    if not (img[axis] == axis).all():
        raise NotACollineationError("reflection does not fix its axis pointwise")
    return coll


# Bytes per n^2 priced for bol-check on an n-element loop: the tables (12),
# the transversal points (8), the 3n line permutations (36) and, during a
# check on points, that reflection's arrays (about 80).  tracemalloc peaks:
# 101-106 at Z(200)-Z(1024) and M*(3), 120 at Z2^10 (whose last check runs
# with half of the reflections held), 117-122 at M*(2); rounded up to a
# power of two, it admits Z(1024) and refuses M*(3).
_BOL_CHECK_BYTES = 128


def require_reflections_fit(n):
    """Refuse, with UsageError, the Bol reflections of an n-element loop
    when bol-check on it would not fit the memory budget."""
    fields.require_budget(_BOL_CHECK_BYTES * n * n,
                          "the Bol reflections of a %d-element loop" % n)


def _reflections_by_conjugation(loop, net):
    """Every reflection of the net as a permutation of the lines, most of
    them as conjugates.

    The three origin reflections are checked on points by bol_reflection
    and become conjugators; breadth-first, a conjugator tau and a known
    sigma_l give sigma_{tau(l)} = tau sigma_l tau, composed on lines.  That
    conjugate is again an involutory collineation fixing its axis pointwise
    and swapping the other two classes, and such a map is unique per axis
    (the image of P is the transversal through one axis point met with the
    horizontal line through another), so it is the formula reflection.
    When the orbit stalls, the first missing axis in (cls, m) order is
    checked on points and joins the conjugators.  For a non-Moufang loop
    some axis carries no reflection (Bol criterion), and checking it
    raises.  Only a checked reflection has a point map, dropped once its
    check is done."""
    n = loop.n
    refl = {}          # line id (cls - 1) * n + m -> line permutation
    conjugators = []   # the reflections checked on points
    queue, head = [], 0

    def check(line):
        refl[line] = bol_reflection(loop, line // n + 1, line % n, net=net).line_perm
        conjugators.append(refl[line])
        queue.extend(refl)  # every known axis meets the new conjugator

    for cls in (VERTICAL, HORIZONTAL, TRANSVERSAL):
        check((cls - 1) * n + loop.neutral)
    missing = 0
    while len(refl) < 3 * n:
        if head == len(queue):
            while missing in refl:
                missing += 1
            check(missing)
        line = queue[head]
        head += 1
        for tau in conjugators:
            image = tau(line)
            if image not in refl:
                refl[image] = tau * refl[line] * tau
                queue.append(image)
    return {(line // n + 1, line % n): refl[line] for line in range(3 * n)}


def all_bol_reflections(loop, net=None):
    """The 3n Bol reflections as permutations of the 3n lines, keyed
    (class, axis) in (class, axis) order.  A few are checked on points and
    the rest follow by conjugation (see _reflections_by_conjugation); when a
    check fails, the reflections are checked axis by axis so that the first
    failing axis raises.  A loop whose bol-check would not fit
    the memory budget is refused before any reflection is built
    (require_reflections_fit)."""
    require_reflections_fit(loop.n)
    if net is None:
        net = LoopNet3(loop)
    try:
        return _reflections_by_conjugation(loop, net)
    except NotACollineationError:
        pass  # leaving the handler frees the conjugates its traceback holds
    return {(cls, m): bol_reflection(loop, cls, m, net=net).line_perm
            for cls in (1, 2, 3) for m in range(loop.n)}


# ---------------------------------------------------------------------------
# groups with triality


@dataclass
class TrialityWitness:
    group: PermGroup           # the group G acted on by sigma, rho
    sigma: Perm
    rho: Perm
    sigmas: tuple              # (sigma1, sigma2, sigma3) involutions
    details: dict = dc_field(default_factory=dict)  # of its triality_check
    origin_net: object = None  # the source net when built from a loop
    full_group: object = None  # reflection group M when built from a loop


def _s3_relations_hold(G, sigma, rho):
    """sigma^2 = rho^3 = (sigma rho)^2 = id as actions on G, with sigma and
    rho themselves nontrivial so that <sigma, rho> is a genuine S3 of maps.
    (The conjugation action on G may still be unfaithful; that happens for
    abelian coordinate loops.)  Trivial G passes degenerately."""
    def trivial_action(p):
        if p.is_identity():
            return True
        return all((g * p == p * g) for g in G.gens)
    sr = sigma * rho
    if not (trivial_action(sigma * sigma)
            and trivial_action(rho * rho * rho)
            and trivial_action(sr * sr)):
        return False
    if not G.gens:
        return True
    return not (sigma.is_identity() or rho.is_identity())


def conjugacy_class(G, rep, limit=200000):
    """Orbit of rep under conjugation g^-1 p g by the strong generators of
    G's chain, sorted by image bytes."""
    gens = np.array([g.a for g in G.strong_generators()],
                    dtype=np.int32).reshape(-1, G.degree)
    inverses = invert(gens)
    keys = orbit(rep.a, lambda P: compose(compose(inverses, P[:, None, :]), gens),
                 limit)[0]
    return [Perm(np.frombuffer(key, np.int32), _checked=True) for key in sorted(keys)]


# Bytes a stacked triality check allots each image of a row: words,
# inverses, conjugates, products and index temporaries (tracemalloc peak:
# 29-32 per image at net-paige2), rounded up to a power of two.
_CHECK_IMAGE_BYTES = 64

# The ordered pairs (i, j) of distinct classes, in the exhaustive order.
_CLASS_PAIRS = np.array([(i, j) for i in range(3) for j in range(3) if i != j])


def _identity_fails(X, sigma, rho):
    """Which rows g of the stack X break [g,s][g,s]^r[g,s]^r2 = 1.  With
    c = [g, s] = g^-1 s g s the product is c r^-1 c r^-1 c r^2, which is 1
    exactly when (c r^-1)^3 = r^-3."""
    rho_inv = rho.inverse()
    D = compose(compose(compose(invert(X), sigma.a), X), (sigma * rho_inv).a)
    return (compose(compose(D, D), D) != (rho_inv ** 3).a).any(axis=1)


def _cube_fails(A, B):
    """Which rows (a, b) of two stacks have (a b)^3 != 1."""
    P = compose(A, B)
    return (compose(compose(P, P), P) != np.arange(P.shape[1])).any(axis=1)


def concurrent_pair_failures(net, refl, points):
    """How many ordered pairs of distinct lines through the points (six per
    point, a point drawn twice counted twice) carry reflections whose product
    does not cube to 1.  The points go in blocks, each point giving
    six rows of 3n images to the stacks that are cubed."""
    classes, n = (VERTICAL, HORIZONTAL, TRANSVERSAL), net.n
    rows = [refl[(cls, m)].a for cls in classes for m in range(n)]
    bad = 0
    for s, e in blocks(len(points), _CHECK_IMAGE_BYTES * 6 * 3 * n):
        lines = np.stack([(cls - 1) * n + net.line_through(np.asarray(points[s:e]), cls)
                          for cls in classes], axis=1)
        A, B = (np.stack([rows[line] for line in lines[:, k].ravel()])
                for k in _CLASS_PAIRS.T)
        bad += int(np.count_nonzero(_cube_fails(A, B)))
    return bad


def _first_failure(chunks, fails):
    """The rows that pass before the first one that fails, over the chunks
    (tuples of row stacks) in order, and that row as Perms, or None."""
    checked = 0
    for stacks in chunks:
        bad = np.flatnonzero(fails(*stacks))
        if len(bad):
            r = int(bad[0])
            return checked + r, tuple(Perm(S[r].copy(), _checked=True) for S in stacks)
        checked += len(stacks[0])
    return checked, None


def triality_check(G, sigma, rho, samples=1000, seed=SAMPLE_SEED):
    """Verify the triality identity along two routes and insist they agree.

    Route A is the commutator identity [g,s][g,s]^r[g,s]^r2 = 1; route B is
    the reformulation (tau_i tau_j)^3 = 1 on the conjugacy classes of the
    three involutions.  The check is exhaustive over G and the classes when
    G acts on at most 2048 points and |G| <= EXHAUSTIVE_LIMIT, which the
    stabilizer chain certifies (PermGroup.order_exceeds) before anything is
    listed; the listing must then have |G| elements.  Otherwise route A
    takes the generators and then seeded random words, route B sigma_i and
    sigma_j conjugated by two seeded random words for a random ordered pair
    (i, j).  Both check image stacks in blocks up to the first
    failing row, the witness.  Returns (ok, details), details["mode"]
    naming which."""
    if not _s3_relations_hold(G, sigma, rho):
        raise ValueError("sigma, rho do not satisfy the S3 relations as actions")
    sigmas = (sigma, sigma * rho, rho * sigma)
    row_bytes = _CHECK_IMAGE_BYTES * G.degree
    exhaustive = G.degree <= 2048 and not G.order_exceeds(EXHAUSTIVE_LIMIT)
    if exhaustive:
        elements = G.elements(limit=EXHAUSTIVE_LIMIT)
        if len(elements) != G.order():
            raise AssertionError("the listing has %d elements, the stabilizer "
                                 "chain %d" % (len(elements), G.order()))

    def rows_a():
        listed = elements if exhaustive else G.gens
        for s, e in blocks(len(listed), row_bytes):
            yield (np.stack([g.a for g in listed[s:e]]),)
        if not exhaustive:
            rng = fields.Sampler(seed)
            for s, e in blocks(samples, row_bytes):
                yield (G.random_element(rng, e - s),)

    def rows_b():
        if exhaustive:
            classes = [np.stack([p.a for p in conjugacy_class(G, s)]) for s in sigmas]
            for i, j in _CLASS_PAIRS:
                A, B = classes[i], classes[j]
                for s, e in blocks(len(A) * len(B), row_bytes):
                    t = np.arange(s, e)
                    yield A[t // len(B)], B[t % len(B)]
            return
        rng = fields.Sampler(seed + 1)
        S = np.stack([s.a for s in sigmas])
        for s, e in blocks(samples, row_bytes):
            pair = _CLASS_PAIRS[rng.integers(6, size=e - s)].T
            words = (G.random_element(rng, e - s) for _ in pair)
            yield tuple(compose(compose(invert(W), S[k]), W)  # w^-1 sigma_k w
                        for k, W in zip(pair, words))

    checked, bad_g = _first_failure(rows_a(), lambda X: _identity_fails(X, sigma, rho))
    pairs, bad_pair = _first_failure(rows_b(), _cube_fails)
    ok_a, ok_b = bad_g is None, bad_pair is None
    details = {"mode": "exhaustive" if exhaustive else "sampled",
               "identity_checked": checked, "pairs_checked": pairs,
               "identity_ok": ok_a, "pairs_ok": ok_b, "routes_agree": ok_a == ok_b,
               "witness": bad_g[0] if bad_g else bad_pair}
    if ok_a != ok_b and exhaustive:
        raise AssertionError("commutator and class-pair routes disagree")
    return (ok_a and ok_b), details


def _checked_witness(witness, what, seed, samples=1000):
    """Run triality_check once on the witness and keep its details; raise
    AssertionError if the identity fails."""
    ok, witness.details = triality_check(witness.group, witness.sigma,
                                         witness.rho, samples=samples, seed=seed)
    if not ok:
        raise AssertionError("%s failed the triality identity: %r"
                             % (what, witness.details))
    return witness


def triality_group_from_loop(loop, samples=1000, seed=SAMPLE_SEED):
    """Bol-reflection group of the net of a Moufang loop, split into the
    direction-preserving part plus the S3 of reflections through the origin.

    The direction-preserving part is generated by the products
    sigma_m sigma_e taken within each class (the same Schreier generators
    the class-action kernel construction would produce, already reduced).
    Every group here acts on the 3n lines of the net.
    """
    net = LoopNet3(loop)
    refl = all_bol_reflections(loop, net=net)
    e = loop.neutral
    s1, s2, s3 = (refl[(cls, e)] for cls in (VERTICAL, HORIZONTAL, TRANSVERSAL))
    if not (s1 * s2 * s1 == s3 and (s2 * s1 * s2) == s3):
        raise AssertionError("origin reflections do not close into S3")
    origin_sigma = {VERTICAL: s1, HORIZONTAL: s2, TRANSVERSAL: s3}
    m0_gens = [p * origin_sigma[cls] for (cls, m), p in refl.items() if m != e]
    M = PermGroup(net.n_lines(), list(refl.values()))
    M0 = PermGroup(net.n_lines(), m0_gens)
    witness = TrialityWitness(M0, s1, s1 * s2, (s1, s2, s3),
                              origin_net=net, full_group=M)
    return _checked_witness(witness, "the net of a purported Moufang loop",
                            seed, samples)


# ---------------------------------------------------------------------------
# nets from groups with triality


class TrialityNet3:
    """Net in primal form built from a group with triality: lines are the
    three conjugacy classes of involutions, points the S3-generating
    triples.  Point ids index the triple list."""

    def __init__(self, witness):
        G = witness.group
        sigmas = witness.sigmas
        self.classes = [conjugacy_class(G, s, limit=EXHAUSTIVE_LIMIT) for s in sigmas]
        self.class_index = [
            {p: i for i, p in enumerate(cls)} for cls in self.classes
        ]
        points = []
        pair_to_point = {}
        c3_index = self.class_index[2]
        for i1, t1 in enumerate(self.classes[0]):
            for i2, t2 in enumerate(self.classes[1]):
                if t1 == t2:
                    raise NetAxiomError("line classes intersect")
                prod = t1 * t2
                if not (prod * prod * prod).is_identity():
                    raise NetAxiomError("(tau1 tau2)^3 != id; not a triality group")
                t3 = t1 * t2 * t1
                i3 = c3_index.get(t3)
                if i3 is None:
                    raise NetAxiomError("third reflection falls outside class 3")
                pid = len(points)
                points.append((i1, i2, i3))
                for key in (((1, i1), (2, i2)), ((1, i1), (3, i3)),
                            ((2, i2), (3, i3))):
                    if key in pair_to_point:
                        raise NetAxiomError("two lines meet twice")
                    pair_to_point[key] = pid
        self.points = points
        self.pair_to_point = pair_to_point
        self.n_points = len(points)
        self._verify()

    def _verify(self):
        """Dual axioms: every cross-class pair of lines meets exactly once,
        every point carries one line of each class."""
        sizes = [len(c) for c in self.classes]
        want_pairs = sizes[0] * sizes[1] + sizes[0] * sizes[2] + sizes[1] * sizes[2]
        if len(self.pair_to_point) != want_pairs:
            raise NetAxiomError("some cross-class line pair never meets")
        if self.n_points != sizes[0] * sizes[1]:
            raise NetAxiomError("point count inconsistent with class sizes")

    def line_through(self, point, cls):
        return self.points[point][cls - 1]

    def points_of_line(self, cls, c):
        return np.array([pid for pid, t in enumerate(self.points)
                         if t[cls - 1] == c], dtype=np.int64)

    def intersect(self, cls1, c1, cls2, c2):
        if cls1 == cls2:
            raise ValueError("parallel lines")
        if cls1 > cls2:
            cls1, c1, cls2, c2 = cls2, c2, cls1, c1
        return self.pair_to_point[((cls1, c1), (cls2, c2))]

    def point_label(self, point):
        # points are named by their class-index triple; any relabeling is
        # an isomorphism of the incidence structure
        return "T(%d,%d,%d)" % self.points[point]

    def n_lines(self):
        return sum(len(c) for c in self.classes)


# ---------------------------------------------------------------------------
# coordinate loops of arbitrary nets


def coordinate_loop(net, origin=None):
    """Loop on the horizontal line through the origin, by the projection
    construction: lift the right factor to the vertical axis along its
    transversal, move horizontally, cut with the left factor's vertical
    line, and project back along the transversal."""
    if origin is None:
        origin = net.origin()
    ell = net.line_through(origin, HORIZONTAL)
    k = net.line_through(origin, VERTICAL)
    carrier = [int(p) for p in net.points_of_line(HORIZONTAL, ell)]
    index = {p: i for i, p in enumerate(carrier)}

    def mult(pi, qi):
        p, qq = carrier[pi], carrier[qi]
        lift = net.intersect(TRANSVERSAL, net.line_through(qq, TRANSVERSAL),
                             VERTICAL, k)
        h = net.line_through(lift, HORIZONTAL)
        r = net.intersect(HORIZONTAL, h, VERTICAL, net.line_through(p, VERTICAL))
        res = net.intersect(TRANSVERSAL, net.line_through(r, TRANSVERSAL),
                            HORIZONTAL, ell)
        return index[res]

    n = len(carrier)
    table = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        for j in range(n):
            table[i, j] = mult(i, j)
    labels = [net.point_label(p) for p in carrier]
    loop = FiniteLoop(n, labels=labels, table=table)
    if loop.neutral != index[origin]:
        raise AssertionError("origin is not the neutral element")
    return loop


# ---------------------------------------------------------------------------
# Doro's standard examples


def example_wreath(A, seed=SAMPLE_SEED):
    """G = A^3 with sigma swapping the first two coordinates and rho cycling
    them; acts on three regular blocks."""
    if A.order_exceeds(100):
        raise ValueError("wreath example capped at |A| <= 100")
    elems = A.elements()
    N, degree = len(elems), 3 * len(elems)
    index = {p: i for i, p in enumerate(elems)}

    def block_perm(block, g):
        img = np.arange(degree, dtype=np.int64)
        base = block * N
        for i, p in enumerate(elems):
            img[base + i] = base + index[p * g]
        return Perm(img)

    G = PermGroup(degree, [block_perm(b, g) for g in A.gens for b in range(3)])

    idx = np.arange(N, dtype=np.int64)
    sig = np.arange(degree, dtype=np.int64)
    sig[0 * N + idx] = 1 * N + idx
    sig[1 * N + idx] = 0 * N + idx
    sigma = Perm(sig)
    rho_img = np.empty(degree, dtype=np.int64)
    # block map 0 -> 2, 1 -> 0, 2 -> 1 conjugates (a0,a1,a2) to (a1,a2,a0)
    rho_img[0 * N + idx] = 2 * N + idx
    rho_img[1 * N + idx] = 0 * N + idx
    rho_img[2 * N + idx] = 1 * N + idx
    rho = Perm(rho_img)

    witness = TrialityWitness(G, sigma, rho, (sigma, sigma * rho, rho * sigma))
    return _checked_witness(witness, "the wreath construction", seed)


def example_phi(A, phi, seed=SAMPLE_SEED):
    """G = A x A with sigma the swap and rho = (phi, phi^-1); phi must be a
    nontrivial automorphism with x x^phi x^phi2 = 1, checked up front.
    A trivial group passes degenerately with phi = id."""
    elems = A.elements(limit=200000)
    if phi.is_identity() and len(elems) > 1:
        raise ValueError("phi must be a nontrivial automorphism")
    phi_inv = phi.inverse()
    for g in A.gens:
        if not A.contains(phi_inv * g * phi):
            raise ValueError("phi does not normalize the group")
    for x in elems:
        x1 = phi_inv * x * phi
        x2 = phi_inv * x1 * phi
        if not (x * x1 * x2).is_identity():
            raise ValueError("x x^phi x^phi^2 = 1 fails; not a valid phi")
    n = A.degree
    degree = 2 * n

    def emb(p, block):
        img = np.arange(degree, dtype=np.int64)
        img[block * n: block * n + n] = p.a + block * n
        return Perm(img)

    gens = [emb(g, 0) for g in A.gens] + [emb(g, 1) for g in A.gens]
    G = PermGroup(degree, gens)
    swap = np.empty(degree, dtype=np.int64)
    swap[:n] = np.arange(n) + n
    swap[n:] = np.arange(n)
    sigma = Perm(swap)
    rho = Perm(np.concatenate([phi.a, phi_inv.a + n]))
    witness = TrialityWitness(G, sigma, rho, (sigma, sigma * rho, rho * sigma))
    return _checked_witness(witness, "the phi construction", seed)


def example_vector(field, seed=SAMPLE_SEED):
    """Additive group of F^2 with the rotation rho = [[-1,-1],[1,0]] and the
    swap sigma; needs characteristic != 3."""
    if field.p == 3:
        raise ValueError("the vector example degenerates in characteristic 3")
    q = field.q
    degree = q * q

    def point(v0, v1):
        return v0 * q + v1

    V0, V1 = np.divmod(np.arange(degree, dtype=np.int64), q)

    def translation(b0, b1):
        img = np.empty(degree, dtype=np.int64)
        for pid in range(degree):
            img[pid] = point(field.add(int(V0[pid]), b0),
                             field.add(int(V1[pid]), b1))
        return Perm(img)

    basis = [field.from_coeffs([0] * i + [1] + [0] * (field.k - 1 - i))
             for i in range(field.k)]
    gens = [translation(b, 0) for b in basis] + [translation(0, b) for b in basis]
    G = PermGroup(degree, gens)

    sig = np.empty(degree, dtype=np.int64)
    rho_img = np.empty(degree, dtype=np.int64)
    m1 = field.neg(field.one)
    for pid in range(degree):
        x0, x1 = int(V0[pid]), int(V1[pid])
        sig[pid] = point(x1, x0)
        # row vector times [[-1,-1],[1,0]]: (x0,x1) -> (-x0 + x1, -x0)
        rho_img[pid] = point(field.add(field.mul(m1, x0), x1), field.mul(m1, x0))
    sigma, rho = Perm(sig), Perm(rho_img)
    if not (rho * rho * rho).is_identity():
        raise AssertionError("rho does not have order 3")
    witness = TrialityWitness(G, sigma, rho, (sigma, sigma * rho, rho * sigma))
    return _checked_witness(witness, "the vector construction", seed)
