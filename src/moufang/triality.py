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
generating a copy of S3.  Both nets are one Net3 on a Latin square, and a
coordinate loop is one gather on that square and its division tables."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from . import fields
from .fields import SAMPLE_SEED, blocks
from .loops import FiniteLoop, require_latin, require_table_fits
from .permgrp import Perm, PermGroup, compose, invert, orbit, row_lookup

VERTICAL, HORIZONTAL, TRANSVERSAL = 1, 2, 3
EXHAUSTIVE_LIMIT = 10000


class NetAxiomError(RuntimeError):
    pass


class NotACollineationError(RuntimeError):
    pass


class Net3:
    """The 3-net of an n x n Latin square: point x*n + y lies on vertical
    line x (class 1), horizontal line y (class 2) and transversal line
    square[x, y] (class 3); line c of class cls has id (cls-1)*n + c.  The
    square's row and column inverses ldiv and rdiv give the points of the
    transversals and the meets with them."""

    def __init__(self, square):
        self.square = square
        self.n = len(square)
        self.n_points = self.n * self.n

    @cached_property
    def ldiv(self):
        """ldiv[x, c] is the y with square[x, y] = c: the rows inverted."""
        return invert(self.square)

    @cached_property
    def rdiv(self):
        """rdiv[c, y] is the x with square[x, y] = c: the columns inverted."""
        return invert(self.square.T).T

    @cached_property
    def transversal_points(self):
        """Row c lists the points of transversal line c by x, as
        points_of_line(TRANSVERSAL, c) does; int32, since n^2 <= 11.2M."""
        return np.arange(self.n, dtype=np.int32) * self.n + self.ldiv.T

    def line_through(self, point, cls):
        """The line of class cls through the point, by its index in the
        class; for an array of points, an array of lines."""
        x, y = divmod(point, self.n)
        if cls == VERTICAL:
            return x
        if cls == HORIZONTAL:
            return y
        line = self.square[x, y]
        return line if np.ndim(line) else int(line)

    def points_of_line(self, cls, c):
        n = self.n
        idx = np.arange(n, dtype=np.int64)
        if cls == VERTICAL:
            return c * n + idx
        if cls == HORIZONTAL:
            return idx * n + c
        return idx * n + self.ldiv[idx, c]

    def n_lines(self):
        return 3 * self.n


class LoopNet3(Net3):
    """3-net of a loop: its square is the loop's Cayley table, and its
    division tables are the loop's own, built when first read.  The net
    axioms hold by construction, since FiniteLoop validates its table."""

    ldiv = property(lambda self: self.loop.ldiv)
    rdiv = property(lambda self: self.loop.rdiv)

    def __init__(self, loop):
        super().__init__(loop.table)
        self.loop = loop

    def origin(self):
        e = self.loop.neutral
        return e * self.n + e

    def point_label(self, point):
        x, y = divmod(point, self.n)
        return "(%s,%s)" % (self.loop.labels[x], self.loop.labels[y])


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


# Bytes per point while a point map is checked in row blocks of n points:
# a block's image points, one of their coordinates and its comparison with
# the line's first point, or the involution check's gather and arange.
_POINT_CHECK_BYTES = 16


def _line_images(net, img, cls, s, e):
    """The images of the points of lines s..e-1 of class cls, one line per
    row: vertical lines are rows of the (x, y) grid, horizontal lines its
    columns, both views; transversal lines gather their points."""
    grid = img.reshape(net.n, net.n)
    if cls == VERTICAL:
        return grid[s:e]
    if cls == HORIZONTAL:
        return grid[:, s:e].T
    return img[net.transversal_points[s:e]]


def _analyze_point_map(net, img, expect):
    """The 3n line images of a point map (int32, one image a point), as an
    int32 array indexed and valued by line id; raise if some line image is
    not a line or the line classes do not permute.  A line image is a line
    of several classes only in the 1-point net (points on a line are
    distinct and the table is Latin), and there class cls goes to
    expect[cls - 1].  The lines of a class are checked in row blocks, each
    image point read as its coordinate of class k: x, y or the square's xy."""
    n = net.n
    S = net.square.ravel()
    coordinate = {VERTICAL: lambda P: P // n, HORIZONTAL: lambda P: P % n,
                  TRANSVERSAL: lambda P: S[P]}
    lines = np.empty(3 * n, dtype=np.int32)
    heads = np.empty((3, n), dtype=np.int32)  # each line's coordinates, while constant
    action = []
    for cls, name in ((VERTICAL, "vertical"), (HORIZONTAL, "horizontal"),
                      (TRANSVERSAL, "transversal")):
        fits = [1, 2, 3]  # the classes of the line images so far
        for s, e in blocks(n, _POINT_CHECK_BYTES * n):
            P = _line_images(net, img, cls, s, e)
            for k in list(fits):
                C = coordinate[k](P)
                if (C == C[:, :1]).all():
                    heads[k - 1, s:e] = C[:, 0]
                else:
                    fits.remove(k)
            if not fits:
                raise NotACollineationError("a %s line maps to a non-line" % name)
        to = expect[cls - 1] if expect[cls - 1] in fits else fits[0]
        action.append(to)
        lines[(cls - 1) * n: cls * n] = (to - 1) * n + heads[to - 1]
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
    perm = Perm(img)
    return Collineation(perm, Perm(_analyze_point_map(net, perm.a, expect), _checked=True))


def diagonal_point_map(net, alpha):
    """(x, y) -> (x a, y a) for a map alpha given as an index array: the
    int32 point images, broadcast from alpha's n values."""
    n = net.n
    alpha = np.asarray(alpha, dtype=np.int32)
    img = np.empty(n * n, dtype=np.int32)
    np.add(alpha[:, None] * n, alpha, out=img.reshape(n, n))
    return img


def bol_reflection(loop, cls, m, net=None):
    """Bol reflection with axis X=m / Y=m / XY=m, from the coordinate
    formulas; verified to be an involution and a collineation that fixes
    its axis pointwise and swaps the other two classes.

    For loops without two-sided inverses, or when the verification fails,
    NotACollineationError is raised; by the Bol criterion that identifies
    exactly the non-Moufang inputs.  The int32 point images are built with
    the terms that depend on x or y alone broadcast from n values, and the
    others read through one row or column of the table."""
    if net is None:
        net = LoopNet3(loop)
    n = loop.n
    T = loop.table
    inv = loop.two_sided_inverses()
    if inv is None:
        raise NotACollineationError("loop has one-sided inverses only; "
                                    "reflection formulas need x^-1")
    # the images in point order, img[x * n + y] for the point (x, y)
    if cls == VERTICAL:
        # (x, y) -> (m (x^-1 m), m^-1 (x y))
        img = T[inv[m]][T.ravel()]
        img.reshape(n, n)[:] += T[m, T[inv, m]][:, None] * n
    elif cls == HORIZONTAL:
        # (x, y) -> ((x y) m^-1, (m y^-1) m)
        img = (T[:, inv[m]] * n)[T.ravel()]
        img.reshape(n, n)[:] += T[T[m, inv], m]
    elif cls == TRANSVERSAL:
        # (x, y) -> (m y^-1, x^-1 m)
        img = np.empty(n * n, dtype=np.int32)
        np.add(T[m, inv] * n, T[inv, m][:, None], out=img.reshape(n, n))
    else:
        raise ValueError("class must be 1, 2 or 3")
    for s, e in blocks(n, _POINT_CHECK_BYTES * n):
        if (img[img[s * n:e * n]] != np.arange(s * n, e * n)).any():
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
# the transversal points (4), the 3n line permutations (36) and, during a
# check on points, that reflection's int32 images and their mark (5).
# tracemalloc peaks: 53-54 at Z(1024), at Z2^10 (whose last check runs with
# half of the reflections held) and at M*(3) with the price lifted, 82 at
# Z(200).  The price is kept at 128, which admits Z(1024) and refuses M*(3).
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


class TrialityNet3(Net3):
    """Net in primal form built from a group with triality: lines are the
    three conjugacy classes of involutions, points the S3-generating
    triples (t1, t2, t1 t2 t1).  Point i1*m + i2 is the triple of t1 = line
    i1 of class 1 and t2 = line i2 of class 2, and square[i1, i2] is the
    index of t1 t2 t1 in class 3."""

    def __init__(self, witness):
        G = witness.group
        self.classes = [conjugacy_class(G, s, limit=EXHAUSTIVE_LIMIT) for s in witness.sigmas]
        C1, C2, C3 = (np.stack([p.a for p in cls]) for cls in self.classes)
        m1, m2 = len(C1), len(C2)
        require_table_fits(max(m1, m2))
        find = row_lookup(C3)
        square = np.empty(m1 * m2, dtype=np.int32)
        for s, e in blocks(m1 * m2, _CHECK_IMAGE_BYTES * G.degree):
            A, B = C1[np.arange(s, e) // m2], C2[np.arange(s, e) % m2]
            if (A == B).all(axis=1).any():
                raise NetAxiomError("line classes intersect")
            if _cube_fails(A, B).any():
                raise NetAxiomError("(tau1 tau2)^3 != id; not a triality group")
            square[s:e] = find(compose(compose(A, B), A))
            if (square[s:e] < 0).any():
                raise NetAxiomError("third reflection falls outside class 3")
        if not m1 == m2 == len(C3):
            raise NetAxiomError("some cross-class line pair never meets")
        super().__init__(square.reshape(m1, m2))
        try:
            require_latin(self.square)
        except ValueError:
            raise NetAxiomError("two lines meet twice") from None

    def point_label(self, point):
        # points are named by their class-index triple; any relabeling is
        # an isomorphism of the incidence structure
        i1, i2 = divmod(point, self.n)
        return "T(%d,%d,%d)" % (i1, i2, self.square[i1, i2])


# ---------------------------------------------------------------------------
# coordinate loops of arbitrary nets


def coordinate_loop(net, origin=None):
    """Loop on the horizontal line through the origin (x0, y0), by the
    projection construction: lift the right factor to the vertical line x0
    along its transversal, move horizontally, cut with the left factor's
    vertical line, and project back along the transversal.  Point (x, y0)
    is element x, and with S the net's square the table is one gather,
    x * y = rdiv[S[x, ldiv[x0, S[y, y0]]], y0]."""
    if origin is None:
        origin = net.origin()
    n, S = net.n, net.square
    x0, y0 = divmod(int(origin), n)
    table = net.rdiv[S[:, net.ldiv[x0, S[:, y0]]], y0]
    loop = FiniteLoop(n, labels=[net.point_label(x * n + y0) for x in range(n)], table=table)
    if loop.neutral != x0:
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
    V0, V1 = np.divmod(np.arange(q * q, dtype=np.int64), q)

    def translation(b0, b1):
        return Perm(field.vadd(V0, b0) * q + field.vadd(V1, b1))

    basis = [field.from_coeffs([0] * i + [1] + [0] * (field.k - 1 - i))
             for i in range(field.k)]
    gens = [translation(b, 0) for b in basis] + [translation(0, b) for b in basis]
    G = PermGroup(q * q, gens)
    # sigma swaps the coordinates; rho is the row vector times
    # [[-1,-1],[1,0]]: (x0, x1) -> (-x0 + x1, -x0)
    sigma = Perm(V1 * q + V0)
    rho = Perm(field.vadd(field.vneg(V0), V1) * q + field.vneg(V0))
    if not (rho * rho * rho).is_identity():
        raise AssertionError("rho does not have order 3")
    witness = TrialityWitness(G, sigma, rho, (sigma, sigma * rho, rho * sigma))
    return _checked_witness(witness, "the vector construction", seed)
