"""The loop / 3-net / group-with-triality dictionary.

A loop L gives a 3-net on L x L with point id x*n + y and three line
classes: vertical (X = c, class 1), horizontal (Y = c, class 2) and
transversal (XY = c, class 3).  Bol reflections are built from the
coordinate formulas, verified to be involutive collineations swapping the
other two classes, and the group they generate carries the triality
structure: sigma and rho act on the direction-preserving part by
conjugation and satisfy [g,s][g,s]^r[g,s]^r2 = 1.

The reverse construction takes such a group and rebuilds a net whose lines
are the three conjugacy classes of reflections, points being the triples
generating a copy of S3."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .loops import SAMPLE_SEED, FiniteLoop
from .permgrp import Perm, PermGroup

VERTICAL, HORIZONTAL, TRANSVERSAL = 1, 2, 3
EXHAUSTIVE_LIMIT = 10000


class NetAxiomError(RuntimeError):
    pass


class NotACollineationError(RuntimeError):
    pass


class LoopNet3:
    """3-net of a loop, materialized as index arithmetic on n^2 points."""

    def __init__(self, loop, cap=128):
        if loop.n > cap:
            raise ValueError("net materialization capped at %d loop elements "
                             "(pass cap=... to raise)" % cap)
        if loop.table is None:
            raise ValueError("net construction needs a table-mode loop")
        self.loop = loop
        self.n = loop.n
        self.n_points = loop.n * loop.n
        self.verify_axioms()

    def line_through(self, point, cls):
        x, y = divmod(point, self.n)
        if cls == VERTICAL:
            return x
        if cls == HORIZONTAL:
            return y
        return int(self.loop.table[x, y])

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

    def lines(self):
        for cls in (VERTICAL, HORIZONTAL, TRANSVERSAL):
            for c in range(self.n):
                yield (cls, c)

    def n_lines(self):
        return 3 * self.n

    def verify_axioms(self):
        """Same-class disjointness, unique cross-class intersection, one
        line per class per point; checked through the division tables."""
        T = self.loop.table
        n = self.n
        idx = np.arange(n, dtype=np.int32)
        # rows and columns of the table are permutations: cross-class
        # intersections exist and are unique
        if not (np.sort(T, axis=1) == idx[None, :]).all():
            raise NetAxiomError("row Latin property fails")
        if not (np.sort(T, axis=0) == idx[:, None]).all():
            raise NetAxiomError("column Latin property fails")
        # division consistency: x * (x \ c) = c and (c / y) * y = c
        if not (T[idx[:, None], self.loop.ldiv] == idx[None, :]).all():
            raise NetAxiomError("left division inconsistent")
        if not (T[self.loop.rdiv, idx[None, :]] == idx[:, None]).all():
            raise NetAxiomError("right division inconsistent")


@dataclass
class Collineation:
    """A verified collineation: point permutation plus the induced action
    on the line classes (a permutation of {1,2,3} stored as a dict)."""

    point_map: Perm
    class_action: dict
    line_maps: dict  # cls -> array, image line indices inside target class

    def is_direction_preserving(self):
        return all(self.class_action[c] == c for c in (1, 2, 3))


def _analyze_point_map(net, img):
    """Classify the image of every line of every class; raise if some line
    image is not a line or the class action is inconsistent."""
    n = net.n
    T = net.loop.table
    Xi = (img // n).reshape(n, n)
    Yi = (img % n).reshape(n, n)
    Ci = T[Xi, Yi]
    class_action = {}
    line_maps = {}

    def classify(rows_x, rows_y, rows_c, cls_name):
        # rows_*: (n_lines, n_points_on_line) coordinate arrays of images
        const_x = (rows_x == rows_x[:, :1]).all(axis=1)
        const_y = (rows_y == rows_y[:, :1]).all(axis=1)
        const_c = (rows_c == rows_c[:, :1]).all(axis=1)
        if const_x.all():
            return VERTICAL, rows_x[:, 0]
        if const_y.all():
            return HORIZONTAL, rows_y[:, 0]
        if const_c.all():
            return TRANSVERSAL, rows_c[:, 0]
        raise NotACollineationError("a %s line maps to a non-line" % cls_name)

    # vertical lines are the rows of the (x, y) grid
    cls, lm = classify(Xi, Yi, Ci, "vertical")
    class_action[VERTICAL] = cls
    line_maps[VERTICAL] = lm
    # horizontal lines are the columns
    cls, lm = classify(Xi.T, Yi.T, Ci.T, "horizontal")
    class_action[HORIZONTAL] = cls
    line_maps[HORIZONTAL] = lm
    # transversal lines: group points by x*y
    order = getattr(net, "_transversal_order", None)
    if order is None:
        order = np.argsort(T.ravel(), kind="stable")
        net._transversal_order = order
    cls, lm = classify(Xi.ravel()[order].reshape(n, n),
                       Yi.ravel()[order].reshape(n, n),
                       Ci.ravel()[order].reshape(n, n), "transversal")
    class_action[TRANSVERSAL] = cls
    line_maps[TRANSVERSAL] = lm

    if sorted(class_action.values()) != [1, 2, 3]:
        raise NotACollineationError("line classes do not permute")
    for cls in (1, 2, 3):
        lm = line_maps[cls]
        if len(np.unique(lm)) != n:
            raise NotACollineationError("line map of class %d not bijective" % cls)
    return class_action, line_maps


def collineation_from_point_map(net, img):
    """Wrap a point permutation as a verified Collineation."""
    img = np.asarray(img, dtype=np.int64)
    perm = Perm(img)
    class_action, line_maps = _analyze_point_map(net, img)
    return Collineation(perm, class_action, line_maps)


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
    coll = collineation_from_point_map(net, img)
    want = {cls: cls}
    others = [c for c in (1, 2, 3) if c != cls]
    want[others[0]], want[others[1]] = others[1], others[0]
    if coll.class_action != want:
        raise NotACollineationError("reflection does not swap the other two classes")
    axis = net.points_of_line(cls, m)
    if not (img[axis] == axis).all():
        raise NotACollineationError("reflection does not fix its axis pointwise")
    return coll


def all_bol_reflections(loop, net=None, cap=128):
    if net is None:
        net = LoopNet3(loop, cap=cap)
    out = {}
    for cls in (1, 2, 3):
        for m in range(loop.n):
            out[(cls, m)] = bol_reflection(loop, cls, m, net=net)
    return out


# ---------------------------------------------------------------------------
# groups with triality


@dataclass
class TrialityWitness:
    group: PermGroup           # the group G acted on by sigma, rho
    sigma: Perm
    rho: Perm
    sigmas: tuple              # (sigma1, sigma2, sigma3) involutions
    log: list = dc_field(default_factory=list)
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


def _triality_identity_holds(g, sigma, rho):
    rho_inv = rho.inverse()
    c = g.inverse() * (sigma * g * sigma)  # [g, sigma], sigma an involution
    c1 = rho_inv * c * rho
    c2 = rho_inv * c1 * rho
    return (c * c1 * c2).is_identity()


def conjugacy_class(G, rep, limit=200000):
    """Orbit of rep under conjugation by the group generators."""
    seen = {rep}
    queue = [rep]
    gen_pairs = [(g, g.inverse()) for g in G.gens]
    while queue:
        p = queue.pop()
        for g, ginv in gen_pairs:
            q = ginv * p * g
            if q not in seen:
                if len(seen) >= limit:
                    raise ValueError("conjugacy class exceeds limit")
                seen.add(q)
                queue.append(q)
    return sorted(seen, key=lambda p: p.a.tobytes())


def triality_check(G, sigma, rho, mode="auto", samples=1000, seed=SAMPLE_SEED,
                   exhaustive_limit=EXHAUSTIVE_LIMIT):
    """Verify the triality identity along two routes and insist they agree.

    Route A is the commutator identity [g,s][g,s]^r[g,s]^r2 = 1; route B is
    the reformulation (tau_i tau_j)^3 = 1 on the conjugacy classes of the
    three involutions.  mode "exhaustive" enumerates G and the classes;
    "sampled" draws seeded random elements; "auto" picks exhaustive when the
    group is small enough.  Returns (ok, details)."""
    if not _s3_relations_hold(G, sigma, rho):
        raise ValueError("sigma, rho do not satisfy the S3 relations as actions")
    sigmas = (sigma, sigma * rho, rho * sigma)
    if mode == "auto":
        exhaustive = G.degree <= 2048
        if exhaustive:
            try:
                elements = G.elements(limit=exhaustive_limit)
            except ValueError:
                exhaustive = False
    elif mode == "exhaustive":
        exhaustive = True
        elements = G.elements(limit=10 ** 7)
    else:
        exhaustive = False

    details = {"mode": "exhaustive" if exhaustive else "sampled"}
    ok_a = True
    witness = None
    if exhaustive:
        checked = 0
        for g in elements:
            if not _triality_identity_holds(g, sigma, rho):
                ok_a = False
                witness = g
                break
            checked += 1
        details["identity_checked"] = checked
    else:
        rng = np.random.default_rng(seed)
        checked = 0
        for g in G.gens:
            if not _triality_identity_holds(g, sigma, rho):
                ok_a = False
                witness = g
                break
            checked += 1
        if ok_a:
            for _ in range(samples):
                g = G.random_element(rng)
                if not _triality_identity_holds(g, sigma, rho):
                    ok_a = False
                    witness = g
                    break
                checked += 1
        details["identity_checked"] = checked

    ok_b = True
    pair_witness = None
    if exhaustive:
        classes = [conjugacy_class(G, s) for s in sigmas]
        pairs = 0
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                for ti in classes[i]:
                    for tj in classes[j]:
                        p = ti * tj
                        if not (p * p * p).is_identity():
                            ok_b = False
                            pair_witness = (ti, tj)
                            break
                        pairs += 1
                    if not ok_b:
                        break
                if not ok_b:
                    break
        details["pairs_checked"] = pairs
    else:
        rng = np.random.default_rng(seed + 1)
        pairs = 0
        for _ in range(samples):
            i, j = rng.permutation(3)[:2]
            wi = G.random_element(rng)
            wj = G.random_element(rng)
            ti = wi.inverse() * sigmas[i] * wi
            tj = wj.inverse() * sigmas[j] * wj
            p = ti * tj
            if not (p * p * p).is_identity():
                ok_b = False
                pair_witness = (ti, tj)
                break
            pairs += 1
        details["pairs_checked"] = pairs

    details["identity_ok"] = ok_a
    details["pairs_ok"] = ok_b
    details["routes_agree"] = (ok_a == ok_b)
    details["witness"] = witness if witness is not None else pair_witness
    if ok_a != ok_b and exhaustive:
        raise AssertionError("commutator and class-pair routes disagree")
    return (ok_a and ok_b), details


def triality_group_from_loop(loop, cap=128, mode="auto", samples=1000,
                             seed=SAMPLE_SEED):
    """Bol-reflection group of the net of a Moufang loop, split into the
    direction-preserving part plus the S3 of reflections through the origin.

    The direction-preserving part is generated by the products
    sigma_m sigma_e taken within each class (the same Schreier generators
    the class-action kernel construction would produce, already reduced).
    """
    net = LoopNet3(loop, cap=cap)
    refl = all_bol_reflections(loop, net=net)
    e = loop.neutral
    s1 = refl[(VERTICAL, e)].point_map
    s2 = refl[(HORIZONTAL, e)].point_map
    s3 = refl[(TRANSVERSAL, e)].point_map
    if not (s1 * s2 * s1 == s3 and (s2 * s1 * s2) == s3):
        raise AssertionError("origin reflections do not close into S3")
    sigma = s1
    rho = s1 * s2
    origin_sigma = {VERTICAL: s1, HORIZONTAL: s2, TRANSVERSAL: s3}
    m0_gens = []
    for (cls, m), coll in refl.items():
        if m == e:
            continue
        m0_gens.append(coll.point_map * origin_sigma[cls])
    M = PermGroup(net.n_points, [c.point_map for c in refl.values()])
    M0 = PermGroup(net.n_points, m0_gens)
    witness = TrialityWitness(M0, sigma, rho, (s1, s2, s3),
                              origin_net=net, full_group=M)
    ok, details = triality_check(M0, sigma, rho, mode=mode, samples=samples,
                                 seed=seed)
    witness.log.append("triality=%s %r" % ("PASS" if ok else "FAIL", details))
    if not ok:
        raise AssertionError("triality identity failed on the net of a "
                             "purported Moufang loop: %r" % (details,))
    return witness


# ---------------------------------------------------------------------------
# nets from groups with triality


class TrialityNet3:
    """Net in primal form built from a group with triality: lines are the
    three conjugacy classes of involutions, points the S3-generating
    triples.  Point ids index the triple list."""

    def __init__(self, witness, class_limit=EXHAUSTIVE_LIMIT):
        G = witness.group
        sigmas = witness.sigmas
        self.classes = [conjugacy_class(G, s, limit=class_limit) for s in sigmas]
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


def net_from_triality(witness, class_limit=EXHAUSTIVE_LIMIT):
    return TrialityNet3(witness, class_limit=class_limit)


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


def _regular_blocks(A, copies, limit=200000):
    """Element list of A plus right-translation images on several disjoint
    regular blocks; returns (elements, index, degree)."""
    elems = A.elements(limit=limit)
    index = {p: i for i, p in enumerate(elems)}
    return elems, index, len(elems) * copies


def example_wreath(A, mode="auto", seed=SAMPLE_SEED):
    """G = A^3 with sigma swapping the first two coordinates and rho cycling
    them; acts on three regular blocks."""
    elems, index, degree = _regular_blocks(A, 3)
    if len(elems) > 100:
        raise ValueError("wreath example capped at |A| <= 100")
    N = len(elems)

    def block_perm(block, g):
        img = np.arange(degree, dtype=np.int64)
        base = block * N
        for i, p in enumerate(elems):
            img[base + i] = base + index[p * g]
        return Perm(img)

    gens = []
    for g in A.gens:
        for b in range(3):
            gens.append(block_perm(b, g))
    G = PermGroup(degree, gens)

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
    ok, details = triality_check(G, sigma, rho, mode=mode, seed=seed)
    witness.log.append("triality=%s %r" % ("PASS" if ok else "FAIL", details))
    if not ok:
        raise AssertionError("wreath construction failed the triality identity")
    return witness


def example_phi(A, phi, mode="auto", seed=SAMPLE_SEED):
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
    ok, details = triality_check(G, sigma, rho, mode=mode, seed=seed)
    witness.log.append("triality=%s %r" % ("PASS" if ok else "FAIL", details))
    if not ok:
        raise AssertionError("phi construction failed the triality identity")
    return witness


def example_vector(field, mode="auto", seed=SAMPLE_SEED):
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
    ok, details = triality_check(G, sigma, rho, mode=mode, seed=seed)
    witness.log.append("triality=%s %r" % ("PASS" if ok else "FAIL", details))
    if not ok:
        raise AssertionError("vector construction failed the triality identity")
    return witness
