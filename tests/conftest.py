from fractions import Fraction

import numpy as np
import pytest

from moufang import cayley, loops, paige, triality
from moufang.fields import field_make
from moufang.paige import ZornMatrix
from moufang.permgrp import Perm, PermGroup
from moufang.triality import HORIZONTAL, TRANSVERSAL, VERTICAL, NetAxiomError


class Rationals:
    """The exact rational field, with the scalar operations cd_double uses:
    the doubling over it is the reference of cayley's integer structure
    constants."""

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def is_zero(a):
        return a == 0


QQ = Rationals()


def _dot(F, u, v):
    return F.add(F.add(F.mul(u[0], v[0]), F.mul(u[1], v[1])), F.mul(u[2], v[2]))


def cayley_product_oracle(X, Y):
    """4 xy for each pair of rows of doubled coordinates, as (N, 64) outer
    products times cayley's (64, 8) structure tensor: 512 multiply-adds a
    product, against the 64 signed terms of mul_batch.  An even row is
    twice the doubled product; an odd entry marks a product off the
    half-integer lattice."""
    X, Y = np.asarray(X, dtype=np.int64), np.asarray(Y, dtype=np.int64)
    return (X[:, :, None] * Y[:, None, :]).reshape(len(X), 64) @ cayley._structure_constants()


def zorn_mul_oracle(x, y):
    """Independent component-wise evaluation of the product formula, on the
    field's scalar operations."""
    F = x.field
    a, al, be, b = x.a, x.alpha, x.beta, x.b
    c, ga, de, d = y.a, y.alpha, y.beta, y.b

    def cross(u, v):
        return (F.sub(F.mul(u[1], v[2]), F.mul(u[2], v[1])),
                F.sub(F.mul(u[2], v[0]), F.mul(u[0], v[2])),
                F.sub(F.mul(u[0], v[1]), F.mul(u[1], v[0])))

    top = F.add(F.mul(a, c), _dot(F, al, de))
    cr1 = cross(be, de)
    upper = tuple(F.sub(F.add(F.mul(a, ga[i]), F.mul(d, al[i])), cr1[i])
                  for i in range(3))
    cr2 = cross(al, ga)
    lower = tuple(F.add(F.add(F.mul(c, be[i]), F.mul(b, de[i])), cr2[i])
                  for i in range(3))
    bottom = F.add(_dot(F, be, ga), F.mul(b, d))
    return ZornMatrix(F, top, upper, lower, bottom)


def zorn_norm_oracle(x):
    """ab - alpha.beta on the field's scalar operations."""
    F = x.field
    return F.sub(F.mul(x.a, x.b), _dot(F, x.alpha, x.beta))


def enumerate_unit_coords_oracle(field):
    """All norm-one Zorn matrices over the field in ascending canonical
    (packed) order, by the one-shot route: every (alpha, beta) from a
    meshgrid, b solved per a, and one argsort of the packs."""
    eng = paige.ZornEngine.of(field)
    elems_canonical = np.array(field.elements(), dtype=np.int64)
    grids = np.meshgrid(*([elems_canonical] * 6), indexing="ij")
    combos = np.stack([g.ravel() for g in grids], axis=-1)  # (q^6, 6)
    dots = eng.dot3(combos[:, 0:3], combos[:, 3:6])
    blocks = []
    one = field.one
    for a in elems_canonical:
        if a == 0:  # alpha.beta = -1, any b
            ab = combos[dots == field.vneg(one)]
            blocks += [np.column_stack([np.zeros(len(ab), np.int64), ab,
                                        np.full(len(ab), b)]) for b in elems_canonical]
        else:  # b = (1 + alpha.beta) / a
            b = field.vmul(field.vadd(dots, one), field.inv(int(a)))
            blocks.append(np.column_stack([np.full(len(combos), a), combos, b]))
    coords = np.concatenate(blocks, axis=0)
    coords = coords[np.argsort(eng.pack(coords), kind="stable")]
    assert (eng.norm(coords) == one).all()
    return coords


def inner_images_oracle(loop, sub):
    """One sweep of the inner-map generators T_x: s -> x \\ (sx),
    L(x, y): s -> (yx) \\ (y(xs)) and R(x, y): s -> ((sx)y) / (xy) on both
    division tables, x by x: the sorted images of sub outside it under the
    first x with any, or None when every inner mapping fixes sub."""
    T, LD, RD = loop.table, loop.ldiv, loop.rdiv
    member = np.zeros(loop.n, dtype=bool)
    member[sub] = True
    S = np.asarray(sub, dtype=np.int64)
    for x in range(loop.n):
        pool = np.concatenate([LD[x, T[S, x]],
                               LD[T[:, x][:, None], T[:, T[x, S]]].ravel(),
                               RD[T[T[S, x]], T[x, :][None, :]].ravel()])
        fresh = pool[~member[pool]]
        if len(fresh):
            return np.unique(fresh)
    return None


def normal_closure_oracle(loop, seed):
    """The smallest normal subloop containing seed: multiplicative closure
    alternating with full sweeps of inner_images_oracle."""
    sub = loops.closure_indices(loop, seed)
    while len(sub) < loop.n:
        fresh = inner_images_oracle(loop, sub)
        if fresh is None:
            break
        sub = loops.closure_indices(loop, np.concatenate([sub, fresh]))
    return sub


def subloop_sizes_oracle(loop):
    """Per element x, the size of <x>: one closure per element."""
    return [len(loops.closure_indices(loop, [x])) for x in range(loop.n)]


def closure_oracle(generators, mult, one):
    """The smallest multiplicatively closed set of rows holding the
    generators and one, as a set of tuples, by the level-batched closure
    that loops.closure replaced: each level multiplies, in one mult call,
    every pair of the rows so far with a factor in the level before."""
    rows = list(dict.fromkeys(tuple(int(v) for v in r) for r in list(generators) + [one]))
    start = 0
    while start < len(rows):
        end = len(rows)
        i, j = np.divmod(np.arange(end * end), end)
        fresh = np.maximum(i, j) >= start
        E = np.array(rows, dtype=np.int64)
        products = np.asarray(mult(E[i[fresh]], E[j[fresh]]))
        known = set(rows)
        for p in map(tuple, products.tolist()):
            if p not in known:
                known.add(p)
                rows.append(p)
        start = end
    return set(rows)


def extender_oracle(L1, L2, gens, levels, candidates):
    """The backtracking that loops._extender replaced, with the same
    signature: for each generator prefix a derivation schedule, products
    (a, b -> c) found by a breadth-first walk on Python sets that reach every
    element of the prefix's subloop; extend(level, trial, images) completes
    the map on the level's subloop one scalar product of the schedule at a
    time, checks that it is injective and carries every product there, and
    at the leaf checks the whole table."""
    T1, T2 = L1.table, L2.table
    schedules = []
    for gi in range(len(gens)):
        known = set([L1.neutral] + gens[: gi + 1])
        order = [L1.neutral] + gens[: gi + 1]
        steps = []
        while len(known) < len(levels[gi]):
            grew = False
            for a in list(order):
                for b in list(order):
                    c = int(T1[a, b])
                    if c not in known:
                        known.add(c)
                        order.append(c)
                        steps.append((a, b, c))
                        grew = True
            assert grew, "derivation schedule failed to close"
        schedules.append((steps, np.asarray(levels[gi], dtype=np.int64)))

    def extend(level, trial, images=None):
        if level == len(gens):
            every = np.arange(len(trial))
            return trial if loops._carries_products(T1, T2, trial, trial, trial,
                                                    every) else None
        steps, sub = schedules[level]
        for h in candidates[level] if images is None else images:
            if (trial == h).any():
                continue
            t = trial.copy()
            t[gens[level]] = h
            ok = True
            for a, b, c in steps:
                v = T2[t[a], t[b]]
                if t[c] < 0:
                    t[c] = v
                elif t[c] != v:
                    ok = False
                    break
            if not ok or np.bincount(t[sub]).max() > 1:
                continue
            if not loops._carries_products(T1, T2, t, t, t, sub):
                continue
            m = extend(level + 1, t)
            if m is not None:
                return m
        return None

    return extend


# The stabilizer chains the stack transversals must reproduce: base, number
# of strong generators and basic orbit lengths.
CHAIN_SHAPES = {
    "Mlt(M*(2))": ([0, 8, 24, 2, 10, 4], 20, [120, 63, 30, 16, 8, 6]),
    "Mlt(M*(3))": ([0, 27, 108, 1, 3, 30, 9], 21, [1080, 351, 126, 80, 36, 12, 3]),
    "Aut(M*(3))": ([9, 3, 0], 13, [351, 224, 54]),
    "M0 of net-paige2": ([1, 10, 8, 24, 2, 0, 4], 15, [120, 56, 36, 15, 8, 3, 2]),
    "Mlt(Z(3300))": ([0], 1, [3300]),
}


def chain_shape(G):
    """The base, strong generator count and basic orbit lengths of G's
    completed chain."""
    G.order()
    return G.base(), len(G._strong_gens(0)), [len(lv.orbit_list) for lv in G._levels]


def point_orbit_oracle(point, perms):
    """The orbit of point under the Perms, as a set, by a scalar walk."""
    orbit = {point}
    todo = [point]
    while todo:
        x = todo.pop()
        for p in perms:
            y = int(p.a[x])
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return orbit


def conjugacy_class_oracle(G, rep, limit=200000):
    """The orbit of rep under conjugation g^-1 p g by G's generators, kept
    as a set of Perms and sorted by image bytes."""
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


def concurrent_pair_failures_oracle(net, refl, points):
    """Per point, the six ordered pairs of distinct lines through it whose
    reflections' product does not cube to 1, by Perm products."""
    bad = 0
    for p in points:
        lines = [(c, net.line_through(int(p), c)) for c in (1, 2, 3)]
        for first in lines:
            for second in lines:
                if first != second:
                    prod = refl[first] * refl[second]
                    bad += not (prod * prod * prod).is_identity()
    return bad


def loop_from_perm_group_table_oracle(group):
    """The table loops.loop_from_perm_group builds, by the n^2 Perm products
    and the dict it replaced: cell (i, j) is the index of p_i p_j among the
    group's elements."""
    elems = group.elements(limit=5000)
    index = {p: i for i, p in enumerate(elems)}
    return np.array([[index[p * q] for q in elems] for p in elems], dtype=np.int32)


class TrialityNetOracle:
    """The net of a group with triality by the construction that
    triality.TrialityNet3 replaced: a Python double loop over the pairs
    (t1, t2) of class 1 and class 2, by Perm products, that keeps the point
    triples (i1, i2, i3) with t3 = t1 t2 t1 and a dict of the 3 m^2 line
    pairs that meet, raising NetAxiomError as TrialityNet3 does.  Point
    i1 * m + i2 is row i1 * m + i2 of the (m^2, 3) array points."""

    def __init__(self, witness):
        G = witness.group
        self.classes = [triality.conjugacy_class(G, s, limit=triality.EXHAUSTIVE_LIMIT)
                        for s in witness.sigmas]
        c3_index = {p: i for i, p in enumerate(self.classes[2])}
        points, pair_to_point = [], {}
        for i1, t1 in enumerate(self.classes[0]):
            for i2, t2 in enumerate(self.classes[1]):
                if t1 == t2:
                    raise NetAxiomError("line classes intersect")
                prod = t1 * t2
                if not (prod * prod * prod).is_identity():
                    raise NetAxiomError("(tau1 tau2)^3 != id; not a triality group")
                i3 = c3_index.get(t1 * t2 * t1)
                if i3 is None:
                    raise NetAxiomError("third reflection falls outside class 3")
                for key in (((1, i1), (2, i2)), ((1, i1), (3, i3)), ((2, i2), (3, i3))):
                    if key in pair_to_point:
                        raise NetAxiomError("two lines meet twice")
                    pair_to_point[key] = len(points)
                points.append((i1, i2, i3))
        s1, s2, s3 = (len(c) for c in self.classes)
        if len(pair_to_point) != s1 * s2 + s1 * s3 + s2 * s3:
            raise NetAxiomError("some cross-class line pair never meets")
        self.points = np.array(points, dtype=np.int64).reshape(-1, 3)
        self.n = s1

    def line_through(self, point, cls):
        return self.points[point, cls - 1]

    def points_of_line(self, cls, c):
        return np.flatnonzero(self.points[:, cls - 1] == c)

    def point_label(self, point):
        return "T(%d,%d,%d)" % tuple(self.points[point])


def meet_oracle(net, cls1, c1, cls2, c2):
    """The one point on line c1 of class cls1 and line c2 of class cls2, by
    a scan of the points of the first line that is not transversal."""
    if cls1 == TRANSVERSAL:
        cls1, c1, cls2, c2 = cls2, c2, cls1, c1
    pts = net.points_of_line(cls1, c1)
    (point,) = pts[np.asarray(net.line_through(pts, cls2)) == c2]
    return int(point)


def coordinate_loop_oracle(net, origin):
    """The coordinate loop that triality.coordinate_loop forms, by the scalar
    projection it replaced, one product at a time: lift the right factor to
    the vertical line through the origin along its transversal, move
    horizontally to the left factor's vertical line, and project back to
    the horizontal line through the origin along the transversal."""
    ell = int(net.line_through(origin, HORIZONTAL))
    k = int(net.line_through(origin, VERTICAL))
    carrier = [int(p) for p in net.points_of_line(HORIZONTAL, ell)]
    index = {p: i for i, p in enumerate(carrier)}

    def mult(p, q):
        lift = meet_oracle(net, TRANSVERSAL, net.line_through(q, TRANSVERSAL), VERTICAL, k)
        h = net.line_through(lift, HORIZONTAL)
        r = meet_oracle(net, HORIZONTAL, h, VERTICAL, net.line_through(p, VERTICAL))
        return index[meet_oracle(net, TRANSVERSAL, net.line_through(r, TRANSVERSAL),
                                 HORIZONTAL, ell)]

    n = len(carrier)
    table = np.array([[mult(p, q) for q in carrier] for p in carrier], dtype=np.int32)
    loop = loops.FiniteLoop(n, labels=[net.point_label(p) for p in carrier], table=table)
    assert loop.neutral == index[origin], "origin is not the neutral element"
    return loop


def corrupt_one_reflection(refl, n):
    """A copy of the reflections keyed (class, axis) in which the horizontal
    one of axis 5 is replaced by its product with another reflection, no
    longer an involution."""
    out = dict(refl)
    out[(2, 5)] = refl[(2, 5)] * refl[(1, 3 % n)]
    return out


def frobenius_map(elem):
    """Coordinate-wise p-th power on a Zorn matrix."""
    return ZornMatrix.from_coords(elem.field,
                                  tuple(elem.field.frobenius(c) for c in elem.coords()))


def frobenius_perm(loop):
    """The permutation induced by x -> x^p on a loop built by paige."""
    backend = loop.zorn
    field = backend.field
    out = field.vpow(backend.coords, field.p)
    if backend.quotient:
        out = backend.engine.canon(out)
    return Perm(backend.lookup(backend.engine.pack(out)))


@pytest.fixture(scope="session")
def gf2():
    return field_make(2)


@pytest.fixture(scope="session")
def gf3():
    return field_make(3)


@pytest.fixture(scope="session")
def gf5():
    return field_make(5)


@pytest.fixture(scope="session")
def gf7():
    return field_make(7)


@pytest.fixture(scope="session")
def gf4():
    return field_make(2, 2)


@pytest.fixture(scope="session")
def m2():
    return paige.paige_loop(2)


@pytest.fixture(scope="session")
def m3():
    return paige.paige_loop(3)


@pytest.fixture(scope="session")
def u3():
    return paige.unit_loop(3)


@pytest.fixture(scope="session")
def s3_group():
    return PermGroup(3, [Perm([1, 0, 2]), Perm([0, 2, 1])])


@pytest.fixture(scope="session")
def s3_loop(s3_group):
    return loops.loop_from_perm_group(s3_group)


@pytest.fixture()
def rng():
    return np.random.default_rng(0x5EED)


# 5-element loop with two-sided inverses that is not Moufang; found by
# scanning reduced 5x5 Latin squares, frozen here
NON_MOUFANG_5 = np.array([
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
], dtype=np.int32)


@pytest.fixture(scope="session")
def non_moufang_loop():
    return loops.FiniteLoop(5, table=NON_MOUFANG_5)


# 5-element loop where 2 has right inverse 3 (2*3 = 0) but left inverse 4
# (4*2 = 0); found by scanning reduced 5x5 Latin squares, frozen here
ONE_SIDED_5 = np.array([
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
], dtype=np.int32)


@pytest.fixture(scope="session")
def one_sided_loop():
    return loops.FiniteLoop(5, table=ONE_SIDED_5)
