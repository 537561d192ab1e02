from fractions import Fraction

import numpy as np
import pytest

from moufang import cayley, loops, paige
from moufang.fields import field_make
from moufang.paige import ZornMatrix
from moufang.permgrp import Perm, PermGroup


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
