import tracemalloc
from itertools import product

import numpy as np
import pytest

from conftest import (TrialityNetOracle, concurrent_pair_failures_oracle,
                      conjugacy_class_oracle, coordinate_loop_oracle,
                      corrupt_one_reflection)
from moufang import fields, loops, paige, triality
from moufang.fields import UsageError, field_make
from moufang.loops import cyclic_loop, find_isomorphism
from moufang.permgrp import Perm, PermGroup
from moufang.triality import (HORIZONTAL, TRANSVERSAL, VERTICAL, LoopNet3,
                              NetAxiomError, NotACollineationError,
                              TrialityNet3, TrialityWitness, all_bol_reflections,
                              bol_reflection, collineation_from_point_map,
                              concurrent_pair_failures, conjugacy_class,
                              coordinate_loop, diagonal_point_map,
                              example_phi, example_vector, example_wreath,
                              triality_check, triality_group_from_loop)


# ---------------------------------------------------------------------------
# nets from loops


def test_net_z2_counts():
    net = LoopNet3(cyclic_loop(2))
    assert net.n_points == 4
    assert net.n_lines() == 6


def test_net_z3_counts_and_axioms():
    net = LoopNet3(cyclic_loop(3))
    assert net.n_points == 9 and net.n_lines() == 9
    # explicit axiom checks on top of the construction-time ones
    pts = list(range(9))
    for cls in (1, 2, 3):
        lines = [set(map(int, net.points_of_line(cls, c))) for c in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (lines[i] & lines[j])
        assert set().union(*lines) == set(pts)
    # two lines of different classes meet in exactly one point
    for cls1, cls2 in ((1, 2), (1, 3), (2, 3)):
        for c1 in range(3):
            for c2 in range(3):
                (p,) = set(map(int, net.points_of_line(cls1, c1))) & \
                    set(map(int, net.points_of_line(cls2, c2)))
                assert net.line_through(p, cls1) == c1
                assert net.line_through(p, cls2) == c2


def test_net_cap(monkeypatch):
    # a net needs only its loop's tables, so no knob limits it
    assert LoopNet3(cyclic_loop(200)).n_points == 40000

    # bol-check on 1025 elements is priced past the memory budget, 1024 is
    # not, and the refusal comes before the first reflection is built
    triality.require_reflections_fit(1024)

    def build(*args, **kwargs):
        raise AssertionError("a reflection was built")
    monkeypatch.setattr(triality, "bol_reflection", build)
    with pytest.raises(UsageError, match="memory budget"):
        all_bol_reflections(cyclic_loop(1025))


@pytest.mark.parametrize("loop_name", ["z1", "z3", "s3", "m2"])
def test_transversal_points_are_the_table_sorted(loop_name, s3_loop, m2):
    L = {"z1": cyclic_loop(1), "z3": cyclic_loop(3), "s3": s3_loop, "m2": m2}[loop_name]
    net = LoopNet3(L)
    want = np.argsort(L.table.ravel(), kind="stable").reshape(L.n, L.n)
    assert np.array_equal(net.transversal_points, want)
    for c in range(L.n):
        assert np.array_equal(net.transversal_points[c],
                              net.points_of_line(TRANSVERSAL, c))


def test_coordinate_loop_round_trip_is_identity_on_labels():
    Z3 = cyclic_loop(3)
    net = LoopNet3(Z3)
    cl = coordinate_loop(net)
    # carrier points are (x, e); the table must replay the original
    assert (cl.table == Z3.table).all()
    assert cl.labels == ["(%s,0)" % x for x in Z3.labels]


def test_coordinate_loop_s3_any_origin(s3_loop):
    net = LoopNet3(s3_loop)
    for origin in (0, 7, 17, 35):
        cl = coordinate_loop(net, origin=origin)
        assert find_isomorphism(cl, s3_loop) is not None


def test_coordinate_loop_m2_nonorigin(m2):
    net = LoopNet3(m2)
    cl = coordinate_loop(net, origin=127)
    w = find_isomorphism(cl, m2)
    assert w is not None and w.verify()


# ---------------------------------------------------------------------------
# Bol reflections


def test_bol_reflection_z3_transversal_formula():
    Z3 = cyclic_loop(3)
    coll = bol_reflection(Z3, TRANSVERSAL, 0)
    n = 3
    for x in range(3):
        for y in range(3):
            image = coll.point_map(x * n + y)
            assert image == ((-y) % 3) * n + ((-x) % 3)
    p2 = coll.point_map * coll.point_map
    assert p2.is_identity()


def test_bol_reflections_m2_origin_fix_axis(m2):
    net = LoopNet3(m2)
    e = m2.neutral
    for cls in (1, 2, 3):
        coll = bol_reflection(m2, cls, e, net=net)
        axis = net.points_of_line(cls, e)
        assert (coll.point_map.a[axis] == axis).all()
        others = [c for c in (1, 2, 3) if c != cls]
        assert coll.class_action[cls - 1] == cls
        assert coll.class_action[others[0] - 1] == others[1]
        assert coll.class_action[others[1] - 1] == others[0]


def test_origin_reflections_generate_s3_on_classes(s3_loop):
    net = LoopNet3(s3_loop)
    e = s3_loop.neutral
    s1 = bol_reflection(s3_loop, 1, e, net=net)
    s2 = bol_reflection(s3_loop, 2, e, net=net)
    s3r = bol_reflection(s3_loop, 3, e, net=net)
    assert s1.point_map * s2.point_map * s1.point_map == s3r.point_map
    # class actions of words of length <= 3 realize the full S3
    actions = {(1, 2, 3)}
    for length in (1, 2, 3):
        for bits in product((s1, s2, s3r), repeat=length):
            m = (1, 2, 3)
            for b in bits:
                m = tuple(b.class_action[c - 1] for c in m)
            actions.add(m)
    assert len(actions) == 6


def test_bol_reflection_non_moufang_raises(non_moufang_loop):
    with pytest.raises(NotACollineationError):
        bol_reflection(non_moufang_loop, 3, 1)


def test_trivial_loop_reflections():
    # in the 1-point net every line image is a line of all three classes;
    # each reflection fixes its axis and swaps the other two lines
    refl = all_bol_reflections(cyclic_loop(1))
    assert {key: p.a.tolist() for key, p in refl.items()} == {
        (1, 0): [0, 2, 1], (2, 0): [2, 1, 0], (3, 0): [1, 0, 2]}
    assert bol_reflection(cyclic_loop(1), 2, 0).class_action == (3, 2, 1)


def _reflections_per_axis(loop, net):
    # every reflection from its coordinate formulas, verified on points
    return {(cls, m): bol_reflection(loop, cls, m, net=net)
            for cls in (1, 2, 3) for m in range(loop.n)}


def _checked_against_the_formulas(loop, net):
    # the reflections of all_bol_reflections, after checking that they are
    # the line permutations of the formula reflections, in the same order
    got = all_bol_reflections(loop, net=net)
    want = _reflections_per_axis(loop, net)
    assert list(got) == list(want)
    for key, w in want.items():
        assert got[key] == w.line_perm, key
    return got, want


def _point_map_of_lines(net, line_perm):
    # the point map a line permutation induces: (x, y), the meet of vertical
    # line x and horizontal line y, goes to the meet of their images
    n = net.n
    P = np.arange(n * n)
    on = [P // n, n + P % n, 2 * n + net.loop.table.ravel()]  # lines through P
    meet = np.zeros((3 * n, 3 * n), dtype=np.int64)
    for i, j in product(range(3), repeat=2):
        if i != j:
            meet[on[i], on[j]] = P
    a = line_perm.a
    return Perm(meet[a[on[0]], a[on[1]]])


def _first_axis_error(loop):
    net = LoopNet3(loop)
    for cls in (1, 2, 3):
        for m in range(loop.n):
            try:
                bol_reflection(loop, cls, m, net=net)
            except NotACollineationError as e:
                return str(e)
    return None


@pytest.mark.parametrize("loop_name", ["z3", "z12", "s3", "m2"])
def test_reflections_by_conjugation_match_the_formulas(loop_name, s3_loop, m2):
    L = {"z3": cyclic_loop(3), "z12": cyclic_loop(12), "s3": s3_loop,
         "m2": m2}[loop_name]
    net = LoopNet3(L)
    got, want = _checked_against_the_formulas(L, net)
    for key, w in want.items():
        # the lines determine the points: the formula's point map is the
        # one the returned line permutation induces
        assert _point_map_of_lines(net, got[key]) == w.point_map, key


def _recording_bol_reflection(monkeypatch, fail=None):
    # bol_reflection that records its axes and raises at the axes in fail
    checked = []
    real = triality.bol_reflection

    def record(loop, cls, m, net=None):
        checked.append((cls, m))
        if fail and (cls, m) in fail:
            raise NotACollineationError(fail[(cls, m)])
        return real(loop, cls, m, net=net)
    monkeypatch.setattr(triality, "bol_reflection", record)
    return checked


def test_m2_checks_few_reflections_on_points(m2, monkeypatch):
    checked = _recording_bol_reflection(monkeypatch)
    refl = all_bol_reflections(m2)
    e = m2.neutral
    assert len(refl) == 360
    assert checked[:3] == [(1, e), (2, e), (3, e)]
    assert len(checked) < 3 * m2.n
    assert len(set(checked)) == len(checked)


@pytest.mark.parametrize("name", ["non-moufang-5", "one-sided-5"])
def test_non_moufang_reflections_raise_the_first_axis_error(
        name, non_moufang_loop, one_sided_loop):
    L = {"non-moufang-5": non_moufang_loop, "one-sided-5": one_sided_loop}[name]
    want = _first_axis_error(L)
    assert want is not None
    with pytest.raises(NotACollineationError) as exc:
        all_bol_reflections(L)
    assert str(exc.value) == want


def test_failed_conjugation_reruns_the_axes_in_order(m2, monkeypatch):
    # fail the last axis the conjugation route checks on points, and an
    # earlier axis it only reaches by conjugation: the error must name the
    # earlier one, as the per-axis loop does
    checked = _recording_bol_reflection(monkeypatch)
    all_bol_reflections(m2)
    late = checked[-1]
    early = next(key for key in product((1, 2, 3), range(m2.n))
                 if key < late and key not in checked)
    monkeypatch.undo()
    checked = _recording_bol_reflection(
        monkeypatch, {early: "early axis", late: "late axis"})
    with pytest.raises(NotACollineationError, match="^early axis$"):
        all_bol_reflections(m2)
    assert checked.count(late) == 1 and checked[-1] == early


def test_reflection_conjugation_moves_axis(s3_loop, rng):
    # gamma^-1 sigma_l gamma = sigma_{l gamma}, on points and on lines
    net = LoopNet3(s3_loop)
    n = s3_loop.n
    got, refl = _checked_against_the_formulas(s3_loop, net)
    keys = list(refl)
    for _ in range(60):
        k1 = keys[int(rng.integers(len(keys)))]
        k2 = keys[int(rng.integers(len(keys)))]
        sigma, gamma = refl[k1], refl[k2]
        conj = gamma.point_map.inverse() * sigma.point_map * gamma.point_map
        cls, m = divmod(gamma.line_perm((k1[0] - 1) * n + k1[1]), n)
        target = (cls + 1, m)
        assert conj == refl[target].point_map
        assert got[k2].inverse() * got[k1] * got[k2] == got[target]


def test_concurrent_reflections_cube_to_identity(s3_loop, rng):
    net = LoopNet3(s3_loop)
    got, refl = _checked_against_the_formulas(s3_loop, net)
    for _ in range(40):
        p = int(rng.integers(net.n_points))
        lines = [(c, net.line_through(p, c)) for c in (1, 2, 3)]
        for (c1, m1) in lines:
            for (c2, m2) in lines:
                for prod in (refl[(c1, m1)].point_map * refl[(c2, m2)].point_map,
                             got[(c1, m1)] * got[(c2, m2)]):
                    assert (prod * prod * prod).is_identity()


def test_concurrent_pair_failures_match_the_scalar_loop(m2, monkeypatch):
    net = LoopNet3(m2)
    refl = all_bol_reflections(m2, net=net)
    # seeded points, and points of the horizontal line Y = 5
    points = np.concatenate([fields.Sampler(7).integers(net.n_points, size=200),
                             np.arange(0, net.n_points, 7 * net.n) + 5])
    assert concurrent_pair_failures(net, refl, points) == 0
    bad = corrupt_one_reflection(refl, net.n)
    want = concurrent_pair_failures_oracle(net, bad, points)
    assert want > 0
    assert concurrent_pair_failures(net, bad, points) == want
    row_bytes = triality._CHECK_IMAGE_BYTES * 18 * net.n
    monkeypatch.setattr(fields, "MEMORY_BUDGET", 64 * row_bytes * 4)
    assert len(list(fields.blocks(len(points), row_bytes))) == -(-len(points) // 4)
    assert concurrent_pair_failures(net, bad, points) == want


@pytest.mark.parametrize("loop_name", ["z3", "s3", "m2"])
def test_products_with_origin_reflection_are_translation_pairs(
        loop_name, s3_loop, m2, rng):
    # sigma_m sigma_e within one class acts as a pair of translation
    # maps, one per coordinate
    L = {"z3": cyclic_loop(3), "s3": s3_loop, "m2": m2}[loop_name]
    net = LoopNet3(L)
    T = L.table
    inv = L.two_sided_inverses()
    n = L.n
    e = L.neutral
    X, Y = np.divmod(np.arange(n * n, dtype=np.int64), n)
    for m in rng.choice(n, size=min(n, 8), replace=False):
        m = int(m)
        for cls, xmap, ymap in (
            (VERTICAL,
             lambda x: T[int(inv[m]), T[x, int(inv[m])]],   # L_m^-1 R_m^-1
             lambda y: T[m, y]),                            # L_m
            (HORIZONTAL,
             lambda x: T[x, m],                             # R_m
             lambda y: T[int(inv[m]), T[y, int(inv[m])]]),  # L_m^-1 R_m^-1
            (TRANSVERSAL,
             lambda x: T[m, x],                             # L_m
             lambda y: T[y, m]),                            # R_m
        ):
            sm = bol_reflection(L, cls, m, net=net).point_map
            se = bol_reflection(L, cls, e, net=net).point_map
            prod = (sm * se).a
            want_x = np.array([xmap(int(x)) for x in range(n)])
            want_y = np.array([ymap(int(y)) for y in range(n)])
            want = want_x[X] * n + want_y[Y]
            if cls == TRANSVERSAL:
                # for class 3 the translation pair belongs to sigma_{m^-1} sigma_e
                sm_inv = bol_reflection(L, cls, int(inv[m]), net=net).point_map
                prod = (sm_inv * se).a
            assert (prod == want).all()


def test_autotopism_triples_from_reflection_products(m2, rng):
    T = m2.table
    inv = m2.two_sided_inverses()
    for m in rng.choice(m2.n, size=6, replace=False):
        m = int(m)
        lm = loops.left_translation(m2, m)
        rm = loops.right_translation(m2, m)
        lmi = loops.left_translation(m2, int(inv[m]))
        rmi = loops.right_translation(m2, int(inv[m]))
        lr_inv = lmi * rmi  # L_m^-1 R_m^-1 as a single map
        assert loops.autotopism_check(m2, lr_inv, lm, lmi)
        assert loops.autotopism_check(m2, rm, lr_inv, rmi)
        assert loops.autotopism_check(m2, lm, rm, lm * rm)


# ---------------------------------------------------------------------------
# the action on lines


@pytest.mark.parametrize("loop_name", ["z3", "s3"])
def test_line_perm_is_a_homomorphism(loop_name, s3_loop):
    L = {"z3": cyclic_loop(3), "s3": s3_loop}[loop_name]
    net = LoopNet3(L)
    refl = list(_checked_against_the_formulas(L, net)[1].values())
    for a in refl:
        for b in refl:
            prod = collineation_from_point_map(net, (a.point_map * b.point_map).a)
            assert prod.line_perm == a.line_perm * b.line_perm
    a, b, c = refl[1], refl[-1], refl[len(refl) // 2]
    word = collineation_from_point_map(
        net, (a.point_map * b.point_map * c.point_map).a)
    assert word.line_perm == a.line_perm * b.line_perm * c.line_perm


@pytest.mark.parametrize("loop_name", ["z3", "s3"])
def test_line_action_is_faithful(loop_name, s3_loop):
    # M and M0 on the 3n lines have the orders of the same groups on points
    L = {"z3": cyclic_loop(3), "s3": s3_loop}[loop_name]
    w = triality_group_from_loop(L)
    net = w.origin_net
    got, refl = _checked_against_the_formulas(L, net)
    assert w.full_group.gens == list(got.values())
    e = L.neutral
    M = PermGroup(net.n_points, [c.point_map for c in refl.values()])
    M0 = PermGroup(net.n_points, [c.point_map * refl[(cls, e)].point_map
                                  for (cls, m), c in refl.items() if m != e])
    assert w.full_group.degree == w.group.degree == 3 * L.n
    assert w.full_group.order() == M.order()
    assert w.group.order() == M0.order()
    assert len(w.group.gens) == len(M0.gens)


def test_line_maps_own_their_memory(m2):
    # a view would keep the n x n image arrays of a point check alive
    net = LoopNet3(m2)
    for cls in (1, 2, 3):
        coll = bol_reflection(m2, cls, 5, net=net)
        assert coll.point_map.a.base is None and coll.line_perm.a.base is None
        assert coll.line_perm.degree == 3 * m2.n
    for p in all_bol_reflections(m2, net=net).values():
        assert p.a.base is None and p.degree == 3 * m2.n


def test_m2_reflections_peak_small(m2):
    # line permutations only: the point maps of the 7 reflections checked on
    # points are dropped after their checks
    tracemalloc.start()
    try:
        all_bol_reflections(m2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


# ---------------------------------------------------------------------------
# automorphisms as collineations (both directions)


def test_automorphisms_are_direction_preserving_collineations(s3_loop):
    net = LoopNet3(s3_loop)
    for alpha in loops.automorphisms(s3_loop).elements():
        img = diagonal_point_map(net, alpha.a)
        coll = collineation_from_point_map(net, img)
        assert coll.is_direction_preserving()


def test_non_automorphism_diagonal_fails(s3_loop):
    net = LoopNet3(s3_loop)
    bad = np.array([1, 0, 2, 3, 4, 5])  # swaps e with a non-central element
    with pytest.raises(NotACollineationError):
        collineation_from_point_map(net, diagonal_point_map(net, bad))


def test_line_map_that_merges_parallel_lines_is_refused(s3_loop):
    # a point permutation cannot merge parallel lines, so the map is checked
    # below collineation_from_point_map: every point to the origin
    net = LoopNet3(s3_loop)
    with pytest.raises(NotACollineationError, match="class 1 not bijective"):
        triality._analyze_point_map(net, np.zeros(net.n_points, dtype=np.int64), (1, 2, 3))


def test_direction_preserving_origin_fixers_are_automorphisms(s3_loop):
    # enumerate M0 of the S3 net on its lines; every element fixing the
    # origin and the directions must be the diagonal map of an automorphism
    w = triality_group_from_loop(s3_loop)
    net = w.origin_net
    n = s3_loop.n
    e = s3_loop.neutral
    auts = {a.tobytes(): a for a in
            (np.asarray(m.a, dtype=np.int64)
             for m in loops.automorphisms(s3_loop).elements())}
    found = 0
    for g in w.group.elements(limit=20000):
        # direction preserving holds inside M0 by construction, so g fixes
        # the origin exactly when it fixes its vertical and horizontal lines
        if g(e) != e or g(n + e) != n + e:
            continue
        alpha = g.a[:n].astype(np.int64)      # vertical line x -> x alpha
        beta = g.a[n:2 * n].astype(np.int64) - n  # horizontal y -> y beta
        assert (alpha == beta).all()
        coll = collineation_from_point_map(net, diagonal_point_map(net, alpha))
        assert g == coll.line_perm
        assert alpha.tobytes() in auts
        found += 1
    assert found >= 1


# ---------------------------------------------------------------------------
# triality of loop nets


def test_triality_group_z3_exhaustive():
    w = triality_group_from_loop(cyclic_loop(3))
    ok, details = triality_check(w.group, w.sigma, w.rho)
    assert ok and details["routes_agree"] and details["mode"] == "exhaustive"
    assert w.details == details  # the check the constructor ran, kept


def test_triality_group_s3_exhaustive(s3_loop):
    w = triality_group_from_loop(s3_loop)
    ok, details = triality_check(w.group, w.sigma, w.rho)
    assert ok and details["identity_checked"] == w.group.order()
    assert details["mode"] == "exhaustive"


def test_triality_m0_is_class_action_kernel(s3_loop):
    # cross-check the reduced generating set against the Schreier kernel
    from moufang.permgrp import homomorphism_kernel
    w = triality_group_from_loop(s3_loop)
    M = w.full_group
    n = w.origin_net.n
    # line (cls-1)*n + c lands in class (image // n) + 1
    images = [Perm([int(g.a[c * n]) // n for c in range(3)]) for g in M.gens]
    K = homomorphism_kernel(M, images)
    assert K.order() == w.group.order()
    assert K.is_subgroup(w.group) and w.group.is_subgroup(K)


def test_triality_group_rejects_non_moufang(non_moufang_loop):
    with pytest.raises((NotACollineationError, AssertionError)):
        triality_group_from_loop(non_moufang_loop)


def test_triality_check_rejects_broken_relations():
    Z4 = PermGroup(4, [Perm([1, 2, 3, 0])])
    sigma = Perm([0, 3, 2, 1])  # inversion
    rho = Perm.identity(4)
    with pytest.raises(ValueError):
        triality_check(Z4, sigma, rho)


def _relations_but_no_triality():
    """Explicit pair on F2^4 with the S3 relations intact but the triality
    identity broken: rho fixes a 2-dimensional subspace E pointwise (where
    1 + rho + rho^2 = 3 = 1 in characteristic 2) and sigma moves E, so
    [v, sigma](1 + rho + rho^2) != 0 for v in E."""
    vecs = list(product((0, 1), repeat=4))
    index = {v: i for i, v in enumerate(vecs)}

    def lin_perm(images):
        # images of the 4 basis vectors; extend linearly
        out = []
        for v in vecs:
            w = (0, 0, 0, 0)
            for i, bit in enumerate(v):
                if bit:
                    w = tuple((a + b) % 2 for a, b in zip(w, images[i]))
            out.append(index[w])
        return Perm(out)

    e1, e2, e3, e4 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    e34 = (0, 0, 1, 1)
    rho = lin_perm([e1, e2, e4, e34])        # identity on E, order 3 on W
    sigma = lin_perm([e2, e1, e3, e34])      # swaps E basis, involution on W
    gens = [Perm([index[tuple((v[i] + b[i]) % 2 for i in range(4))] for v in vecs])
            for b in (e1, e2, e3, e4)]
    G = PermGroup(16, gens)
    return G, sigma, rho


def test_triality_violation_detected_and_net_fails():
    G, sigma, rho = _relations_but_no_triality()
    id16 = Perm.identity(16)
    assert sigma * sigma == id16
    assert rho * rho * rho == id16 and rho != id16
    sr = sigma * rho
    assert sr * sr == id16
    ok, details = triality_check(G, sigma, rho)
    assert not ok and details["routes_agree"] and details["mode"] == "exhaustive"
    w = TrialityWitness(G, sigma, rho, (sigma, sigma * rho, rho * sigma))
    with pytest.raises(NetAxiomError) as got:
        TrialityNet3(w)
    with pytest.raises(NetAxiomError) as want:
        TrialityNetOracle(w)
    assert str(got.value) == str(want.value)


def _triality_identity_holds(g, sigma, rho):
    rho_inv = rho.inverse()
    c = g.inverse() * (sigma * g * sigma)  # [g, sigma], sigma an involution
    c1 = rho_inv * c * rho
    c2 = rho_inv * c1 * rho
    return (c * c1 * c2).is_identity()


def _sampled_check_one_perm_at_a_time(G, sigma, rho, samples, seed):
    """The sampled branch of triality_check with Perm products, over the
    words it draws when all samples fit one chunk: route A takes the
    generators and then the words of one seeded draw, route B draws the
    class pairs and then the words conjugating sigma_i and sigma_j."""
    sigmas = (sigma, sigma * rho, rho * sigma)
    words = G.random_element(fields.Sampler(seed), size=samples)
    checked, witness = 0, None
    for g in list(G.gens) + [Perm(w) for w in words]:
        if not _triality_identity_holds(g, sigma, rho):
            witness = g
            break
        checked += 1
    rng = fields.Sampler(seed + 1)
    ij = triality._CLASS_PAIRS[rng.integers(6, size=samples)]
    Wi, Wj = G.random_element(rng, size=samples), G.random_element(rng, size=samples)
    pairs, pair_witness = 0, None
    for (i, j), wi, wj in zip(ij, map(Perm, Wi), map(Perm, Wj)):
        ti = wi.inverse() * sigmas[i] * wi
        tj = wj.inverse() * sigmas[j] * wj
        p = ti * tj
        if not (p * p * p).is_identity():
            pair_witness = (ti, tj)
            break
        pairs += 1
    ok_a, ok_b = witness is None, pair_witness is None
    return ok_a and ok_b, {
        "mode": "sampled", "identity_checked": checked, "pairs_checked": pairs,
        "identity_ok": ok_a, "pairs_ok": ok_b, "routes_agree": ok_a == ok_b,
        "witness": witness if witness is not None else pair_witness}


def _with_a_dihedral_tail(G, sigma, rho):
    """The same G, sigma and rho on 9 more points, where G is trivial and
    sigma, rho act as the dihedral group of order 18 (x -> -x, x -> x + 1
    mod 9).  The S3 relations still hold as actions on G and the commutator
    identity still holds, but rho^3 is not the identity: route A is checked
    as (c r^-1)^3 = r^-3, and the class pairs fail, (sigma sigma rho)^3 being
    rho^3 on the tail."""
    n, x = G.degree, np.arange(9)

    def pad(p, tail):
        return Perm(np.concatenate([p.a, n + tail]))
    return (PermGroup(n + 9, [pad(g, x) for g in G.gens]),
            pad(sigma, -x % 9), pad(rho, (x + 1) % 9))


def _sampled_cases(s3_loop):
    w = triality_group_from_loop(s3_loop)
    return {"no triality": _relations_but_no_triality(),
            "net-s3": (w.group, w.sigma, w.rho),
            "rho^3 != 1": _with_a_dihedral_tail(w.group, w.sigma, w.rho)}


@pytest.mark.parametrize("seed", [0x5EED, 7])
@pytest.mark.parametrize("case", ["no triality", "net-s3", "rho^3 != 1"])
def test_stacked_checks_match_the_scalar_oracle(case, seed, s3_loop, monkeypatch):
    G, sigma, rho = _sampled_cases(s3_loop)[case]
    monkeypatch.setattr(triality, "EXHAUSTIVE_LIMIT", 1)  # the sampled branch
    ok, details = triality_check(G, sigma, rho, samples=300, seed=seed)
    assert (ok, details) == _sampled_check_one_perm_at_a_time(G, sigma, rho, 300, seed)
    assert ok == (case == "net-s3")
    assert details["identity_ok"] == (case != "no triality")
    if details["identity_ok"]:
        assert details["identity_checked"] == len(G.gens) + 300
    if case != "net-s3":
        assert details["pairs_checked"] < 300  # a drawn pair is the witness


@pytest.mark.parametrize("case", ["no triality", "net-s3"])
def test_sampled_counts_run_across_the_chunks(case, s3_loop, monkeypatch):
    # route A's words are the same in chunks (see random_element); route B
    # draws its class pairs per chunk, so only its verdict is compared
    G, sigma, rho = _sampled_cases(s3_loop)[case]
    monkeypatch.setattr(triality, "EXHAUSTIVE_LIMIT", 1)
    ok, one = triality_check(G, sigma, rho, samples=300)
    row_bytes = triality._CHECK_IMAGE_BYTES * G.degree
    monkeypatch.setattr(fields, "MEMORY_BUDGET", 64 * row_bytes * 7)  # 7 rows a chunk
    assert list(fields.blocks(300, row_bytes))[:2] == [(0, 7), (7, 14)]
    ok_chunked, chunked = triality_check(G, sigma, rho, samples=300)
    assert ok_chunked == ok and chunked["pairs_ok"] == one["pairs_ok"]
    for key in ("identity_checked", "identity_ok"):
        assert chunked[key] == one[key]


@pytest.fixture(scope="module")
def paige2_witness(m2):
    return triality_group_from_loop(m2)


def _unbuilt(G):
    """The same generators in a new group, with no stabilizer chain yet."""
    return PermGroup(G.degree, G.gens)


@pytest.mark.parametrize("case", ["net-paige2", "wreath-s3"])
def test_conjugacy_classes_match_the_scalar_oracle(case, paige2_witness, s3_group):
    # the oracle conjugates by the strong generators of the chain, which
    # generate the same group (15 of them, not M0's 357)
    w = paige2_witness if case == "net-paige2" else example_wreath(s3_group)
    G = _unbuilt(w.group)
    G.order()
    strong = PermGroup(G.degree, G._strong_gens(0))
    for s in w.sigmas:
        got = conjugacy_class(w.group, s)
        assert got == conjugacy_class_oracle(strong, s)
        assert len(got) == {"net-paige2": 120, "wreath-s3": 6}[case]
    with pytest.raises(ValueError, match="enumeration limit"):
        conjugacy_class(w.group, w.sigma, limit=len(got) - 1)


def test_sampled_check_peak_stays_in_its_chunks(paige2_witness, monkeypatch):
    # 1000 samples on the net of M*(2), degree 360, in chunks of 22 rows:
    # unchunked they would take about 9 MB.  The peak includes deciding the
    # mode, which must not list the group to find it too large.
    w = paige2_witness
    G = _unbuilt(w.group)
    G._gen_stack  # the group's generator stack (1 MB), not the check's
    monkeypatch.setattr(fields, "MEMORY_BUDGET", 2 ** 25)
    row_bytes = triality._CHECK_IMAGE_BYTES * G.degree
    rows = 2 ** 25 // 64 // row_bytes
    assert len(list(fields.blocks(1000, row_bytes))) == -(-1000 // rows) > 1
    tracemalloc.start()
    try:
        ok, details = triality_check(G, w.sigma, w.rho, samples=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and details["mode"] == "sampled" and details["pairs_checked"] == 1000
    assert peak <= 2 ** 25 // 16


def _refuse_to_list(monkeypatch):
    def elements(self, limit=200000):
        raise AssertionError("listed the elements of %r" % (self,))
    monkeypatch.setattr(PermGroup, "elements", elements)


def test_net_paige2_check_lists_no_element(paige2_witness, monkeypatch):
    w = paige2_witness
    G = _unbuilt(w.group)
    _refuse_to_list(monkeypatch)
    ok, details = triality_check(G, w.sigma, w.rho, samples=1000)
    assert ok and details["mode"] == "sampled"
    assert details["identity_checked"] == 1357 and details["pairs_checked"] == 1000
    assert G._levels is None  # the order bound stopped before a full chain


def test_example_wreath_refuses_before_listing(monkeypatch):
    S5 = PermGroup(5, [Perm([1, 0, 2, 3, 4]), Perm([1, 2, 3, 4, 0])])
    _refuse_to_list(monkeypatch)
    with pytest.raises(ValueError, match=r"wreath example capped at \|A\| <= 100"):
        example_wreath(S5)


def test_exhaustive_check_insists_the_listing_has_the_order(monkeypatch):
    w = example_vector(field_make(5))
    monkeypatch.setattr(PermGroup, "elements",
                        lambda self, limit=200000: [Perm.identity(self.degree)])
    with pytest.raises(AssertionError, match="listing has 1 elements"):
        triality_check(_unbuilt(w.group), w.sigma, w.rho)


@pytest.mark.parametrize("case,order", [
    ("wreath-s3", 216), ("vector-gf5", 25), ("Mlt(M*(2))", 174182400),
    ("net-paige2 M0", 174182400), ("C7", 7)])
def test_order_bound_is_a_certificate(case, order, s3_group, m2, paige2_witness):
    G = {"wreath-s3": lambda: example_wreath(s3_group).group,
         "vector-gf5": lambda: example_vector(field_make(5)).group,
         "Mlt(M*(2))": lambda: loops.mlt_group(m2),
         "net-paige2 M0": lambda: paige2_witness.group,
         "C7": lambda: PermGroup(7, [Perm([1, 2, 3, 4, 5, 6, 0])])}[case]()
    assert _unbuilt(G).order() == order
    for limit in (1, order - 1, order, order + 1, triality.EXHAUSTIVE_LIMIT):
        H = _unbuilt(G)
        assert H.order_exceeds(limit) == (order > limit)
        assert H.order() == order  # no partial chain survives an early stop
        assert H.order_exceeds(limit) == (order > limit)  # from the full chain


# ---------------------------------------------------------------------------
# nets from triality groups


def test_net_from_wreath_z3():
    A = PermGroup(3, [Perm([1, 2, 0])])
    w = example_wreath(A)
    net = TrialityNet3(w)
    assert net.n_points == len(net.classes[0]) * len(net.classes[1])
    cl = coordinate_loop(net, origin=0)
    assert find_isomorphism(cl, cyclic_loop(3)) is not None


def test_triality_net_is_priced_before_its_square(monkeypatch):
    # the square and its division tables of a net with classes of 3 lines
    # take 12 * 3^2 bytes
    w = example_wreath(PermGroup(3, [Perm([1, 2, 0])]))
    monkeypatch.setattr(fields, "MEMORY_BUDGET", 12 * 9 - 1)
    with pytest.raises(UsageError, match="memory budget"):
        TrialityNet3(w)
    monkeypatch.setattr(fields, "MEMORY_BUDGET", 12 * 9)
    assert TrialityNet3(w).n_points == 9


def test_net_round_trip_z3():
    w = triality_group_from_loop(cyclic_loop(3))
    net = TrialityNet3(w)
    cl = coordinate_loop(net, origin=0)
    assert find_isomorphism(cl, cyclic_loop(3)) is not None


def test_net_round_trip_s3(s3_loop):
    w = triality_group_from_loop(s3_loop)
    net = TrialityNet3(w)
    cl = coordinate_loop(net, origin=0)
    assert find_isomorphism(cl, s3_loop) is not None


@pytest.fixture(scope="module")
def triality_nets(s3_loop, paige2_witness):
    """Per case, a witness with its TrialityNet3 and its oracle net, built
    on first use: Doro's wreath examples on Z3 and Z5, and the reflection
    groups of the nets of Z3, S3 and M*(2)."""
    makers = {
        "wreath-z3": lambda: example_wreath(PermGroup(3, [Perm([1, 2, 0])])),
        "wreath-z5": lambda: example_wreath(PermGroup(5, [Perm([1, 2, 3, 4, 0])])),
        "net-z3": lambda: triality_group_from_loop(cyclic_loop(3)),
        "net-s3": lambda: triality_group_from_loop(s3_loop),
        "net-paige2": lambda: paige2_witness,
    }
    built = {}

    def get(case):
        if case not in built:
            w = makers[case]()
            built[case] = w, TrialityNet3(w), TrialityNetOracle(w)
        return built[case]
    return get


TRIALITY_CASES = ["wreath-z3", "wreath-z5", "net-z3", "net-s3", "net-paige2"]


@pytest.mark.parametrize("case", TRIALITY_CASES)
def test_triality_net_matches_the_pair_loop_oracle(case, triality_nets):
    # the class-3 line of every point, point i1 * m + i2 on lines i1 and i2
    _, net, oracle = triality_nets(case)
    assert net.classes == oracle.classes
    m = len(oracle.classes[0])
    i1, i2 = np.divmod(np.arange(m * m), m)
    assert np.array_equal(oracle.points[:, :2], np.column_stack([i1, i2]))
    for cls in (VERTICAL, HORIZONTAL, TRANSVERSAL):
        assert [net.line_through(p, cls) for p in range(m * m)] == \
            oracle.points[:, cls - 1].tolist()
    assert net.n_points == m * m and net.n_lines() == 3 * m
    assert [net.point_label(p) for p in range(m * m)] == \
        [oracle.point_label(p) for p in range(m * m)]


@pytest.mark.parametrize("case,origins", [
    ("Z3", (0, 4, 8)), ("S3", (0, 7, 17, 35)), ("M*(2)", (0, 127, 5000)),
    ("wreath-z3", (0, 5)), ("wreath-z5", (0, 12, 24)), ("net-z3", (0, 7)),
    ("net-s3", (0, 20, 35)), ("net-paige2", (0, 7777))])
def test_coordinate_loops_match_the_scalar_oracle(case, origins, s3_loop, m2,
                                                  triality_nets):
    loop = {"Z3": lambda: cyclic_loop(3), "S3": lambda: s3_loop,
            "M*(2)": lambda: m2}.get(case)
    if loop is None:
        _, net, oracle = triality_nets(case)
    else:
        net = oracle = LoopNet3(loop())
    for origin in origins:
        got, want = coordinate_loop(net, origin=origin), coordinate_loop_oracle(oracle, origin)
        assert np.array_equal(got.table, want.table) and got.labels == want.labels


def test_dictionary_round_trip_at_paige2(m2, triality_nets):
    # M*(2) -> its reflection group M0 -> the net of M0 -> its coordinate
    # loop, isomorphic to M*(2)
    _, net, _ = triality_nets("net-paige2")
    w = find_isomorphism(coordinate_loop(net, origin=0), m2)
    assert w is not None and w.verify()


# ---------------------------------------------------------------------------
# the worked examples


def test_example_wreath_groups(s3_group):
    for A in (PermGroup(2, [Perm([1, 0])]), s3_group,
              PermGroup(5, [Perm([1, 2, 3, 4, 0])])):
        w = example_wreath(A)
        ok, _ = triality_check(w.group, w.sigma, w.rho)
        assert ok


def test_example_wreath_z5_coordinate_loop():
    A = PermGroup(5, [Perm([1, 2, 3, 4, 0])])
    w = example_wreath(A)
    net = TrialityNet3(w)
    cl = coordinate_loop(net, origin=0)
    assert find_isomorphism(cl, cyclic_loop(5)) is not None


def test_example_phi_z3_inversion_fails():
    A3 = PermGroup(3, [Perm([1, 2, 0])])
    with pytest.raises(ValueError):
        example_phi(A3, Perm([0, 2, 1]))


def test_example_phi_z3z3():
    q = 3
    img = np.empty(9, dtype=np.int64)
    for a in range(3):
        for b in range(3):
            img[a * q + b] = (b % 3) * q + ((-a - b) % 3)
    gens = []
    for (da, db) in ((1, 0), (0, 1)):
        t = np.empty(9, dtype=np.int64)
        for a in range(3):
            for b in range(3):
                t[a * q + b] = ((a + da) % 3) * q + ((b + db) % 3)
        gens.append(Perm(t))
    w = example_phi(PermGroup(9, gens), Perm(img))
    ok, _ = triality_check(w.group, w.sigma, w.rho)
    assert ok


def test_example_phi_trivial_group_degenerate():
    A = PermGroup(1, [])
    w = example_phi(A, Perm.identity(1))
    ok, _ = triality_check(w.group, w.sigma, w.rho)
    assert ok


def test_example_vector():
    for q in (5, 2):
        w = example_vector(field_make(q))
        ok, details = triality_check(w.group, w.sigma, w.rho)
        assert ok and details["identity_checked"] == q * q
        assert details["mode"] == "exhaustive"
    with pytest.raises(ValueError):
        example_vector(field_make(3))
    with pytest.raises(ValueError):
        example_vector(field_make(3, 2))
