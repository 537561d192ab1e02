import tracemalloc

import numpy as np
import pytest

from conftest import (CHAIN_SHAPES, chain_shape, conjugacy_class_oracle,
                      point_orbit_oracle)
from moufang import fields, loops
from moufang.permgrp import (IncompleteChainError, Perm, PermGroup, compose,
                             homomorphism_kernel, invert, orbit)
from moufang.triality import conjugacy_class, triality_group_from_loop


def test_perm_basics():
    p = Perm([1, 2, 0])
    q = Perm([0, 2, 1])
    assert (p * q)(0) == 2  # apply p then q
    assert p.inverse() * p == Perm.identity(3)
    assert p.order() == 3
    assert Perm.parse(p.text()) == p
    with pytest.raises(ValueError):
        Perm([0, 0, 1])


def test_schreier_sims_s3():
    G = PermGroup(3, [Perm([1, 0, 2]), Perm([0, 2, 1])])
    assert G.order() == 6


def test_empty_generators():
    assert PermGroup(4, []).order() == 1


def test_order_examples():
    s3 = PermGroup(3, [Perm([1, 0, 2]), Perm([0, 2, 1])])
    assert s3.order() == 6
    a3 = PermGroup(3, [Perm([1, 2, 0])])
    assert not a3.contains(Perm([1, 0, 2]))
    assert s3.is_subgroup(a3)
    assert not a3.is_subgroup(s3)


KNOWN_GROUPS = [
    ("S4", [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])], 24),
    ("A4", [Perm([1, 2, 0, 3]), Perm([0, 2, 3, 1])], 12),
    ("D8", [Perm([1, 2, 3, 0]), Perm([3, 2, 1, 0])], 8),
    ("C7", [Perm([1, 2, 3, 4, 5, 6, 0])], 7),
    ("S5", [Perm([1, 0, 2, 3, 4]), Perm([1, 2, 3, 4, 0])], 120),
]


@pytest.mark.parametrize("name,gens,order", KNOWN_GROUPS)
def test_order_matches_exhaustive_enumeration(name, gens, order):
    G = PermGroup(gens[0].degree, gens)
    assert G.order() == order
    assert len(G.elements()) == order  # oracle: brute-force closure


@pytest.mark.parametrize("name,gens,order", KNOWN_GROUPS)
def test_random_words_are_members(name, gens, order, rng):
    G = PermGroup(gens[0].degree, gens)
    for _ in range(30):
        w = Perm.identity(G.degree)
        for _ in range(int(rng.integers(1, 21))):
            g = gens[int(rng.integers(len(gens)))]
            if int(rng.integers(2)):
                g = g.inverse()
            w = w * g
        assert G.contains(w)


@pytest.mark.parametrize("name,gens,order", KNOWN_GROUPS)
def test_random_element_draws_the_seeded_words(name, gens, order):
    # reference: each word composed letter by letter with Perm products from
    # the same (size, 20) draw, letter k + i being generator i inverted
    G = PermGroup(gens[0].degree, gens)
    k = len(G.gens)
    letters = fields.Sampler(7).integers(2 * k, size=(30, 20), dtype=np.int32)
    want = []
    for word in letters:
        w = Perm.identity(G.degree)
        for i in word:
            w = w * (G.gens[i] if i < k else G.gens[i - k].inverse())
        want.append(w)
    words = G.random_element(fields.Sampler(7), size=30)
    assert words.shape == (30, G.degree) and words.dtype == np.int32
    assert [Perm(w) for w in words] == want
    # one word is row 0 of a draw of one, and two draws are one
    assert G.random_element(fields.Sampler(7)) == \
        Perm(G.random_element(fields.Sampler(7), size=1)[0])
    rng = fields.Sampler(7)
    chunks = [G.random_element(rng, size=11), G.random_element(rng, size=19)]
    assert (np.concatenate(chunks) == words).all()


def test_random_words_of_no_generators_are_the_identity():
    G = PermGroup(4, [])
    assert G.random_element(fields.Sampler(7)) == Perm.identity(4)
    assert (G.random_element(fields.Sampler(7), size=3) == np.arange(4)).all()


@pytest.mark.parametrize("name,gens,order", KNOWN_GROUPS)
def test_elements_are_listed_breadth_first(name, gens, order):
    # reference: breadth-first closure by Perm products, keyed by Perm
    G = PermGroup(gens[0].degree, gens)
    want = [Perm.identity(G.degree)]
    seen = set(want)
    for p in want:
        for g in G.gens:
            if p * g not in seen:
                seen.add(p * g)
                want.append(p * g)
    assert G.elements() == want
    assert G.elements(limit=order) == want
    with pytest.raises(ValueError, match="enumeration limit %d" % (order - 1)):
        G.elements(limit=order - 1)


@pytest.mark.parametrize("name,gens,order", KNOWN_GROUPS)
def test_order_independent_of_generator_order(name, gens, order):
    assert PermGroup(gens[0].degree, list(reversed(gens))).order() == order


def test_inn_subgroup_of_mlt(s3_loop):
    mlt = loops.mlt_group(s3_loop)
    inn = loops.inner_mapping_group(s3_loop)
    assert mlt.is_subgroup(inn)


def test_kernel_of_class_action_on_z2_net():
    # the collineation group of the Z2 net is all of S4 acting on the 4
    # points, and the class action is the quotient S4 -> S3
    s4 = PermGroup(4, [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])])
    images = [Perm([0, 2, 1]), Perm([2, 1, 0])]
    K = homomorphism_kernel(s4, images)
    assert K.order() == 4
    assert s4.order() // K.order() == 6


def test_kernel_of_trivial_assignment():
    s4 = PermGroup(4, [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])])
    images = [Perm.identity(3), Perm.identity(3)]
    K = homomorphism_kernel(s4, images)
    assert K.order() == s4.order()


def test_kernel_rejects_non_homomorphism():
    s4 = PermGroup(4, [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])])
    with pytest.raises(ValueError):
        homomorphism_kernel(s4, [Perm([0, 2, 1]), Perm([1, 2, 0])])


def test_kernel_checks_the_assignment_at_any_degree():
    # two commuting transpositions on 2100 points; sending the first to a
    # 3-cycle is no homomorphism, and the check runs past degree 2048 too
    a = Perm.from_cycles(2100, [[0, 1]])
    b = Perm.from_cycles(2100, [[2, 3]])
    G = PermGroup(2100, [a, b])
    with pytest.raises(ValueError, match="homomorphism"):
        homomorphism_kernel(G, [Perm([1, 2, 0]), Perm.identity(3)])
    assert homomorphism_kernel(G, [Perm([1, 0, 2]), Perm.identity(3)]).order() == 2


def _strong_generator_count(G):
    G.order()
    return len(G._strong_gens(0))


def test_late_generator_that_enlarges_the_group_is_kept():
    # A6 = <(0 1 2), (1 2 3 4 5)>, then words in them that sift to the
    # identity, then a transposition that doubles the group
    a = Perm.from_cycles(6, [[0, 1, 2]])
    b = Perm.from_cycles(6, [[1, 2, 3, 4, 5]])
    redundant = [a * b, b * a * b, a.inverse(), b ** 3 * a]
    A6 = PermGroup(6, [a, b] + redundant)
    assert A6.order() == 360
    assert _strong_generator_count(A6) < len(A6.gens)
    t = Perm.from_cycles(6, [[0, 1]])
    assert not A6.contains(t)
    S6 = PermGroup(6, [a, b] + redundant + [t])
    assert S6.order() == 720
    assert S6.contains(t) and S6.is_subgroup(A6)


def test_mlt_chain_of_m2_drops_redundant_translations(m2):
    G = loops.mlt_group(m2)
    assert len(G.gens) == 238  # 240 translations, L_e = R_e = identity
    assert G.order() == 174182400
    assert _strong_generator_count(G) < 238
    for x in range(m2.n):
        assert G.contains(loops.left_translation(m2, x))
        assert G.contains(loops.right_translation(m2, x))


def _orbits_only(self, top):
    for idx in range(top, -1, -1):
        self._recompute_orbit(idx)


@pytest.mark.parametrize("complete,reason", [
    (lambda self, top: None, "input generator"),
    (_orbits_only, "Schreier generator"),
])
def test_sabotaged_chain_is_refused(complete, reason, monkeypatch):
    # S4 from (0 1) and (0 1 2 3) needs a Schreier generator for (2 3);
    # a chain that skips them (or does no completion at all) fails _verify
    monkeypatch.setattr(PermGroup, "_complete", complete)
    G = PermGroup(4, [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])])
    with pytest.raises(IncompleteChainError, match=reason):
        G.order()


# -- the permutation-stack kernel ---------------------------------------------

def _stack(rng, rows, n):
    return np.array([rng.permutation(n) for _ in range(rows)], dtype=np.int32)


def test_invert_and_compose_fix_the_identity(rng):
    A = _stack(rng, 5, 7)
    ident = np.arange(7, dtype=np.int32)
    assert (invert(np.tile(ident, (3, 1))) == ident).all()
    assert (compose(A, np.tile(ident, (5, 1))) == A).all()
    assert (compose(np.tile(ident, (5, 1)), A) == A).all()
    assert (compose(A, invert(A)) == ident).all()
    assert (compose(invert(A), A) == ident).all()


def test_invert_and_compose_round_trip(rng):
    A, B = _stack(rng, 6, 9), _stack(rng, 6, 9)
    inv = invert(A)
    assert inv.dtype == np.int32 and (invert(inv) == A).all()
    assert (compose(compose(A, B), invert(B)) == A).all()
    for a, b, ab, ai in zip(A, B, compose(A, B), inv):
        assert Perm(ab) == Perm(a) * Perm(b)  # A_r applied first
        assert (ai[a] == np.arange(9)).all()
    out = np.empty_like(A)
    assert invert(A, out=out) is out and (out == inv).all()


def test_compose_broadcasts_its_stacks(rng):
    A, B = _stack(rng, 4, 6), _stack(rng, 3, 6)
    b = B[0]
    assert (compose(A, b) == np.stack([b[a] for a in A])).all()  # a 1-D B
    assert Perm(compose(A[0], b)) == Perm(A[0]) * Perm(b)
    both = compose(A[:, None, :], B)  # [r, j] = B_j[A_r]
    assert both.shape == (4, 3, 6)
    assert all((both[r, j] == B[j][A[r]]).all() for r in range(4) for j in range(3))
    points = np.array([[0], [5], [2]], dtype=np.int32)  # rows of one point
    assert (compose(points[:, None, :], B)[:, :, 0] == B[:, points[:, 0]].T).all()


def _rows(keys):
    return np.frombuffer(b"".join(keys), np.int32).reshape(len(keys), -1)


def test_orbit_is_breadth_first_with_parents_and_maps():
    S = np.array([g.a for g in KNOWN_GROUPS[0][1]], dtype=np.int32)  # S4
    keys, parent, gen = orbit(np.arange(4), S)
    rows = _rows(keys)
    assert len(rows) == 24 and len(set(keys)) == 24
    assert parent[0] == gen[0] == -1
    assert (np.diff(parent) >= 0).all()  # frontier order
    for i in range(1, 24):
        assert (rows[i] == S[gen[i]][rows[parent[i]]]).all()
    by_function = orbit(rows[0], lambda X: compose(X[:, None, :], S))
    assert by_function[0] == keys and (by_function[1] == parent).all()
    assert len(orbit(rows[0], S, limit=24)[0]) == 24
    with pytest.raises(ValueError, match="enumeration limit 23"):
        orbit(rows[0], S, limit=23)
    none = orbit(rows[0], S[:0])
    assert [len(a) for a in none] == [1, 1, 1]


def test_orbit_chunks_do_not_change_the_result(monkeypatch):
    S = np.array([g.a for g in KNOWN_GROUPS[4][1]], dtype=np.int32)  # S5
    calls = []

    def images(X):
        calls.append(len(X))
        return compose(X[:, None, :], S)
    start = np.arange(5, dtype=np.int32)
    want = orbit(start, images)
    assert max(calls) > 2
    # 8 bytes per byte of a row's images (2 maps of 20 bytes): 2 rows a call
    monkeypatch.setattr(fields, "MEMORY_BUDGET", 64 * 8 * 2 * 20 * 2)
    calls.clear()
    got = orbit(start, images)
    assert calls[0] == 1 and max(calls) == 2
    assert got[0] == want[0] and all((w == g).all() for w, g in zip(want[1:], got[1:]))


def test_elements_hold_each_row_once():
    # the regular cyclic group of degree 2048: 2048 rows of 8 KiB (16 MiB),
    # each element a view of its orbit row's bytes, not a second copy
    n = 2048
    G = PermGroup(n, [Perm(np.roll(np.arange(n), -1))])
    tracemalloc.start()
    try:
        els = G.elements()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(els) == n and all(not p.a.flags.writeable for p in els[:5])
    assert peak <= 4 * n * n + fields.MEMORY_BUDGET // 32


def test_transversal_stacks_map_the_base_to_the_orbit(m2):
    n = m2.n
    G = loops.mlt_group(m2)
    assert chain_shape(G) == CHAIN_SHAPES["Mlt(M*(2))"]
    for lv in G._levels:
        assert (lv.U[:, lv.base] == lv.orbit_list).all()
        assert (compose(lv.U, lv.Uinv) == np.arange(n)).all()


@pytest.mark.parametrize("name,gens,order", KNOWN_GROUPS)
def test_orbits_match_the_scalar_oracles(name, gens, order):
    G = PermGroup(gens[0].degree, gens)
    S = np.array([g.a for g in gens], dtype=np.int32)
    for x in range(G.degree):
        got = _rows(orbit([x], S)[0])[:, 0].tolist()
        assert len(set(got)) == len(got) and set(got) == point_orbit_oracle(x, gens)
    for p in G.elements():
        assert conjugacy_class(G, p) == conjugacy_class_oracle(G, p)


# Mlt(M*(3))'s chain is pinned where the CLI builds it, in
# test_mlt_order_m3_settles_the_bound_at_q3.
@pytest.mark.parametrize("name", ["Mlt(M*(2))", "Aut(M*(3))", "M0 of net-paige2"])
def test_chain_shapes_are_pinned(name, m2, m3):
    G = {"Mlt(M*(2))": lambda: loops.mlt_group(m2),
         "Aut(M*(3))": lambda: loops.automorphisms(m3),
         "M0 of net-paige2": lambda: triality_group_from_loop(m2).group}[name]()
    assert chain_shape(G) == CHAIN_SHAPES[name]


def test_cyclic_mlt_chain_peak_is_the_table_and_two_stacks():
    # Mlt(Z(3300)) is one cyclic generator: one level whose transversal is
    # two int32 (3300, 3300) stacks, filled and inverted in bounded blocks
    n = 3300
    tracemalloc.start()
    try:
        G = loops.mlt_group(loops.cyclic_loop(n))
        assert G.order() == n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 4 * n * n + fields.MEMORY_BUDGET // 32
    assert chain_shape(G) == CHAIN_SHAPES["Mlt(Z(3300))"]
