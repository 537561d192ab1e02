import numpy as np
import pytest

from moufang import fields, loops
from moufang.permgrp import (IncompleteChainError, Perm, PermGroup,
                             homomorphism_kernel)


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
