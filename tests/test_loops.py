import os

import numpy as np
import pytest

from moufang import loops, paige
from moufang.loops import (ClosureCapExceeded, FiniteLoop, associativity_violation,
                           automorphism_count, automorphisms, autotopism_check,
                           center, closure, closure_indices, commutant, cyclic_loop,
                           direct_product, find_isomorphism, inner_mapping_group,
                           is_moufang, is_normal, is_simple, left_translation,
                           loop_from_closure, loop_from_perm_group, mlt_group,
                           normal_closure, nucleus, read_table, right_translation,
                           write_table)
from moufang.permgrp import Perm, PermGroup


def klein_loop():
    return direct_product(cyclic_loop(2), cyclic_loop(2))


# ---------------------------------------------------------------------------
# construction and closure


def test_latin_validation_rejects_bad_table():
    with pytest.raises(ValueError):
        FiniteLoop(2, table=[[0, 0], [1, 1]])


def test_closure_single_neutral():
    els, _ = closure([0], lambda a, b: (a + b) % 1, 0)
    assert els == [0]


def test_closure_of_generator_in_z6():
    mult = lambda a, b: (a + b) % 6
    els, prods = closure([2], mult, 0)
    assert sorted(els) == [0, 2, 4]
    loop, elements = loop_from_closure([1], mult, 0)
    assert loop.n == 6


def test_closure_cap():
    with pytest.raises(ClosureCapExceeded):
        closure([1], lambda a, b: (a + b) % 1000, 0, cap=10)


def test_loop_from_closure_refuses_past_table_size():
    # (Z/2)^12 has 4096 elements, above the 2048-element table limit
    with pytest.raises(ValueError, match="table limit"):
        loop_from_closure([1 << b for b in range(12)], lambda a, b: a ^ b, 0)
    with pytest.raises(ClosureCapExceeded):
        loop_from_closure([1 << b for b in range(12)], lambda a, b: a ^ b, 0, cap=10)


def test_closure_paige2_generators_mod_sign(m2):
    """The q=2 triple closes to all 120 classes; generic closure agrees
    with the packed engine element by element."""
    gens = paige.standard_generators(2)
    eng = m2.zorn.engine

    def canon_mult(x, y):
        rows = eng.mul(np.asarray([x], dtype=np.int64),
                       np.asarray([y], dtype=np.int64))
        rep = eng.canon(rows)[0]
        return tuple(int(v) for v in rep)

    one = tuple(int(v) for v in eng.unit_row())
    gen_keys = [tuple(int(v) for v in g.matrix.coords()) for g in gens]
    els, _ = closure(gen_keys, lambda a, b: canon_mult(a, b), one,
                     sort_key=lambda t: eng.pack(np.asarray([t]))[0])
    assert len(els) == 120
    packed = paige.closure_packed(2, gens, quotient=True)
    assert [int(eng.pack(np.asarray([t]))[0]) for t in els] == [int(p) for p in packed]


# ---------------------------------------------------------------------------
# translations and multiplication groups


def test_left_translation_neutral_is_identity(s3_loop):
    assert left_translation(s3_loop, s3_loop.neutral).is_identity()
    assert right_translation(s3_loop, s3_loop.neutral).is_identity()


def test_group_translations_compose(s3_loop):
    # in a group, L_x L_y = L_{yx} under left-to-right composition
    T = s3_loop.table
    for x in range(6):
        for y in range(6):
            lx = left_translation(s3_loop, x)
            ly = left_translation(s3_loop, y)
            assert lx * ly == left_translation(s3_loop, int(T[y, x]))


def test_translations_match_table(s3_loop):
    for x in range(s3_loop.n):
        assert (left_translation(s3_loop, x).a == s3_loop.table[x, :]).all()
        assert (right_translation(s3_loop, x).a == s3_loop.table[:, x]).all()


def test_mlt_abelian():
    assert mlt_group(cyclic_loop(3)).order() == 3


def test_mlt_s3(s3_loop):
    # oracle: Mlt(G) = (G x G)/Z(G) for groups, so order 36; cross-checked
    # by brute enumeration of the generated permutation group
    G = mlt_group(s3_loop)
    assert G.order() == 36
    assert len(G.elements()) == 36


GROUPS_UP_TO_24 = [
    ("Z6", lambda: cyclic_loop(6)),
    ("Z2xZ2", klein_loop),
    ("Z12", lambda: cyclic_loop(12)),
    ("D8", lambda: loop_from_perm_group(
        PermGroup(4, [Perm([1, 2, 3, 0]), Perm([3, 2, 1, 0])]))),
    ("A4", lambda: loop_from_perm_group(
        PermGroup(4, [Perm([1, 2, 0, 3]), Perm([0, 2, 3, 1])]))),
]


def test_mlt_group_order_formula_for_groups(s3_loop):
    # |Mlt(G)| = |G|^2 / |Z(G)| for groups
    for name, build in GROUPS_UP_TO_24 + [("S3", None)]:
        G = s3_loop if name == "S3" else build()
        assert mlt_group(G).order() == G.n * G.n // len(center(G))


def test_inner_mapping_group_abelian_trivial():
    assert inner_mapping_group(cyclic_loop(5)).order() == 1


def test_inner_mapping_group_s3(s3_loop):
    # oracle: Inn(G) = G/Z(G) for groups
    inn = inner_mapping_group(s3_loop)
    assert inn.order() == 6


def test_inner_maps_fix_neutral(m2, rng):
    inn = inner_mapping_group(m2)
    e = m2.neutral
    for g in inn.gens:
        assert g(e) == e
    for _ in range(1000):
        w = inn.random_element(rng, word_length=6)
        assert w(e) == e


# ---------------------------------------------------------------------------
# characteristic subloops


def test_commutant_nucleus_center_abelian():
    L = cyclic_loop(6)
    assert commutant(L) == list(range(6))
    assert nucleus(L) == list(range(6))
    assert center(L) == list(range(6))


def test_nucleus_m2_trivial(m2):
    assert nucleus(m2) == [m2.neutral]


def test_center_m2_trivial(m2):
    assert center(m2) == [m2.neutral]


def test_center_is_normal_everywhere(s3_loop, m2):
    for L in (cyclic_loop(4), s3_loop, klein_loop(), m2):
        assert is_normal(L, center(L))


# ---------------------------------------------------------------------------
# normality and simplicity


def test_is_normal_z4():
    assert is_normal(cyclic_loop(4), [0, 2])


def test_normal_closure_s3(s3_loop):
    # a 3-cycle generates the alternating subgroup of order 3
    orders = s3_loop.element_orders()
    three = next(x for x in range(6) if orders[x] == 3)
    assert len(normal_closure(s3_loop, [three])) == 3


def test_normal_closure_m2_everything(m2, rng):
    for x in rng.choice(120, size=8, replace=False):
        x = int(x)
        if x == m2.neutral:
            continue
        assert len(normal_closure(m2, [x])) == 120


def test_is_simple(m2):
    assert is_simple(m2)
    assert not is_simple(cyclic_loop(4))


def test_is_simple_m3_sampled(m3):
    assert is_simple(m3, sample=30)


# ---------------------------------------------------------------------------
# identities


def test_groups_are_moufang(s3_loop):
    assert is_moufang(s3_loop)
    assert is_moufang(cyclic_loop(7))


def test_moufang_violation_readable(non_moufang_loop):
    assert not is_moufang(non_moufang_loop)
    x, y, z = loops.moufang_violation(non_moufang_loop)
    T = non_moufang_loop.table
    lhs = T[T[T[x, y], x], z]
    rhs = T[x, T[y, T[x, z]]]
    assert lhs != rhs


def test_associativity_violation_in_m2(m2):
    w = associativity_violation(m2)
    assert w is not None
    x, y, z = w
    T = m2.table
    assert T[T[x, y], z] != T[x, T[y, z]]


def test_translation_autotopisms_on_moufang_loop(m2):
    # (L_m, R_m, L_m R_m) is an autotopism of a Moufang loop
    for m in (1, 17, 63):
        lm = left_translation(m2, m)
        rm = right_translation(m2, m)
        assert autotopism_check(m2, lm, rm, lm * rm)
        # and a broken triple is rejected
        assert not autotopism_check(m2, lm, rm, rm * lm) or (lm * rm == rm * lm)


def test_inverse_antiautomorphism_moufang(m2, rng):
    inv = m2.two_sided_inverses()
    T = m2.table
    for _ in range(300):
        x, y = int(rng.integers(120)), int(rng.integers(120))
        assert inv[T[x, y]] == T[inv[y], inv[x]]


def test_two_generated_subloops_associative(m2, rng):
    # diassociativity: any two elements generate a subgroup
    for _ in range(6):
        x, y = int(rng.integers(120)), int(rng.integers(120))
        sub = closure_indices(m2, [x, y])
        T = m2.table[np.ix_(sub, sub)]
        relabel = {int(v): i for i, v in enumerate(sub)}
        T = np.vectorize(relabel.get)(T)
        S = FiniteLoop(len(sub), table=T)
        assert associativity_violation(S) is None


# ---------------------------------------------------------------------------
# isomorphisms


def test_find_isomorphism_identity(s3_loop):
    w = find_isomorphism(s3_loop, s3_loop)
    assert w is not None and w.verify()


def test_find_isomorphism_rejects_z4_klein():
    assert find_isomorphism(cyclic_loop(4), klein_loop()) is None


def test_automorphism_counts_small(s3_loop):
    assert automorphism_count(cyclic_loop(3)) == 2
    assert automorphism_count(s3_loop) == 6
    assert automorphism_count(klein_loop()) == 6
    auts = automorphisms(cyclic_loop(3))
    assert len(auts) == 2


def test_isomorphism_between_relabeled_copies(m2, rng):
    perm = rng.permutation(120)
    inv = np.empty(120, dtype=np.int64)
    inv[perm] = np.arange(120)
    T2 = perm[m2.table[np.ix_(inv, inv)]]
    L2 = FiniteLoop(120, table=T2)
    w = find_isomorphism(m2, L2)
    assert w is not None and w.verify()


# ---------------------------------------------------------------------------
# file format


def test_table_roundtrip(tmp_path, s3_loop):
    path = os.fspath(tmp_path / "s3.tbl")
    write_table(s3_loop, path)
    L = read_table(path)
    assert L.n == s3_loop.n
    assert L.labels == s3_loop.labels
    assert (L.table == s3_loop.table).all()
    # byte-exact round trip
    write_table(L, path + "2")
    assert open(path).read() == open(path + "2").read()
