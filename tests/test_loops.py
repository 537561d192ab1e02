import hashlib
import itertools
import os
import tracemalloc

import numpy as np
import pytest

from conftest import (closure_oracle, extender_oracle, loop_from_perm_group_table_oracle,
                      normal_closure_oracle, point_orbit_oracle, subloop_sizes_oracle)
from golden.transcript import order_16_pair
from moufang import cayley, fields, loops, paige
from moufang.loops import (FiniteLoop, associativity_violation,
                           automorphisms, autotopism_check,
                           center, closure, closure_indices, commutant, cyclic_loop,
                           direct_product, find_isomorphism, generating_sequence,
                           inner_mapping_group, is_normal,
                           left_translation, loop_from_perm_group, mlt_group,
                           normal_closure, nucleus, read_table, right_translation,
                           write_table)
from moufang.fields import UsageError
from moufang.permgrp import Perm, PermGroup, orbit


def klein_loop():
    return direct_product(cyclic_loop(2), cyclic_loop(2))


# ---------------------------------------------------------------------------
# construction and closure


def test_latin_validation_rejects_bad_table():
    with pytest.raises(ValueError):
        FiniteLoop(2, table=[[0, 0], [1, 1]])


def test_closure_single_neutral():
    assert closure([(0,)], lambda a, b: (a + b) % 1, (0,)).tolist() == [[0]]


def test_closure_of_generator_in_z6():
    mult = lambda a, b: (a + b) % 6
    assert sorted(closure([(2,)], mult, (0,))[:, 0].tolist()) == [0, 2, 4]
    # breadth first from the neutral element
    assert closure([(1,)], mult, (0,))[:, 0].tolist() == [0, 1, 2, 3, 4, 5]


def test_closure_cap():
    mult = lambda a, b: (a + b) % 1000
    assert len(closure([(1,)], mult, (0,), limit=1000)) == 1000
    with pytest.raises(ValueError, match="limit 999"):
        closure([(1,)], mult, (0,), limit=999)


def z3_z4(X, Y):
    Z = X + Y
    return np.stack([Z[:, 0] % 3, Z[:, 1] % 4], axis=1)


def test_closure_of_rows_numbers_breadth_first():
    # Z/3 x Z/4 on rows; the ints 4a + b, as rows of one entry, close the
    # same way
    gens = [(0, 1), (1, 0), (0, 1)]
    els = closure(gens, z3_z4, (0, 0))
    assert els.dtype == np.int64 and els.shape == (12, 2)
    els = [tuple(e) for e in els.tolist()]
    assert els[:3] == [(0, 0), (0, 1), (1, 0)]
    assert set(els) == closure_oracle(gens, z3_z4, (0, 0)) and len(set(els)) == 12
    level1 = [(0, 2), (1, 1), (2, 0)]
    assert els[3:6] == level1
    ints = closure([(1,), (4,), (1,)],
                   lambda a, b: (a + b) % 4 + 4 * ((a // 4 + b // 4) % 3), (0,))
    assert ints[:, 0].tolist() == [4 * a + b for a, b in els]


def test_closure_without_generators_is_one():
    els = closure([], z3_z4, (1, 2))
    assert els.tolist() == [[1, 2]]


def test_closure_refuses_rows_past_int32():
    big = 2 ** 31
    with pytest.raises(ValueError, match="past int32"):
        closure([(0, big)], z3_z4, (0, 0))
    with pytest.raises(ValueError, match="past int32"):
        closure([(0, 1)], z3_z4, (-big - 1, 0))
    # a product past int32 is refused too, not wrapped
    with pytest.raises(ValueError, match="past int32"):
        closure([(0, 1)], lambda X, Y: X + Y + big, (0, 0))


def test_closure_paige2_generators_mod_sign(m2):
    """The q=2 triple closes to all 120 classes; generic closure agrees
    with the packed engine as a set of packs, and with the level-batched
    oracle."""
    gens = paige.standard_generators(2)
    eng = m2.zorn.engine
    one = tuple(int(v) for v in eng.unit_row())
    gen_keys = [tuple(int(v) for v in g.coords()) for g in gens]
    mult = lambda X, Y: eng.canon(eng.mul(X, Y))
    els = closure(gen_keys, mult, one)
    assert len(els) == 120
    packed = paige.closure_packed(2, gens)
    assert np.array_equal(np.sort(eng.pack(els)), packed)
    assert set(map(tuple, els.tolist())) == closure_oracle(gen_keys, mult, one)


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


@pytest.mark.parametrize("name,degree,gens", [
    ("trivial", 1, []), ("S3", 3, [[1, 0, 2], [0, 2, 1]]),
    ("D8", 4, [[1, 2, 3, 0], [3, 2, 1, 0]]), ("A4", 4, [[1, 2, 0, 3], [0, 2, 3, 1]]),
    ("S5", 5, [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]])])
def test_loop_from_perm_group_matches_the_product_oracle(name, degree, gens, monkeypatch):
    G = PermGroup(degree, [Perm(g) for g in gens])
    want = loop_from_perm_group_table_oracle(G)
    assert np.array_equal(loop_from_perm_group(G).table, want)
    # in row blocks of two rows
    monkeypatch.setattr(fields, "MEMORY_BUDGET", 64 * 16 * 2 * len(want) * degree)
    assert np.array_equal(loop_from_perm_group(G).table, want)


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
        w = inn.random_element(rng)
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
    # simple: the normal closure of every non-neutral element is the loop
    assert all(len(normal_closure(m2, [x])) == m2.n
               for x in range(m2.n) if x != m2.neutral)
    assert sorted(normal_closure(cyclic_loop(4), [2])) == [0, 2]


def octonion_units_loop():
    """O16, the 16 units +-e_i of the octonions, multiplied by cayley."""
    units = [tuple(2 * s * (t == i) for t in range(8)) for i in range(8) for s in (1, -1)]
    index = {u: k for k, u in enumerate(units)}
    prods = cayley.mul_batch(np.repeat(units, 16, axis=0), np.tile(units, (16, 1)))
    return FiniteLoop(16, table=np.reshape([index[tuple(p)] for p in prods.tolist()],
                                           (16, 16)))


@pytest.mark.parametrize("name", ["m2", "S3", "Z12", "Z30", "O16", "O16xZ7", "m3", "u3"])
def test_normal_closure_matches_the_full_sweep(name, request, s3_loop):
    # every element, or 100 seeded ones of M*(3) and M(3)
    if name in ("m2", "m3", "u3"):
        L = request.getfixturevalue(name)
    elif name == "S3":
        L = s3_loop
    elif name.startswith("Z"):
        L = cyclic_loop(int(name[1:]))
    else:
        L = octonion_units_loop()
        if name == "O16xZ7":
            L = direct_product(L, cyclic_loop(7))
    xs = range(L.n)
    if name in ("m3", "u3"):  # and the center, {e, -e} in M(3)
        xs = np.random.default_rng(loops.SAMPLE_SEED).choice(L.n, size=100, replace=False)
        xs = list(xs) + center(L)
    sizes = set()
    for x in xs:
        got = normal_closure(L, [int(x)])
        assert np.array_equal(got, normal_closure_oracle(L, [int(x)])), x
        sizes.add(len(got))
    if name in ("S3", "Z12", "O16", "u3"):
        assert len(sizes) > 2  # proper normal closures, not just 1 and n


# A commutative loop of order 6, so every T_x is the identity, in which the
# subloop {0, 1} is not normal; found by scanning symmetric 6x6 Latin
# squares, frozen here
COMMUTATIVE_6 = np.array([
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 4, 5, 2],
    [2, 3, 0, 5, 1, 4],
    [3, 4, 5, 0, 2, 1],
    [4, 5, 1, 2, 0, 3],
    [5, 2, 4, 1, 3, 0],
], dtype=np.int32)


def test_normal_closure_past_the_conjugation_maps():
    # the maps T_x move nothing, so the sweep of L(x, y) and R(x, y) on the
    # division tables must find what leaves {0, 1}
    L = FiniteLoop(6, table=COMMUTATIVE_6)
    assert np.array_equal(closure_indices(L, [1]), [0, 1])
    assert L._ldiv is None and L._rdiv is None
    assert not is_normal(L, [0, 1])
    assert L._ldiv is not None and L._rdiv is not None
    for x in range(6):
        assert np.array_equal(normal_closure(L, [x]), normal_closure_oracle(L, [x]))
    assert len(normal_closure(L, [1])) == 6


def test_is_simple_m3_sampled(m3):
    others = [x for x in range(m3.n) if x != m3.neutral]
    picks = np.random.default_rng(loops.SAMPLE_SEED).choice(len(others), size=30,
                                                            replace=False)
    for i in picks:
        assert len(normal_closure(m3, [others[int(i)]])) == m3.n


# ---------------------------------------------------------------------------
# identities


def _violates(T, x, y, z):
    return T[T[T[x, y], x], z] != T[x, T[y, T[x, z]]]


def test_groups_are_moufang(s3_loop):
    assert loops.moufang_violation(s3_loop) is None
    assert loops.moufang_violation(cyclic_loop(7)) is None


def test_moufang_violation_readable(non_moufang_loop):
    assert loops.moufang_violation(non_moufang_loop) is not None
    assert _violates(non_moufang_loop.table, *loops.moufang_violation(non_moufang_loop))


def test_sampled_moufang_check_runs_in_chunks(non_moufang_loop, monkeypatch):
    # the 100000 samples of the acceptance lines run in working blocks
    assert len(list(fields.blocks(100000, loops._MOUFANG_SAMPLE_BYTES))) == 7
    # 100 samples in chunks of 2 triples draw the triples of one (100, 3)
    # draw, so the witness matches the one-chunk run; seed 5's first
    # violation is the second triple of the third chunk
    monkeypatch.setattr(fields, "_IDENTITY_SAMPLE_LIMIT", 0)
    assert loops.moufang_mode(non_moufang_loop.n, 100) == "sampled:100"
    T = non_moufang_loop.table
    triples = [tuple(t) for t in fields.Sampler(5).integers(5, size=(100, 3)).tolist()]
    first = next(i for i, t in enumerate(triples) if _violates(T, *t))
    assert first == 5
    sizes = []

    class Recording(fields.Sampler):
        def integers(self, high, size=None, dtype=np.int64):
            sizes.append(size)
            return super().integers(high, size, dtype)
    monkeypatch.setattr(fields, "Sampler", Recording)
    witnesses = []
    for row_bytes in (loops._MOUFANG_SAMPLE_BYTES, fields.MEMORY_BUDGET // 64 // 2):
        monkeypatch.setattr(loops, "_MOUFANG_SAMPLE_BYTES", row_bytes)
        witnesses.append(loops.moufang_violation(non_moufang_loop, samples=100, seed=5))
    assert witnesses == [triples[first]] * 2 and _violates(T, *witnesses[0])
    assert sizes == [(100, 3)] + [(2, 3)] * (first // 2 + 1)


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


def _inverses_by_scan(loop):
    T, e = loop.table, loop.neutral
    right = [int(np.flatnonzero(T[x, :] == e)[0]) for x in range(loop.n)]
    left = [int(np.flatnonzero(T[:, x] == e)[0]) for x in range(loop.n)]
    return right if right == left else None


@pytest.mark.parametrize("name", ["m2", "S3", "non-moufang-5", "one-sided-5"])
def test_two_sided_inverses_match_brute_force(name, m2, s3_loop, non_moufang_loop,
                                             one_sided_loop):
    loop = {"m2": m2, "S3": s3_loop, "non-moufang-5": non_moufang_loop,
            "one-sided-5": one_sided_loop}[name]
    want = _inverses_by_scan(loop)
    got = loop.two_sided_inverses()
    if name == "one-sided-5":
        assert want is None and got is None
    else:
        assert want is not None and got.tolist() == want


def test_cyclic_loop_3344_peaks_near_its_table():
    # the table is built in place and checked in blocks, with no sorted
    # copy of the whole table
    tracemalloc.start()
    try:
        L = cyclic_loop(3344)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= L.table.nbytes + fields.MEMORY_BUDGET // 16


@pytest.mark.parametrize("n", [0, -2])
def test_a_loop_needs_an_element(n):
    with pytest.raises(ValueError, match="a loop has at least one element, not %d" % n):
        FiniteLoop(n, table=np.zeros((0, 0), dtype=np.int32))


def test_memory_budget_decides_table_mode():
    assert fields.MEMORY_BUDGET == 2 ** 27
    loops.require_table_fits(3344)
    with pytest.raises(UsageError, match="needs table mode"):
        loops.require_table_fits(3345)
    # a table is kept while it fits, and refused before it is read past that
    assert cyclic_loop(3344).table.shape == (3344, 3344)
    with pytest.raises(UsageError, match="needs table mode"):
        FiniteLoop(3345, table=np.zeros((1, 1), dtype=np.int32))
    with pytest.raises(UsageError, match="needs table mode"):
        cyclic_loop(3345)


def test_moufang_mode():
    assert loops.moufang_mode(512, 7) == "exhaustive"
    assert loops.moufang_mode(513, 7) == "sampled:7"


def _closure_indices_reference(loop, seed):
    # the loop body that ran one more full round after reaching the whole loop
    T = loop.table
    member = np.zeros(loop.n, dtype=bool)
    todo = set(int(s) for s in seed)
    todo.add(loop.neutral)
    cur = np.array(sorted(todo), dtype=np.int64)
    member[cur] = True
    while True:
        prods = T[np.ix_(cur, cur)].ravel()
        fresh = np.unique(prods[~member[prods]])
        if len(fresh) == 0:
            return np.flatnonzero(member)
        member[fresh] = True
        cur = np.flatnonzero(member)


@pytest.mark.parametrize("name", ["m3", "u3", "z12"])
def test_closure_indices_matches_reference(name, request, rng):
    L = cyclic_loop(12) if name == "z12" else request.getfixturevalue(name)
    gens, levels = generating_sequence(L)
    seeds = [gens[:i + 1] for i in range(len(gens))] + [[], [L.neutral]]
    seeds += rng.integers(L.n, size=(20, 2)).tolist()
    if name == "u3":
        seeds.append(center(L))  # {e, -e}
    sizes = set()
    for seed in seeds:
        got = closure_indices(L, seed)
        assert np.array_equal(got, _closure_indices_reference(L, seed)), seed
        sizes.add(len(got))
    assert L.n in sizes and 1 in sizes and len(sizes) > 2  # whole, trivial, proper
    if name == "u3":
        assert len(closure_indices(L, center(L))) == 2


def test_closure_indices_matches_reference_in_normal_closures(m2, monkeypatch):
    # every closure the single-element normal closures of M*(2) ask for
    seeds = []
    real = loops.closure_indices

    def record(loop, seed):
        seeds.append(np.array(seed))
        return real(loop, seed)
    monkeypatch.setattr(loops, "closure_indices", record)
    for x in range(m2.n):
        loops.normal_closure(m2, [x])
    monkeypatch.undo()
    assert len(seeds) >= m2.n
    for seed in seeds:
        assert np.array_equal(closure_indices(m2, seed),
                              _closure_indices_reference(m2, seed))


def test_closure_indices_on_cyclic_subgroups():
    L = cyclic_loop(12)
    for seed, size in (([], 1), ([0], 1), ([6], 2), ([3], 4), ([4], 3),
                       ([4, 6], 6), ([8, 9], 12), ([5], 12), ([2, 3], 12)):
        got = closure_indices(L, seed)
        assert np.array_equal(got, _closure_indices_reference(L, seed)), seed
        assert len(got) == size, seed


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
    # the trivial loop has no generators: the search starts at its leaf
    for L in (s3_loop, cyclic_loop(1)):
        w = find_isomorphism(L, L)
        assert w is not None and w.verify()
    assert generating_sequence(cyclic_loop(1)) == ([], [])
    assert automorphisms(cyclic_loop(1)).order() == 1


def test_find_isomorphism_rejects_z4_klein():
    assert find_isomorphism(cyclic_loop(4), klein_loop()) is None


def test_automorphism_counts_small(s3_loop):
    assert automorphisms(cyclic_loop(3)).order() == 2
    assert automorphisms(s3_loop).order() == 6
    assert automorphisms(klein_loop()).order() == 6
    auts = automorphisms(cyclic_loop(3)).elements()
    assert len(auts) == 2


def test_automorphism_orbits_match_the_scalar_oracle(m2):
    # level i's strong generators fix <g_0..g_{i-1}> pointwise, and the
    # orbits of g_i under them multiply to |Aut(M*(2))| = |G2(2)|
    group = automorphisms(m2)
    gens, levels = generating_sequence(m2)
    order = 1
    for i, g in enumerate(gens):
        fixed = levels[i - 1] if i else [m2.neutral]
        strong = [p for p in group.gens if (p.a[fixed] == fixed).all()]
        order *= len(point_orbit_oracle(g, strong))
    assert order == group.order() == 12096
    S = np.array([p.a for p in group.gens], dtype=np.int32)
    for x in range(m2.n):
        got = np.frombuffer(b"".join(orbit([x], S)[0]), np.int32).tolist()
        assert set(got) == point_orbit_oracle(x, group.gens)


def brute_force_automorphisms(loop):
    """Every permutation fixing the neutral element that is a homomorphism."""
    T = loop.table
    rest = [x for x in range(loop.n) if x != loop.neutral]
    out = set()
    for images in itertools.permutations(rest):
        m = np.empty(loop.n, dtype=np.int64)
        m[loop.neutral] = loop.neutral
        m[rest] = images
        if (T[np.ix_(m, m)] == m[T]).all():
            out.add(tuple(int(v) for v in m))
    return out


@pytest.mark.parametrize("name", ["Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8",
                                  "S3", "klein"])
def test_automorphisms_match_brute_force(name, s3_loop):
    loop = {"S3": s3_loop, "klein": klein_loop()}.get(name)
    if loop is None:
        loop = cyclic_loop(int(name[1:]))
    group = automorphisms(loop)
    found = {tuple(int(v) for v in p.a) for p in group.elements()}
    assert found == brute_force_automorphisms(loop)
    assert group.order() == len(found)


def test_automorphisms_of_m2_are_pinned(m2):
    # SHA-256 of the 12096 automorphism arrays (int32 little-endian, rows in
    # lexicographic order) as the exhaustive enumeration listed them
    group = automorphisms(m2)
    assert group.order() == 12096
    rows = np.array(sorted(tuple(int(v) for v in p.a) for p in group.elements()),
                    dtype="<i4")
    assert rows.shape == (12096, 120)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == (
        "42fe510149777d5e21a7ba5f3c0b29f81b38b4964e83d1b8c26a6486c07e7cc5")


def test_isomorphism_between_relabeled_copies(m2, rng):
    perm = rng.permutation(120)
    inv = np.empty(120, dtype=np.int64)
    inv[perm] = np.arange(120)
    T2 = perm[m2.table[np.ix_(inv, inv)]]
    L2 = FiniteLoop(120, table=T2)
    w = find_isomorphism(m2, L2)
    assert w is not None and w.verify()


def order_16_loops():
    """Z4 x Z4 and Z4 x| Z4: the same invariants, not isomorphic."""
    return [FiniteLoop(16, labels, table=T) for labels, T in order_16_pair()]


def test_searches_match_the_schedule_oracle(m2, s3_loop, non_moufang_loop,
                                            one_sided_loop, monkeypatch):
    # the first-found maps, and the strong generators in the order found,
    # of the search and of the schedule search it replaced
    perm = np.random.default_rng(loops.SAMPLE_SEED).permutation(120)
    inv = np.argsort(perm)
    relabelled = FiniteLoop(120, table=perm[m2.table[np.ix_(inv, inv)]])
    integral = cayley.quotient_mod_sign(cayley.generate_unit_integrals())
    z4xz4, z4sdz4 = order_16_loops()
    pairs = [(m2, relabelled), (integral, m2), (z4xz4, z4sdz4),
             (non_moufang_loop, non_moufang_loop), (one_sided_loop, one_sided_loop)]
    subjects = [direct_product(octonion_units_loop(), cyclic_loop(7)), s3_loop,
                cyclic_loop(12), cyclic_loop(1), non_moufang_loop, one_sided_loop,
                z4xz4, z4sdz4]

    def searches():
        witnesses = [find_isomorphism(a, b) for a, b in pairs]
        groups = [automorphisms(L) for L in subjects]
        return ([None if w is None else w.mapping.tolist() for w in witnesses],
                [[p.a.tolist() for p in G.gens] for G in groups],
                [G.order() for G in groups])

    got = searches()
    monkeypatch.setattr(loops, "_extender", extender_oracle)
    assert searches() == got
    maps, _, orders = got
    assert [m is None for m in maps] == [False, False, True, False, False]
    assert orders[-2:] == [96, 32]


def test_propagation_in_small_blocks_finds_the_same_maps(m2, monkeypatch):
    subjects = [m2, direct_product(octonion_units_loop(), cyclic_loop(7))]

    def searches():
        return ([find_isomorphism(L, L).mapping.tolist() for L in subjects],
                [[p.a.tolist() for p in automorphisms(L).gens] for L in subjects])

    got = searches()
    monkeypatch.setattr(fields, "MEMORY_BUDGET", 64 * 32 * 120 * 3)
    # a round on M*(2)'s last level goes in blocks of 3 rows
    assert fields.budget_rows(32 * m2.n) == 3
    assert searches() == got


def test_propagate_extends_homomorphisms_and_refuses_conflicts():
    Z12, Z8, Z6 = (cyclic_loop(n).table for n in (12, 8, 6))

    def preset(pairs):
        t = np.full(12, -1, dtype=np.int64)
        t[[x for x, _ in pairs]] = [y for _, y in pairs]
        return t

    def propagate(T1, T2, t):  # every set entry fresh
        return loops._propagate(T1, T2, t, np.empty(0, dtype=np.int64),
                                np.flatnonzero(t >= 0))

    t = preset([(0, 0), (1, 1)])
    assert propagate(Z12, Z6, t) and t.tolist() == [x % 6 for x in range(12)]
    t = preset([(0, 0), (5, 2)])  # 5 generates Z12, and x -> 10x mod 12 is a map
    assert propagate(Z12, Z12, t) and t.tolist() == [10 * x % 12 for x in range(12)]
    t = preset([(0, 0), (4, 4)])  # only the subloop {0, 4, 8} is mapped
    assert propagate(Z12, Z12, t) and np.flatnonzero(t >= 0).tolist() == [0, 4, 8]
    # 1 + 1 = 2 is preset to 3; 12 * 1 = 0 in Z12 but 12 * 1 = 4 in Z8
    assert not propagate(Z12, Z12, preset([(0, 0), (1, 1), (2, 3)]))
    assert not propagate(Z12, Z8, preset([(0, 0), (1, 1)]))


def test_propagate_forms_each_product_of_the_subloop_once(m2, monkeypatch):
    # the identity map from each generator prefix of M*(2), every entry
    # fresh: its rounds gather |subloop|^2 products in all, priced at 32
    # bytes a cell; from the level before with only the new generator
    # fresh, as extend calls it: |subloop|^2 - |level before|^2
    gens, levels = generating_sequence(m2)
    cells = []
    real = loops.blocks

    def record(total, row_bytes, *args, **kwargs):
        cells.append(total * row_bytes // 32)
        return real(total, row_bytes, *args, **kwargs)

    monkeypatch.setattr(loops, "blocks", record)
    none = np.empty(0, dtype=np.int64)
    for i, sub in enumerate(levels):
        before = levels[i - 1] if i else np.array([m2.neutral])
        for old, fresh in ((none, np.array([m2.neutral] + gens[:i + 1])),
                           (before, np.array([gens[i]]))):
            cells.clear()
            t = np.full(m2.n, -1, dtype=np.int64)
            t[old], t[fresh] = old, fresh
            assert loops._propagate(m2.table, m2.table, t, old, fresh)
            assert np.flatnonzero(t >= 0).tolist() == sub.tolist()
            assert (t[sub] == sub).all() and sum(cells) == len(sub) ** 2 - len(old) ** 2


def left_power_orders_oracle(loop):
    """Per x, the least k with x(x(...x)) = e, k factors, one product a step."""
    orders = []
    for x in range(loop.n):
        y, k = x, 1
        while y != loop.neutral:
            y, k = int(loop.table[x, y]), k + 1
        orders.append(k)
    return orders


@pytest.mark.parametrize("name", ["m2", "m3", "u3", "s3_loop", "non_moufang_loop",
                                  "one_sided_loop", "Z1", "Z12", "O16xZ7"])
def test_element_orders_match_the_scalar_walk(name, request):
    if name.startswith("Z"):
        L = cyclic_loop(int(name[1:]))
    elif name == "O16xZ7":
        L = direct_product(octonion_units_loop(), cyclic_loop(7))
    else:
        L = request.getfixturevalue(name)
    orders = L.element_orders()
    assert orders.dtype == np.int32
    assert orders.tolist() == left_power_orders_oracle(L)


def power_set_oracle(loop, x):
    """The left powers x, x x, x (x x), ... of x up to e, one product a step."""
    y, powers = x, [x]
    while y != loop.neutral:
        y = int(loop.table[x, y])
        powers.append(y)
    return powers


@pytest.mark.parametrize("name", ["Z12", "s3_loop", "m2", "O16xZ7", "non_moufang_loop",
                                  "one_sided_loop"])
def test_invariant_vector_matches_one_closure_per_element(name, request, monkeypatch):
    if name == "Z12":
        L = cyclic_loop(12)
    elif name == "O16xZ7":
        L = direct_product(octonion_units_loop(), cyclic_loop(7))
    else:
        L = request.getfixturevalue(name)
    orders, sizes = loops._invariant_vector(L)
    assert orders.tolist() == left_power_orders_oracle(L)
    assert sizes.dtype == np.int32 and sizes.tolist() == subloop_sizes_oracle(L)
    # the same in blocks of 5 elements, and one closure per left-power set
    seeds = []
    closure = loops.closure_indices

    def counted(loop, seed):
        seeds.append(list(seed))
        return closure(loop, seed)
    monkeypatch.setattr(loops, "closure_indices", counted)
    monkeypatch.setattr(fields, "MEMORY_BUDGET", 64 * 5 * 2 * L.n)
    assert loops._invariant_vector(L)[1].tolist() == sizes.tolist()
    powers = {frozenset(power_set_oracle(L, x)) for x in range(L.n)}
    assert len(seeds) == len(powers) <= L.n


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


def test_read_table_peak_stays_near_the_table(tmp_path):
    # rows are parsed into the int32 table: the table, the sorted blocks its
    # Latin check makes and that check's masks, well under the 12 bytes per
    # cell that require_table_fits prices (a list of rows took about 39)
    path = tmp_path / "z1024.tbl"
    write_table(cyclic_loop(1024), path)
    tracemalloc.start()
    try:
        L = read_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (L.table == cyclic_loop(1024).table).all()
    assert peak <= 10 * 1024 ** 2


def test_read_table_refuses_malformed_files(tmp_path):
    path = tmp_path / "t.tbl"
    write_table(cyclic_loop(3), path)
    good = path.read_text()
    assert read_table(path).table.tolist() == cyclic_loop(3).table.tolist()
    for bad in (good.replace("2 0 1", "2 0 x"),  # non-integer cell
                good.replace("2 0 1", "2 0 0"),  # not Latin
                good.replace("1 2 0", "1 2"),    # ragged row
                good.replace("1 2 0", "1 2 0 1"),  # long row
                good[:-6],                       # missing row
                good.replace("2 0 1", "2 0 1" + "0" * 12),  # past int32
                "x\n" + good,                   # no element count
                "-2\n" + good[2:],              # negative element count
                "4000\n"):                      # past the memory budget
        path.write_text(bad)
        with pytest.raises(UsageError):
            read_table(path)
    path.write_bytes(b"3\n\xff\xfe\n")  # not text
    with pytest.raises(UsageError):
        read_table(path)
