import hashlib
import re
import tracemalloc
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (enumerate_unit_coords_oracle, frobenius_map, frobenius_perm,
                      zorn_mul_oracle, zorn_norm_oracle)
from moufang import fields, loops, paige
from moufang.cli import main
from moufang.composition import ZornMatrix, decompose_sum_two_units
from moufang.fields import UsageError, field_of_order, parse_field_spec


def test_order_formulas():
    # (1/d) q^3 (q^4 - 1), d = gcd(2, q-1)
    assert paige.paige_order_formula(2) == 120
    assert paige.paige_order_formula(3) == 1080
    assert paige.paige_order_formula(4) == 16320
    assert paige.paige_order_formula(5) == 39000
    assert paige.mlt_paige_order_formula(2) == 174182400


def test_unit_loop_sizes(u3):
    # q^3 (q^4 - 1) elements in M(q)
    M2 = paige.unit_loop(2)
    assert M2.n == 120 == 2 ** 3 * (2 ** 4 - 1)
    assert u3.n == 2160 == 3 ** 3 * (3 ** 4 - 1)


def test_unit_loop_neutral_is_diag(u3):
    assert u3.labels[u3.neutral] == "[1|0,0,0|0,0,0|1]"


def test_unit_loop_rejects_large_q(monkeypatch):
    # the loops are refused by their order formula before anything is
    # enumerated, and enumerate_unit_coords has its own bound on the units
    # it lists (q <= 5); both before an engine is built
    enumerate_unit_coords = paige.enumerate_unit_coords

    def no_engine(field):
        raise AssertionError("built an engine over GF(%d)" % field.q)

    def no_enumeration(field):
        raise AssertionError("enumerated GF(%d)" % field.q)
    monkeypatch.setattr(paige, "ZornEngine", no_engine)
    monkeypatch.setattr(paige, "enumerate_unit_coords", no_enumeration)
    for build in (paige.unit_loop, paige.paige_loop):
        for q in (4, 5, 7, 9):
            with pytest.raises(UsageError, match="needs table mode"):
                build(q)
    for q in (7, 9):
        with pytest.raises(UsageError, match="a listing over GF\\(%d\\) visits "
                           "%d norm-one units, past the limit of %d"
                           % (q, paige.unit_loop_size_formula(q), paige.UNIT_CHECK_LIMIT)):
            enumerate_unit_coords(field_of_order(q))


def test_conjugate_is_inverse_exhaustive():
    # x * conj(x) = e for every norm-one x, q <= 3 (checked in module too)
    for q in (2, 3):
        L = paige.unit_loop(q)
        eng = L.zorn.engine
        prods = eng.mul(L.zorn.coords, eng.conj(L.zorn.coords))
        assert (prods == eng.unit_row()[None, :]).all()


def test_quotient_ratio():
    for q in (2, 3, 4, 5):
        field = field_of_order(q)
        coords = paige.enumerate_unit_coords(field)
        eng = paige.ZornEngine(field)
        reps = int((eng.pack(coords) <= eng.pack(eng.neg(coords))).sum())
        d = 2 if q % 2 else 1
        assert len(coords) == d * reps
        assert reps == paige.paige_order_formula(q) == len(paige.paige_coords(field))


@pytest.mark.parametrize("small_chunks", [False, True])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_streamed_units_are_the_meshgrid_enumeration(q, small_chunks, monkeypatch):
    # row for row and byte for byte; small chunks (the q^3 beta of one
    # alpha) cut every run of a, the run of a = 0 included
    field = field_of_order(q)
    want = enumerate_unit_coords_oracle(field)
    if small_chunks:
        monkeypatch.setattr(fields, "MEMORY_BUDGET", 2 ** 16)
    got = paige.enumerate_unit_coords(field)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    eng = paige.ZornEngine.of(field)
    reps = want[eng.pack(want) <= eng.pack(eng.neg(want))]
    assert paige.paige_coords(field).tobytes() == reps.tobytes()
    assert paige.count_paige_coords(field) == len(reps)
    index = np.concatenate([[len(want) - 1, 0, 0],
                            np.random.default_rng(q).integers(len(want), size=500)])
    assert np.array_equal(paige.unit_rows(field, index), want[index])
    assert paige.unit_rows(field, []).shape == (0, 8)
    for bad in ([len(want)], [-1]):
        with pytest.raises(IndexError, match="no norm-one unit at position %d" % bad[0]):
            paige.unit_rows(field, bad)


@pytest.mark.parametrize("q", [7, 8, 9])
def test_streamed_units_count_past_q5(q):
    # strictly ascending packs make the rows distinct and canonically
    # ordered; unit_chunks checks every norm; so the count is every unit
    field = field_of_order(q)
    eng = paige.ZornEngine.of(field)
    count, last = 0, -1
    for rows in paige.unit_chunks(field):
        packs = eng.pack(rows)
        assert packs[0] > last and (np.diff(packs) > 0).all()
        count, last = count + len(rows), packs[-1]
    assert count == paige.unit_loop_size_formula(q)


def _paige_backend(q):
    """The M*(q) backend of the enumeration, without a Cayley table: the
    tables of M*(4) and M*(5) do not fit the memory budget."""
    field = field_of_order(q)
    return paige._PaigeBackend(field, paige.paige_coords(field), quotient=True)


def test_paige_loop_orders(m2, m3):
    assert m2.n == 120
    assert m3.n == 1080


def test_paige_loops_moufang_nonassociative(m2, m3):
    assert loops.moufang_violation(m2) is None
    assert loops.moufang_violation(m3) is None
    assert loops.associativity_violation(m2) is not None
    assert loops.associativity_violation(m3) is not None


def test_center_paige_trivial(m2, m3):
    assert loops.center(m2) == [m2.neutral]
    assert loops.center(m3) == [m3.neutral]


def test_center_unit_loop_q3(u3):
    cen = loops.center(u3)
    assert sorted(u3.labels[i] for i in cen) == \
        ["[1|0,0,0|0,0,0|1]", "[2|0,0,0|0,0,0|2]"]


def test_standard_generators_dets():
    for q in (2, 3, 4, 5, 7, 9):
        gens = paige.standard_generators(q)
        assert len(gens) == 3
        for g in gens:
            assert g.det() == g.field.one


def test_generator_closures_small():
    assert paige.generator_closure_size(2) == 120
    assert paige.generator_closure_size(3) == 1080


def test_packed_closure_q3_is_pinned():
    # pins the elements of the closure, read off the bitmap in sorted order
    packed = paige.closure_packed(3, paige.standard_generators(3))
    assert packed.dtype == np.int64 and len(packed) == 1080
    assert np.all(np.diff(packed) > 0)
    assert hashlib.sha256(packed.tobytes()).hexdigest() == \
        "7bdee1f90c3f525dadc67f46387461fb634f91fd74d247476872a745c60d5a32"


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_reachability_closure_is_the_paige_loop(q):
    gens = paige.standard_generators(q)
    els, certified = paige.reachability_closure_certified(q, gens)
    assert certified
    assert np.array_equal(els, _paige_backend(q).packed)
    assert np.array_equal(paige.closure_packed(q, gens), els)
    if q <= 3:
        assert np.array_equal(els, paige.paige_loop(q).zorn.packed)


def test_closures_are_refused_past_the_budget(monkeypatch):
    # the refusal reads q alone: no field table is built
    def boom(q):
        raise AssertionError("built GF(%d) before refusing" % q)
    monkeypatch.setattr(paige, "field_of_order", boom)
    for q in (11, 13):
        for closure in (paige.closure_packed, paige.reachability_closure_certified):
            with pytest.raises(UsageError, match="memory budget"):
                closure(q, [])


def test_closure_pricing_admits_q8_and_q9(monkeypatch):
    # the bitmap and 8 bytes per element take about 21 and 24 MB at q = 8
    # and 9, and about 105 MB at q = 11, past 3/4 of the budget; nothing runs
    def boom(q):
        raise AssertionError("built GF(%d)" % q)
    monkeypatch.setattr(paige, "field_of_order", boom)
    for q in (8, 9):
        paige._require_closure_fits(q)
        assert paige._closure_bytes(q) == -(-q ** 8 // 8) + 8 * paige.paige_order_formula(q)
    assert 4 * paige._closure_bytes(11) > 3 * fields.MEMORY_BUDGET


def test_closure_batches_do_not_change_the_result(monkeypatch):
    # frontier chunks of 21 rows (126 products) give the same closures
    gens = paige.standard_generators(3)
    packed = paige.closure_packed(3, gens)
    els, certified = paige.reachability_closure_certified(5, paige.standard_generators(5))
    assert certified and np.array_equal(els, _paige_backend(5).packed)
    monkeypatch.setattr(paige, "_PRODUCT_BYTES", paige._PRODUCT_BYTES * 1000)
    assert np.array_equal(paige.closure_packed(3, gens), packed)


def test_closure_rejects_non_unit_generators(gf5):
    x = ZornMatrix(gf5, 2, (0, 0, 0), (0, 0, 0), 1)  # norm 2
    with pytest.raises(ValueError, match="norm one"):
        paige.reachability_closure_certified(5, [x])


def test_frobenius_identity_on_prime_field(m2):
    p = frobenius_perm(m2)
    assert p.is_identity()


def test_frobenius_q4_order_two_and_multiplicative(rng):
    M4 = _paige_backend(4)
    f = frobenius_perm(SimpleNamespace(zorn=M4))
    assert not f.is_identity()
    assert (f * f).is_identity()
    I = rng.integers(len(M4.coords), size=10000)
    J = rng.integers(len(M4.coords), size=10000)
    lhs = f.a[M4.mul_idx(I, J)]
    rhs = M4.mul_idx(f.a[I], f.a[J])
    assert (lhs == rhs).all()


def test_frobenius_map_elementwise(gf4):
    x = ZornMatrix(gf4, 2, (1, 0, 3), (0, 2, 1), 3)
    y = frobenius_map(x)
    assert y.coords() == tuple(gf4.frobenius(c) for c in x.coords())


def test_labels_roundtrip(m2):
    be = m2.zorn
    for i in (0, 7, 56, 119):
        mat = ZornMatrix.parse(be.field, m2.labels[i])
        row = np.asarray([mat.coords()], dtype=np.int64)
        assert int(be.lookup(be.engine.pack(row))[0]) == i


def test_lookup_outside_the_element_set_is_an_internal_fault(m2):
    # the zero matrix has norm 0: no product of units can land there
    be = m2.zorn
    forged = be.engine.pack(np.zeros((1, 8), dtype=np.int64))
    with pytest.raises(AssertionError, match="arithmetic bug"):
        be.lookup(forged)


@pytest.mark.parametrize("spec", ["m2", "m3", "M(2)", "u3"])
def test_cayley_table_is_the_engine_product(spec, request):
    # the structure-tensor table against mul_idx, the engine product of the
    # element rows followed by canon and lookup, on every cell
    L = paige.unit_loop(2) if spec == "M(2)" else request.getfixturevalue(spec)
    n, rows = L.n, 64
    for start in range(0, n, rows):
        I = np.arange(start, min(start + rows, n))
        want = L.zorn.mul_idx(np.repeat(I, n), np.tile(np.arange(n), len(I)))
        assert (L.table[I].ravel() == want).all(), spec


@pytest.mark.parametrize("p", [2, 3])
def test_structure_tensor_reproduces_the_engine(p):
    eng = paige.ZornEngine(field_of_order(p))
    S = eng.structure_tensor()
    assert S.shape == (8, 8, 8) and set(np.unique(S)) == ({0, 1} if p == 2 else {-1, 0, 1})
    assert (np.abs(S).sum(axis=(0, 1)) == 4).all()  # four products per coordinate
    rng = np.random.default_rng(0x5EED + p)
    X, Y = rng.integers(p, size=(2, 5000, 8))
    assert (np.einsum("ia,abc,ib->ic", X, S, Y) % p == eng.mul(X, Y)).all()


def test_element_missing_from_the_backend_is_an_internal_fault(monkeypatch, capsys):
    # a product that lands on the removed element leaves the element set:
    # lookup's AssertionError, exit 3 and not a usage error
    enumerate_unit_coords = paige.enumerate_unit_coords
    monkeypatch.setattr(paige, "enumerate_unit_coords",
                        lambda field: np.delete(enumerate_unit_coords(field), 5, axis=0))
    with pytest.raises(AssertionError, match="left the element set"):
        paige.unit_loop(2)
    assert main(["net-build", "--loop", "M(2)"]) == 3
    assert capsys.readouterr().err.endswith(
        "internal error: AssertionError: product left the element set; arithmetic bug\n")


def test_extension_field_table_is_refused_before_it_is_built(gf4, monkeypatch):
    def no_tensor(engine):
        raise RuntimeError("read the structure tensor over GF(4)")
    monkeypatch.setattr(paige.ZornEngine, "structure_tensor", no_tensor)
    backend = paige._PaigeBackend(gf4, paige.paige_coords(gf4)[:5], quotient=True)
    with pytest.raises(AssertionError, match="prime fields only"):
        backend.loop()


@pytest.mark.parametrize("build", [paige.paige_loop, paige.unit_loop])
def test_table_build_peak_stays_in_the_priced_tables(build):
    # the row blocks of _PaigeBackend.loop, and then the validation, stay
    # under the 12 n^2 bytes require_table_fits prices: 13.3 MiB at M*(3)
    # and 53.4 MiB at M(3)
    tracemalloc.start()
    try:
        n = build(3).n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * n * n, (n, peak)



def test_paige_table_build_peaks_near_its_table():
    # M*(3)'s table (4.45 MiB), the four radix tables of R^4 int32 entries
    # (1.27 MiB) and row blocks of a sixty-fourth of the budget
    field = field_of_order(3)
    S = paige.ZornEngine.of(field).structure_tensor()
    R = (3 - 1) ** 2 * int((S * S).sum(axis=(0, 1)).max()) + 1
    tracemalloc.start()
    try:
        table = paige.paige_loop(3).table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= table.nbytes + 4 * 4 * R ** 4 + fields.MEMORY_BUDGET // 64


def test_generator_closure_peaks_near_its_bitmap_and_packs():
    # the product batches of closure_packed take a sixty-fourth of the budget
    paige.generator_closure_size(2)  # module-level caches
    tracemalloc.start()
    try:
        assert paige.generator_closure_size(5) == 39000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= paige._closure_bytes(5) + fields.MEMORY_BUDGET // 64

def test_unit_loop_q3_is_table_mode(u3):
    # 12 * 2160^2 bytes of tables fit the memory budget
    assert u3.table is not None and u3.table.shape == (2160, 2160)
    assert loops.right_translation(u3, 5).a.tolist() == u3.table[:, 5].tolist()


def test_division_hooks(m3, rng):
    for _ in range(200):
        i, j = int(rng.integers(m3.n)), int(rng.integers(m3.n))
        k = int(m3.table[i, j])
        assert m3.left_div(i, k) == j
        assert m3.right_div(k, j) == i


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 65537])
def test_engine_matches_scalar_zorn(q, rng):
    # the engine on 100 rows against the scalar oracles, row by row: the
    # int32 and int64 work types of the prime path and the extension tables
    field = field_of_order(q)
    eng = paige.ZornEngine(field)
    X, Y = rng.integers(q, size=(2, 100, 8))
    for x, y, xy, n in zip(X.tolist(), Y.tolist(), eng.mul(X, Y).tolist(),
                           eng.norm(X).tolist()):
        x, y = ZornMatrix.from_coords(field, x), ZornMatrix.from_coords(field, y)
        assert xy == list(zorn_mul_oracle(x, y).coords())
        assert n == zorn_norm_oracle(x)


def test_labels_are_the_zorn_texts():
    for loop in (paige.paige_loop(2), paige.paige_loop(3), paige.unit_loop(3)):
        field = loop.zorn.field
        assert loop.labels == [ZornMatrix.from_coords(field, row).text()
                               for row in loop.zorn.coords.tolist()]
    for backend in (_paige_backend(4), _paige_backend(5)):
        assert backend.labels() == [ZornMatrix.from_coords(backend.field, row).text()
                                    for row in backend.coords.tolist()]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 65537])
def test_moufang_certificate_checks_2304_rows(q):
    assert paige.moufang_certificate(field_of_order(q)) == 2304


def _bilinear_mutant(mul):
    """The Zorn product with x1 y4 added to coordinate 0: still bilinear,
    no longer alternative."""
    def mutant(self, X, Y):
        out = mul(self, X, Y)
        F = self.field
        out[..., 0] = F.vadd(out[..., 0], F.vmul(np.asarray(X)[..., 1],
                                                 np.asarray(Y)[..., 4]))
        return out
    return mutant


def test_moufang_certificate_catches_a_bilinear_mutant(monkeypatch, capsys):
    monkeypatch.setattr(paige.ZornEngine, "mul", _bilinear_mutant(paige.ZornEngine.mul))
    for q in (2, 5):
        with pytest.raises(AssertionError, match="fails the Moufang identity"):
            paige.moufang_certificate(field_of_order(q))
    assert main(["moufang-check", "--loop", "M*(5)"]) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 101, 65537])
def test_norm_certificate_checks_1296_rows(q):
    assert paige.norm_certificate(field_of_order(q)) == 1296


def test_norm_certificate_catches_a_bilinear_mutant(monkeypatch, capsys):
    monkeypatch.setattr(paige.ZornEngine, "mul", _bilinear_mutant(paige.ZornEngine.mul))
    for q in (2, 5):
        with pytest.raises(AssertionError, match="fails N"):
            paige.norm_certificate(field_of_order(q))
    assert main(["generators-check", "--q", "5"]) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("spec", ["M*(3)", "M(3)"])
def test_certified_witness_fails_associativity_on_the_table(spec, m3, u3, capsys):
    # the witness is computed on the engine; the table is built independently
    assert main(["moufang-check", "--loop", spec]) == 0
    triple = capsys.readouterr().out.splitlines()[-1].partition("=")[2]
    loop = m3 if spec == "M*(3)" else u3
    x, y, z = (loop.labels.index(t) for t in re.findall(r"\[[^]]*\]", triple))
    T = loop.table
    assert T[T[x, y], z] != T[x, T[y, z]]


def _scalar_units(field, X):
    return [list(decompose_sum_two_units(ZornMatrix.from_coords(field, x))[0].coords())
            for x in X.tolist()]


def _check_decompose_batch(field, X):
    eng = paige.ZornEngine(field)
    U, V = paige.decompose_batch(eng, X)
    assert U.tolist() == _scalar_units(field, X)
    assert (eng.norm(U) == 1).all() and (eng.norm(V) == 1).all()
    assert (field.vadd(U, V) == X).all()


@pytest.mark.parametrize("q", [2, 3])
def test_decompose_batch_matches_scalar_exhaustive(q):
    _check_decompose_batch(field_of_order(q), np.array(list(product(range(q), repeat=8))))


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 211, 1031, 65537])
def test_decompose_batch_matches_scalar_sampled(q):
    rng = np.random.default_rng(q)
    X = rng.integers(q, size=(2000, 8))
    # zeros at random, so that beta = 0, alpha = beta = 0 and every rank
    # of [gamma; alpha] occur at every q
    X[rng.random(X.shape) < 0.4] = 0
    _check_decompose_batch(field_of_order(q), X)


def test_engine_past_int32_and_packing(rng):
    # 4 (p - 1)^2 passes int32 for p > 23171: the engine works in int64
    f = field_of_order(65537)
    eng = paige.ZornEngine(f)
    X = rng.integers(65537, size=(50, 8))
    Y = rng.integers(65537, size=(50, 8))
    for x, y, xy, n in zip(X.tolist(), Y.tolist(), eng.mul(X, Y).tolist(),
                           eng.norm(X).tolist()):
        x, y = ZornMatrix.from_coords(f, x), ZornMatrix.from_coords(f, y)
        assert xy == list(zorn_mul_oracle(x, y).coords()) and n == zorn_norm_oracle(x)
    assert f.vinv(X[:, 0]).tolist() == [pow(int(c), 65535, 65537) for c in X[:, 0]]
    # 65537^8 > 2^62: only packing is refused
    with pytest.raises(ValueError, match="overflow"):
        eng.pack(X)
    with pytest.raises(ValueError, match="overflow"):
        eng.unpack(np.zeros(3, dtype=np.int64))


@pytest.mark.parametrize("q", [5, 9, 65537])
def test_zorn_matrix_arithmetic_builds_one_engine_per_field(q, rng, monkeypatch):
    # the engine's rank tables take O(q); every ZornMatrix product, det and
    # conjugate over one field shares the engine built on first use
    built = []
    init = paige.ZornEngine.__init__

    def counted(engine, field):
        built.append(field)
        init(engine, field)
    monkeypatch.setattr(paige.ZornEngine, "__init__", counted)
    f = field_of_order(q)
    xs = [ZornMatrix.from_coords(f, row) for row in rng.integers(q, size=(6, 8)).tolist()]
    for x, y in zip(xs, xs[1:]):
        assert x * y == zorn_mul_oracle(x, y)
        assert x.det() == zorn_norm_oracle(x)
        assert x.conjugate() * x == ZornMatrix.unit(f).scalar_mul(x.det())
    assert built == [f] and paige.ZornEngine.of(f) is paige.ZornEngine.of(f)


def test_engine_refuses_extension_fields_without_tables(rng):
    # GF(2048) would need 2048 x 2048 lookup tables; it is refused before an
    # engine can be made on it, and an extension field from a spec has tables
    with pytest.raises(UsageError, match="table limit"):
        paige.ZornEngine(parse_field_spec("gf(2,11,1.0.1.0.0.0.0.0.0.0.0.1)"))
    f = parse_field_spec("gf(2,3,1.1.0.1)")
    eng = paige.ZornEngine(f)
    X, Y = rng.integers(8, size=(2, 20, 8))
    for x, y, xy in zip(X.tolist(), Y.tolist(), eng.mul(X, Y).tolist()):
        x, y = ZornMatrix.from_coords(f, x), ZornMatrix.from_coords(f, y)
        assert xy == list(zorn_mul_oracle(x, y).coords())
