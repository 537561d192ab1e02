import json
import math
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import moufang
from conftest import (CHAIN_SHAPES, chain_shape, concurrent_pair_failures_oracle,
                      corrupt_one_reflection, enumerate_unit_coords_oracle)
from moufang import cli, fields, loops, orthogonal, paige, triality
from moufang.cli import main, run
from moufang.composition import ZornMatrix
from moufang.fields import UsageError, field_of_order
from moufang.orthogonal import (UNIT_BYTES, is_rotation, mult_operator_matrix,
                                spinor_norm)


def lines_dict(rep):
    out = {}
    for line in rep.lines:
        k, _, v = line.partition("=")
        out[k] = v
    return out


def test_paige_order():
    rep = run(["paige-order", "--q", "2"])
    assert rep.status == 0
    d = lines_dict(rep)
    assert d["order"] == "120" and d["match"] == "yes" and d["mode"] == "exhaustive"


def test_paige_order_formula_only():
    # nothing is enumerated, so no mode is named
    rep = run(["paige-order", "--q", "11", "--skip-enumeration"])
    assert rep.status == 0
    assert rep.lines == ["q=11", "order=%d" % (11 ** 3 * (11 ** 4 - 1) // 2)]


@pytest.mark.parametrize("argv", [
    ["paige-order", "--q", "2305843009213693951", "--skip-enumeration"],
    ["moufang-check", "--loop", "M*(2305843009213693951)"],
    ["generators-check", "--q", "2305843009213693951"]], ids=lambda a: a[0])
def test_huge_prime_q_is_refused_before_trial_division(argv, capsys):
    # 2^61 - 1 is prime: trial division up to its square root would not end
    t0 = time.monotonic()
    assert main(argv) == 2
    assert time.monotonic() - t0 < 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: q = 2305843009213693951 is past the prime power " \
                      "limit of 1099511627776\n"


def test_usage_errors(capsys):
    assert run(["paige-order", "--q", "13"]).status == 2  # streamed unit limit
    assert run(["decompose", "--q", "4", "--x", "[zz]"]).status == 2
    capsys.readouterr()
    # argparse rejections and handler rejections take the same exit-2 path
    for argv in (["nonsense"],
                 ["paige-order"],
                 ["spinor-check", "--q", "3", "--samples", "0"],
                 ["decompose", "--q", "3", "--exhaustive", "--samples", "5"],
                 ["decompose", "--q", "3", "--x", "[1|0,0,0|0,0,0|1]", "--exhaustive"],
                 ["decompose", "--q", "3", "--x", "[1|0,0,0|0,0,0|1]", "--samples", "5"],
                 ["decompose", "--q", "3", "--field", "gf(5)"],
                 ["simple-check", "--loop", "M*(2)", "--elements", "500"],
                 ["simple-check", "--loop", "M*(2)", "--elements", "ten"],
                 ["spinor-check", "--q", "7", "--exhaustive"],
                 ["spinor-check", "--q", "9"],
                 ["spinor-check", "--q", "13"],
                 ["spinor-check", "--q", "4"],
                 ["moufang-check", "--loop", "M*(6)"],
                 ["mlt-order", "--loop", "Q(3)"],
                 ["mlt-order", "--loop", "Z(0)"],
                 ["triality-check", "--case", "net-z5"],
                 ["decompose", "--field", "gf(2,2,1.0.1)"],
                 ["decompose", "--field", "gf(2,11,1.0.1.0.0.0.0.0.0.0.0.1)"],
                 ["decompose", "--q", "239", "--exhaustive"],
                 ["decompose", "--q", "5", "--x", "[1|0,0,0|0,0,0|9]"],
                 ["paige-order", "--q", "6"],
                 ["paige-order", "--q", "10", "--skip-enumeration"],
                 ["bol-check", "--loop", "Z(3)", "--points", "5", "--seed=-1"],
                 ["triality-check", "--case", "net-paige2", "--seed", "-0x5EED"]):
        assert main(argv) == 2, argv
        out = capsys.readouterr()
        assert out.out == "", argv
        assert len(out.err.splitlines()) == 1, argv
        assert out.err.startswith("error: "), argv


def test_moufang_check_group():
    rep = run(["moufang-check", "--loop", "Z(4)"])
    d = lines_dict(rep)
    assert rep.status == 0 and d["moufang"] == "yes" and d["associative"] == "yes"


def test_moufang_check_m2():
    rep = run(["moufang-check", "--loop", "M*(2)"])
    d = lines_dict(rep)
    assert rep.status == 0
    assert d["moufang"] == "yes" and d["associative"] == "no"
    assert "nonassoc_witness" in d


def test_decompose_single():
    rep = run(["decompose", "--q", "3", "--x", "[0|0,0,0|0,0,0|0]"])
    assert rep.status == 0
    assert rep.lines == ["q=3", "u=[0|1,0,0|2,0,0|0]", "v=[0|2,0,0|1,0,0|0]", "ok=yes"]


def test_decompose_sweep():
    rep = run(["decompose", "--q", "3", "--samples", "200"])
    assert rep.status == 0
    assert rep.lines == ["q=3", "mode=sampled:200", "checked=200", "failures=0"]


@pytest.mark.parametrize("argv,checked", [
    (["--q", "3"], 6561),
    (["--q", "4"], 65536),
    (["--field", "gf(2,2,1.1.1)"], 65536),
    (["--q", "5"], 390625),
])
def test_decompose_exhaustive(argv, checked):
    rep = run(["decompose", "--exhaustive"] + argv)
    assert rep.status == 0
    assert rep.lines[1:] == ["mode=exhaustive", "checked=%d" % checked, "failures=0"]


@pytest.mark.parametrize("q", [9, 211])
def test_decompose_exhaustive_refuses_past_the_limit(q, monkeypatch, capsys):
    # refused by its element count before any chunk is split
    def no_chunks(engine, X):
        raise AssertionError("split a chunk")
    monkeypatch.setattr(paige, "decompose_batch", no_chunks)
    assert main(["decompose", "--q", str(q), "--exhaustive"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: an exhaustive decomposition over GF(%d)^8 has %d "
                       "elements, past the limit of 16777216\n" % (q, q ** 8))


def test_decompose_past_int32():
    rep = run(["decompose", "--q", "65537", "--samples", "100"])
    assert rep.status == 0
    assert rep.lines == ["q=65537", "mode=sampled:100", "checked=100", "failures=0"]


def test_decompose_reports_the_first_failure(monkeypatch):
    # chunks of 100 rows; row 5 of every chunk after the first is corrupted,
    # so the witness is element 105 of the pool, 01101001 in base 2
    batch = paige.decompose_batch

    def broken(engine, X):
        U, V = batch(engine, X)
        if X[0].any():
            V[5] = 0
        return U, V
    monkeypatch.setattr(paige, "decompose_batch", broken)
    monkeypatch.setattr(paige, "DECOMPOSE_ROW_BYTES", fields.MEMORY_BUDGET // 64 // 100)
    rep = run(["decompose", "--q", "2", "--exhaustive"])
    assert rep.status == 1
    assert rep.lines == ["q=2", "mode=exhaustive", "checked=-1", "failures=1",
                         "witness=[0|1,1,0|1,0,0|1]"]


def test_sampled_decompose_runs_in_chunks(monkeypatch):
    # 1000 samples in chunks of 300 rows draw the rows of one draw, so the
    # lines match the one-chunk run, a witness included
    argv = ["decompose", "--q", "3", "--samples", "1000", "--seed", "7"]
    target = fields.Sampler(7).integers(3, size=(1000, 8))[699]
    batch, sizes = paige.decompose_batch, []

    def counted(engine, X):
        sizes.append(len(X))
        return batch(engine, X)

    def broken(engine, X):  # every copy of the 700th sample fails
        U, V = batch(engine, X)
        V[(X == target).all(axis=1)] = 0
        return U, V
    lines = {}
    for row_bytes in (paige.DECOMPOSE_ROW_BYTES, fields.MEMORY_BUDGET // 64 // 300):
        monkeypatch.setattr(paige, "DECOMPOSE_ROW_BYTES", row_bytes)
        monkeypatch.setattr(paige, "decompose_batch", counted)
        passing = run(argv)
        monkeypatch.setattr(paige, "decompose_batch", broken)
        failing = run(argv)
        assert (passing.status, failing.status) == (0, 1)
        lines[row_bytes] = passing.lines + failing.lines
    assert sizes == [1000, 300, 300, 300, 100]
    assert len(set(map(tuple, lines.values()))) == 1


def test_decompose_disagreement_is_an_internal_fault(monkeypatch, capsys):
    batch = paige.decompose_batch

    def skewed(engine, X):
        U, V = batch(engine, X)
        return V, U
    monkeypatch.setattr(paige, "decompose_batch", skewed)
    assert main(["decompose", "--q", "3", "--samples", "10"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "batched and scalar decompositions" in out.err


def test_decompose_field_spec_syntax():
    rep = run(["decompose", "--field", "gf(2,2,1.1.1)", "--samples", "100"])
    d = lines_dict(rep)
    assert rep.status == 0 and d["q"] == "4" and d["failures"] == "0"
    assert run(["decompose", "--samples", "5"]).status == 2


def test_generators_check():
    rep = run(["generators-check", "--q", "2"])
    assert rep.status == 0 and lines_dict(rep)["ok"] == "yes"


def test_generators_check_q7():
    # the largest q whose closure fits the memory budget
    rep = run(["generators-check", "--q", "7"])
    assert rep.status == 0
    assert rep.lines == ["q=7", "closure=411600", "expected=411600", "ok=yes",
                         "mode=certified"]


@pytest.mark.parametrize("q", ["10", "12"])
def test_generators_check_names_a_non_prime_power(q, capsys):
    assert main(["generators-check", "--q", q]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: %s is not a prime power\n" % q


@pytest.mark.parametrize("q", ["11", "13", "16"])
def test_generators_check_refuses_past_the_budget(q, monkeypatch, capsys):
    # refused from q alone: neither the field nor the bitmap is built
    def boom(*args, **kw):
        raise AssertionError("allocated before refusing")
    monkeypatch.setattr(paige, "field_of_order", boom)
    monkeypatch.setattr(np, "zeros", boom)
    assert main(["generators-check", "--q", q]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    assert out.err.startswith("error: ") and "memory budget" in out.err


def test_net_build():
    rep = run(["net-build", "--loop", "Z(5)"])
    d = lines_dict(rep)
    assert rep.status == 0 and d["points"] == "25" and d["lines"] == "15"


def test_net_build_m2():
    rep = run(["net-build", "--loop", "M*(2)"])
    d = lines_dict(rep)
    assert rep.status == 0
    assert d["points"] == "14400" and d["lines"] == "360" and d["axioms"] == "ok"


def test_bol_check_z3():
    rep = run(["bol-check", "--loop", "Z(3)", "--points", "5"])
    d = lines_dict(rep)
    assert rep.status == 0 and d["s3_origin"] == "ok"


def test_bol_check_trivial_loop(capsys):
    # the 1-point net, where every line image is a line of all three classes
    assert main(["bol-check", "--loop", "Z(1)"]) == 0
    assert capsys.readouterr().out == _bol_stdout("Z(1)", 3)


def test_triality_check_vector():
    rep = run(["triality-check", "--case", "vector-gf2"])
    d = lines_dict(rep)
    assert rep.status == 0 and d["triality"] == "pass" and d["routes_agree"] == "yes"


def test_export_and_iso_roundtrip(tmp_path):
    path = os.fspath(tmp_path / "z6.tbl")
    rep = run(["export-table", "--loop", "Z(6)", "--out", path])
    assert rep.status == 0
    rep2 = run(["iso-check", "--left", "Z(6)", "--right", "file:" + path])
    d = lines_dict(rep2)
    assert rep2.status == 0 and d["isomorphic"] == "yes"
    rep3 = run(["iso-check", "--left", "Z(4)", "--right", "Z(6)"])
    assert lines_dict(rep3)["isomorphic"] == "no"


def test_iso_check_trivial_loop():
    rep = run(["iso-check", "--left", "Z(1)", "--right", "Z(1)"])
    assert rep.status == 0
    assert rep.lines == ["left=Z(1)", "right=Z(1)", "isomorphic=yes", "verified=yes"]


def test_aut_count_small():
    rep = run(["aut-count", "--loop", "Z(5)"])
    d = lines_dict(rep)
    assert rep.status == 0 and d["aut"] == "4"
    assert d["collineation_check"] == "pass"
    assert d["mode"] == "certified"


def test_aut_count_m3():
    # |Aut(M*(3))| = |G2(3)|
    rep = run(["aut-count", "--loop", "M*(3)"])
    d = lines_dict(rep)
    assert rep.status == 0 and d["aut"] == "4245696"
    assert d["collineation_check"] == "pass" and d["mode"] == "certified"


def test_aut_count_refuses_oracle_loop(capsys):
    # M*(4) has 16320 elements, past the table budget: refused by name
    assert main(["aut-count", "--loop", "M*(4)"]) == 2
    assert capsys.readouterr().out == ""


def _module_env():
    src = str(Path(moufang.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))


def _traced(call, *args):
    """call(*args) and the tracemalloc peak it reached."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bol_check_peak_stays_priced():
    # the largest cyclic loop the price admits, end to end
    n = math.isqrt(fields.MEMORY_BUDGET // triality._BOL_CHECK_BYTES)
    with pytest.raises(UsageError, match="memory budget"):
        triality.require_reflections_fit(n + 1)
    run(["bol-check", "--loop", "Z(3)"])  # module-level caches
    rep, peak = _traced(run, ["bol-check", "--loop", "Z(%d)" % n])
    assert rep.status == 0 and peak <= fields.MEMORY_BUDGET
    # the elementary abelian 2-group of at most that order, whose last
    # reflection checked on points runs with half of the reflections held;
    # its table is built before tracing starts
    z2 = loops.cyclic_loop(2)
    L = z2
    while 2 * L.n <= n:
        L = loops.direct_product(z2, L)
    _, peak = _traced(triality.all_bol_reflections, L)
    assert L.table.nbytes + peak <= fields.MEMORY_BUDGET


# The accepted lines that hold the most, and two small lines whose batches
# run in working blocks, each with its stdout and the most it may hold:
# the budget, 1.5 MB, or one working block (a sixty-fourth of the budget)
# for decompose, whose 4096-row blocks peak at 1.9 MB.  `mlt-order
# Z(3300)` still peaks past the budget, in its two transversal stacks.
HELD = [
    (["aut-count", "--loop", "M(3)"], fields.MEMORY_BUDGET,
     ["loop=M(3)", "aut=4245696", "collineation_check=pass", "mode=certified"]),
    (["iso-check", "--left", "M(3)", "--right", "M(3)"], fields.MEMORY_BUDGET,
     ["left=M(3)", "right=M(3)", "isomorphic=yes", "verified=yes"]),
    (["cayley-units"], 1.5e6,
     ["units=240", "quotient=120", "iso_with_paige2=yes", "gens_ijh=yes",
      "mode=exhaustive"]),
    (["decompose", "--q", "3", "--samples", "10000"], fields.MEMORY_BUDGET // 64,
     ["q=3", "mode=sampled:10000", "checked=10000", "failures=0"]),
]


@pytest.mark.parametrize("argv,limit,lines", HELD, ids=[" ".join(a) for a, _, _ in HELD])
def test_accepted_lines_peak_within_their_limits(argv, limit, lines):
    if limit < fields.MEMORY_BUDGET:
        run(argv)  # module-level caches
    rep, peak = _traced(run, argv)
    assert (rep.status, rep.lines) == (0, lines)
    assert peak <= limit


def test_simple_check_m3_works_on_the_table_alone(monkeypatch):
    # the 100 normal closures reach M*(3) on the maps T_x, with no division
    # table, and the line peaks at its table plus a sixteenth of the budget
    built = []
    real = cli._build_loop

    def build_loop(kind, arg):
        built.append(real(kind, arg))
        return built[-1]
    monkeypatch.setattr(cli, "_build_loop", build_loop)
    run(["simple-check", "--loop", "M*(2)", "--elements", "1"])  # module-level caches
    rep, peak = _traced(run, ["simple-check", "--loop", "M*(3)", "--elements", "100"])
    assert rep.status == 0 and lines_dict(rep)["simple"] == "yes"
    loop = built[-1]
    assert loop.n == 1080 and loop._ldiv is None and loop._rdiv is None
    assert peak <= loop.table.nbytes + fields.MEMORY_BUDGET // 16


# Lines that stream the norm-one units, or multiply Cayley integers in
# blocks: none holds a whole enumeration or a whole batch of outer products.
STREAMED = [["paige-order", "--q", "9"], ["spinor-check", "--q", "7", "--samples", "250"],
            ["spinor-check", "--q", "5", "--samples", "250"], ["cayley-units"]]


@pytest.mark.parametrize("argv", STREAMED, ids=[" ".join(a) for a in STREAMED])
def test_streamed_lines_peak_within_an_eighth_of_the_budget(argv):
    run(["spinor-check", "--q", "3", "--samples", "1"])  # module-level caches
    rep, peak = _traced(run, argv)
    assert rep.status == 0
    assert peak <= fields.MEMORY_BUDGET // 8
    d = lines_dict(rep)
    if argv[0] == "paige-order":
        order = str(paige.paige_order_formula(9))
        assert d == {"q": "9", "order": order, "enumerated": order, "match": "yes",
                     "mode": "exhaustive"}
    elif argv[0] == "spinor-check":
        assert d == {"q": argv[2], "mode": "sampled:250", "checked": "250",
                     "failures": "0"}


@pytest.mark.parametrize("q", [7, 8])
def test_paige_order_is_exhaustive_past_q5(q):
    order = str(paige.paige_order_formula(q))
    assert lines_dict(run(["paige-order", "--q", str(q)])) == {
        "q": str(q), "order": order, "enumerated": order, "match": "yes",
        "mode": "exhaustive"}


def test_unit_limits_refuse_before_the_field_is_built(monkeypatch, capsys):
    def boom(q):
        raise AssertionError("built GF(%d) before refusing" % q)
    monkeypatch.setattr(cli, "field_of_order", boom)
    for argv, units, limit in (
            (["paige-order", "--q", "13"], 62746320, paige.UNIT_STREAM_LIMIT),
            (["spinor-check", "--q", "13"], 62746320, paige.UNIT_STREAM_LIMIT),
            (["spinor-check", "--q", "7", "--exhaustive"], 823200,
             paige.UNIT_CHECK_LIMIT)):
        assert main(argv) == 2
        assert capsys.readouterr().err.endswith(
            "over GF(%s) visits %d norm-one units, past the limit of %d\n"
            % (argv[2], units, limit))


# Lines whose peak is priced: a generator closure takes at most what
# _require_closure_fits prices (the bitmap and a pack per element) plus
# _PRODUCT_BYTES per product of its largest batch, a certificate 1 MB, and
# a generators line runs the norm certificate too.
PRICED = [["generators-check", "--q", str(q)] for q in (2, 3, 4, 5, 7)] + \
         [["moufang-check", "--loop", spec] for spec in ("M*(3)", "M(3)", "M*(5)")]


@pytest.mark.parametrize("argv", PRICED, ids=[" ".join(a) for a in PRICED])
def test_closure_and_certificate_peaks_stay_priced(argv):
    limit = 2 ** 20
    if argv[0] == "generators-check":
        q = int(argv[2])
        products = min(6 * paige.paige_order_formula(q),
                       fields.MEMORY_BUDGET // 64 // paige._PRODUCT_BYTES)
        limit += paige._closure_bytes(q) + paige._PRODUCT_BYTES * products
    run(["generators-check", "--q", "2"])  # module-level caches
    tracemalloc.start()
    try:
        assert run(argv).status == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit


def _cap_address_space():
    limit = 1536 * 2 ** 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _parsed(parser, argv, capsys):
    """What parser.parse_args(argv) gives: (stdout, the parsed namespace or
    the UsageError text)."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit:
        result = "exit"
    except UsageError as e:
        result = "error: %s" % e
    return capsys.readouterr().out, result


@pytest.mark.parametrize("cmd", sorted(cli._HANDLERS))
def test_one_command_parser_matches_the_full_parser(cmd, capsys):
    # the help, a missing required argument (or the defaults, for commands
    # that require none) and a malformed value
    for argv in ([cmd, "--help"], [cmd], [cmd, "--seed", "x"]):
        want = _parsed(cli._build_parser(), argv, capsys)
        assert _parsed(cli._build_parser(cmd), argv, capsys) == want, argv
    assert "usage: moufang %s" % cmd in _parsed(cli._build_parser(cmd),
                                                 [cmd, "--help"], capsys)[0]


def test_run_builds_the_parser_of_its_command(monkeypatch, capsys):
    built = []
    build = cli._build_parser

    def spy(only=None):
        built.append(only)
        return build(only)
    monkeypatch.setattr(cli, "_build_parser", spy)
    assert main(["paige-order", "--q", "2", "--skip-enumeration"]) == 0
    assert built == ["paige-order"]
    # the top-level help and an unknown command list every command
    for argv, status in ((["--help"], 0), (["-h", "paige-order"], 0),
                         (["nonsense"], 2), ([], 2)):
        capsys.readouterr()
        assert main(argv) == status, argv
        out = capsys.readouterr()
        assert built[-1] is None
        if argv:
            assert all(cmd in out.out + out.err for cmd in cli._HANDLERS), argv


# Requests whose tables or reflections exceed the memory budget: refused
# with exit 2 before they allocate, so a 1.5 GB address-space cap holds.
OVERSIZED = [
    ["bol-check", "--loop", "M*(3)"],
    ["mlt-order", "--loop", "M*(4)"],
    ["mlt-order", "--loop", "M*(5)"],
    ["export-table", "--loop", "M*(4)", "--out", os.devnull],
    ["generators-check", "--q", "16"],
    ["spinor-check", "--q", "3", "--samples", "10000000000"],
    ["bol-check", "--loop", "Z(3)", "--points", "10000000000"],
]


@pytest.mark.parametrize("argv", OVERSIZED, ids=[" ".join(a[:3]) for a in OVERSIZED])
def test_oversized_requests_are_refused(argv):
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-m", "moufang.cli"] + argv,
                         env=_module_env(), capture_output=True, text=True,
                         timeout=120, preexec_fn=_cap_address_space)
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert "memory budget" in out.stderr
    assert time.monotonic() - t0 < 10


# Every command that reads the Cayley table, on a loop spec whose tables
# would not fit the memory budget: M*(4) and M(4) have 16320 elements,
# M*(5) has 39000.
TABLE_COMMANDS = [
    ["mlt-order", "--loop"],
    ["simple-check", "--loop"],
    ["net-build", "--loop"],
    ["bol-check", "--loop"],
    ["iso-check", "--left", "M*(2)", "--right"],
    ["aut-count", "--loop"],
    ["export-table", "--out", "table.out", "--loop"],
]


@pytest.fixture
def no_enumeration(monkeypatch):
    """Enumerating a field's units raises AssertionError, an internal fault
    with exit 3."""
    def enumerate_unit_coords(field):
        raise AssertionError("enumerated GF(%d)" % field.q)
    monkeypatch.setattr(paige, "enumerate_unit_coords", enumerate_unit_coords)


@pytest.mark.parametrize("spec", ["M*(4)", "M*(5)", "M(4)"])
@pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=[a[0] for a in TABLE_COMMANDS])
def test_table_commands_refuse_by_name(argv, spec, no_enumeration, capsys, tmp_path,
                                      monkeypatch):
    # nothing is enumerated, not even the table-sized M*(2) of iso-check
    monkeypatch.chdir(tmp_path)
    assert main(argv + [spec]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: needs table mode")
    assert "memory budget" in out.err and out.err.count("\n") == 1  # no progress line
    assert not (tmp_path / "table.out").exists()


def test_paige_build_refuses_by_name(no_enumeration, capsys):
    # M*(4) and M*(5) are refused from the order formula, not enumerated
    for q in (4, 5):
        assert main(["paige-build", "--q", str(q)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: needs table mode: the tables of a %d-element "
                                  "loop" % paige.paige_order_formula(q))


@pytest.mark.parametrize("spec", ["M*(3)", "M(3)", "M*(4)", "M*(5)", "M(4)", "M(5)",
                                  "M*(7)", "M*(9)", "M*(65537)"])
def test_moufang_check_certifies_past_the_table_budget(spec, no_enumeration, capsys):
    # the identity is settled on the Zorn algebra, nothing is enumerated and
    # --samples is unused; the witness is rechecked in scalar Zorn arithmetic
    kind, q = cli._parse_spec(spec)
    field = field_of_order(q)
    for extra in ([], ["--samples", "7"]):
        assert main(["moufang-check", "--loop", spec] + extra) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:4] == ["loop=%s" % spec, "moufang=yes", "mode=certified",
                             "associative=no"]
        key, _, triple = lines[4].partition("=")
        assert key == "nonassoc_witness" and len(lines) == 5
        x, y, z = (ZornMatrix.parse(field, t) for t in re.findall(r"\[[^]]*\]", triple))
        gens = [g.coords() for g in paige.standard_generators(q)]
        for w in (x, y, z):
            assert w.coords() in gens or (-w).coords() in gens
            if kind == "M*":  # the canonical +- representative
                assert [field.rank(c) for c in w.coords()] <= \
                    [field.rank(c) for c in (-w).coords()]
        assert ((x * y) * z).coords() not in ((x * (y * z)).coords(),
                                              (-(x * (y * z))).coords())


@pytest.mark.parametrize("spec", ["M*(3)", "M(3)"])
def test_bol_check_refuses_by_name(spec, no_enumeration, capsys):
    # the tables fit, the 3n reflections of n^2 points do not
    assert main(["bol-check", "--loop", spec]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: the Bol reflections of a %d-element loop"
                              % {"M*(3)": 1080, "M(3)": 2160}[spec])
    assert "memory budget" in out.err and out.err.count("\n") == 1


@pytest.mark.parametrize("body", ["2\na b\n0 1\n1 x\n",   # non-integer cell
                                  "2\na b\n0 1\n0 1\n",   # columns not Latin
                                  "0\n\n", "-2\n\n"],
                         ids=["non-integer", "not-latin", "no-elements", "negative-size"])
def test_malformed_table_file_is_a_usage_error(body, tmp_path, capsys):
    path = tmp_path / "bad.tbl"
    path.write_text(body)
    assert main(["net-build", "--loop", "file:%s" % path]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: %s" % path)
    if not body.startswith("2"):  # refused by its size, before any block
        assert "a loop has at least one element, not %s\n" % body.split()[0] in out.err


def test_internal_fault_exits_3(monkeypatch, capsys):
    # only a UsageError means exit 2; a stray ValueError is a fault too
    for error in (AssertionError, ValueError):
        def broken(args, rep):
            rep.add("partial", "line")
            raise error("engine disagreement")
        monkeypatch.setitem(cli._HANDLERS, "net-build", broken)
        assert main(["net-build", "--loop", "Z(3)"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("Traceback")
        assert out.err.endswith("\ninternal error: %s: engine disagreement\n"
                                % error.__name__)


USER_PATHS = [
    ["export-table", "--loop", "Z(3)", "--out", "{dir}"],
    ["paige-build", "--q", "2", "--out", "{dir}"],
    ["aut-count", "--loop", "file:{dir}"],
]


@pytest.mark.parametrize("argv", USER_PATHS, ids=[a[0] for a in USER_PATHS])
def test_directory_as_user_path_is_a_usage_error(argv, tmp_path, capsys):
    assert main([a.format(dir=tmp_path) for a in argv]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", USER_PATHS[:2], ids=[a[0] for a in USER_PATHS[:2]])
def test_failed_write_of_out_is_a_usage_error(argv, capsys):
    # /dev/full opens, and every write to it fails with ENOSPC
    assert main([a.format(dir="/dev/full") for a in argv]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: [Errno 28] No space left on device\n"


def test_bol_check_non_moufang_is_falsified(tmp_path, non_moufang_loop):
    path = os.fspath(tmp_path / "nm5.tbl")
    loops.write_table(non_moufang_loop, path)
    rep = run(["bol-check", "--loop", "file:" + path])
    d = lines_dict(rep)
    assert rep.status == 1 and d["collineations"] == "fail" and "witness" in d


def test_bol_check_counts_the_failing_concurrent_pairs(m2, monkeypatch):
    # one corrupted reflection: the line prints how many ordered pairs of
    # the seeded points fail, as the scalar loop counts them
    build = triality.all_bol_reflections
    monkeypatch.setattr(triality, "all_bol_reflections",
                        lambda loop, net: corrupt_one_reflection(build(loop, net=net), loop.n))
    rep = run(["bol-check", "--loop", "M*(2)", "--points", "1000"])
    net = triality.LoopNet3(m2)
    points = fields.Sampler(fields.SAMPLE_SEED).integers(net.n_points, size=1000)
    want = concurrent_pair_failures_oracle(
        net, corrupt_one_reflection(build(m2, net=net), m2.n), points)
    assert want > 0 and rep.status == 1
    assert lines_dict(rep)["concurrent_pairs"] == "fail:%d" % want


def test_iso_check_m3_against_seeded_relabelling(tmp_path, m3):
    new_of_old = np.random.default_rng(0x5EED).permutation(m3.n)
    old_of_new = np.argsort(new_of_old)
    T = new_of_old[m3.table[np.ix_(old_of_new, old_of_new)]]
    path = os.fspath(tmp_path / "m3.tbl")
    loops.write_table(loops.FiniteLoop(m3.n, labels=[m3.labels[i] for i in old_of_new],
                                       table=T), path)
    rep = run(["iso-check", "--left", "M*(3)", "--right", "file:" + path])
    d = lines_dict(rep)
    assert rep.status == 0 and d["isomorphic"] == "yes" and d["verified"] == "yes"


def _triality_stdout(case, checked, pairs, mode="exhaustive"):
    return ("case=%s\nmode=%s\nidentity=PASS\nidentity_checked=%d\n"
            "reformulation=PASS\npairs_checked=%d\nroutes_agree=yes\n"
            "triality=pass\n" % (case, mode, checked, pairs))


def _bol_stdout(loop, reflections):
    return ("loop=%s\nreflections=%d\ninvolutions=ok\ncollineations=ok\n"
            "s3_origin=ok\nconcurrent_points=50\nconcurrent_pairs=ok\n"
            % (loop, reflections))


# Full stdout of the commands whose groups act on the net's lines, as
# printed when those groups acted on its n^2 points; the same at both seeds.
PINNED_STDOUT = [
    (["triality-check", "--case", "wreath-s3"], _triality_stdout("wreath-s3", 216, 216)),
    (["triality-check", "--case", "vector-gf5"], _triality_stdout("vector-gf5", 25, 150)),
    (["triality-check", "--case", "vector-gf2"], _triality_stdout("vector-gf2", 4, 24)),
    (["triality-check", "--case", "phi-z3z3"], _triality_stdout("phi-z3z3", 81, 486)),
    (["triality-check", "--case", "net-z3"], _triality_stdout("net-z3", 3, 54)),
    (["triality-check", "--case", "net-s3"], _triality_stdout("net-s3", 108, 216)),
    (["triality-check", "--case", "net-paige2"],
     _triality_stdout("net-paige2", 1357, 1000, mode="sampled")),
    (["bol-check", "--loop", "Z(3)"], _bol_stdout("Z(3)", 9)),
    (["bol-check", "--loop", "S3"], _bol_stdout("S3", 18)),
    (["bol-check", "--loop", "M*(2)"], _bol_stdout("M*(2)", 360)),
]


@pytest.mark.parametrize("seed", [None, 24301])
@pytest.mark.parametrize("argv,stdout", PINNED_STDOUT,
                         ids=[" ".join(a[1:]) for a, _ in PINNED_STDOUT])
def test_line_action_output_is_pinned(argv, stdout, seed, capsys):
    extra = [] if seed is None else ["--seed", str(seed)]
    assert main(argv + extra) == 0
    assert capsys.readouterr().out == stdout


def test_module_entry_point_is_quiet():
    out = subprocess.run([sys.executable, "-m", "moufang.cli", "aut-count",
                          "--loop", "Z(5)"], env=_module_env(), capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0 and out.stderr == ""
    assert "aut=4" in out.stdout.splitlines()


def test_commands_load_only_the_modules_they_run():
    code = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("moufang.") or m == "numpy.ma")
seen = []
import moufang
seen.append(loaded())
import moufang.cli
seen.append(loaded())
for argv in (["paige-order", "--q", "2"], ["generators-check", "--q", "2"]):
    assert moufang.cli.run(argv).status == 0, argv
    seen.append(loaded())
print(json.dumps(seen))
"""
    out = subprocess.run([sys.executable, "-c", code], env=_module_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    base = ["moufang.cli", "moufang.fields", "moufang.orthogonal", "moufang.paige"]
    assert json.loads(out.stdout) == [[], base, base, base]


def test_seeded_lines_load_no_numpy_random():
    # fields.Sampler draws from the standard library's Mersenne Twister;
    # numpy.random would load hashlib's OpenSSL module with it
    code = """
import sys
import moufang.cli
for argv in (["simple-check", "--loop", "M*(3)", "--elements", "100"],
             ["bol-check", "--loop", "Z(3)", "--points", "50"],
             ["decompose", "--q", "3", "--samples", "100"],
             ["spinor-check", "--q", "3", "--samples", "10"],
             ["triality-check", "--case", "net-paige2", "--samples", "10"]):
    assert moufang.cli.run(argv).status == 0, argv
print(sorted(m for m in ("numpy.random", "_hashlib") if m in sys.modules))
"""
    out = subprocess.run([sys.executable, "-c", code], env=_module_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("argv", [
    ["bol-check", "--loop", "Z(1)", "--points", "5"],
    ["bol-check", "--loop", "Z(1024)", "--points", "5"],
    ["decompose", "--field", "gf(2,2,1.1.1)", "--samples", "20"]], ids=lambda a: a[2])
def test_draws_from_one_and_powers_of_two_pass(argv):
    # the bound of the accepted words is 2^32 itself: no overflow
    assert run(argv).status == 0


def test_reports_are_deterministic():
    a = run(["spinor-check", "--q", "3", "--samples", "20"])
    b = run(["spinor-check", "--q", "3", "--samples", "20"])
    assert a.lines == b.lines and a.status == b.status == 0


# Counts of 0 or less would pass a verdict that checked nothing.
NOT_POSITIVE = [
    ["spinor-check", "--q", "3", "--samples", "0"],
    ["spinor-check", "--q", "3", "--samples", "-3"],
    ["moufang-check", "--loop", "M*(2)", "--samples", "0"],
    ["moufang-check", "--loop", "M*(5)", "--samples", "-1"],
    ["decompose", "--q", "3", "--samples", "0"],
    ["decompose", "--q", "3", "--samples", "-2"],
    ["simple-check", "--loop", "M*(2)", "--elements", "0"],
    ["simple-check", "--loop", "M*(2)", "--elements", "-4"],
    ["bol-check", "--loop", "Z(3)", "--points", "0"],
    ["bol-check", "--loop", "Z(3)", "--points", "-1"],
    ["triality-check", "--case", "net-z3", "--samples", "0"],
]


@pytest.mark.parametrize("argv", NOT_POSITIVE, ids=[" ".join(a[::2]) + " " + a[-1]
                                                   for a in NOT_POSITIVE])
def test_counts_must_be_positive(argv, capsys):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "positive" in out.err


def test_spinor_check_exhaustive_q3():
    d = lines_dict(run(["spinor-check", "--q", "3", "--exhaustive"]))
    assert d == {"q": "3", "mode": "exhaustive", "checked": "2160", "failures": "0"}


LISTED_PICKS = [(q, ["--samples", "250", "--seed", str(seed)]) for q in (3, 5)
                for seed in (loops.SAMPLE_SEED, 24301, 1234)] + [(3, ["--exhaustive"])]


@pytest.mark.parametrize("q, argv", LISTED_PICKS,
                         ids=["q%d %s" % (q, " ".join(a)) for q, a in LISTED_PICKS])
def test_spinor_check_checks_the_listed_units(q, argv, monkeypatch):
    # a seed's picks index the canonical order of the whole enumeration, so
    # the streamed fetch checks the units the listing gave; --exhaustive
    # checks them all, in that order
    field = field_of_order(q)
    listed = enumerate_unit_coords_oracle(field)
    seen = []

    def spy(field, units, side="left"):
        if side == "left":
            seen.append(np.array(units))
        return orthogonal.operator_matrices(field, units, side)
    monkeypatch.setattr(cli, "operator_matrices", spy)
    assert main(["spinor-check", "--q", str(q)] + argv) == 0
    if argv[0] == "--exhaustive":
        want = listed
    else:
        want = listed[fields.Sampler(int(argv[3])).integers(len(listed), size=250)]
    assert np.array_equal(np.concatenate(seen), want)


def scalar_spinor_witness(field, coords, picks):
    """The witness the per-operator scalar loop reports, or None."""
    for i in picks:
        a = ZornMatrix.from_coords(field, [int(c) for c in coords[i]])
        for side in ("left", "right"):
            M = mult_operator_matrix(a, side)
            if not is_rotation(field, M):
                return "%s %s not a rotation" % (a.text(), side)
            verdict = spinor_norm(field, M)
            if not verdict.in_omega:
                return "%s %s spinor class %s" % (
                    a.text(), side, verdict.discriminant_square_class)
    return None


@pytest.mark.parametrize("chunk", [None, 7])
def test_spinor_check_reports_the_scalar_witness(chunk, monkeypatch, capsys):
    # a norm-2 element among the units of GF(3) scales the form, so its
    # operators are not rotations; it is the 11th pick, in the second chunk
    # of 7 units
    field = field_of_order(3)
    coords = paige.enumerate_unit_coords(field).copy()
    picks = fields.Sampler(loops.SAMPLE_SEED).integers(len(coords), size=20)
    assert picks[10] not in picks[:10]
    coords[picks[10]] = [2, 0, 0, 0, 0, 0, 0, 1]
    monkeypatch.setattr(paige, "unit_rows", lambda field, index: coords[index])
    if chunk:
        monkeypatch.setattr(fields, "MEMORY_BUDGET", int(chunk * UNIT_BYTES / cli._UNITS_PART))
    assert main(["spinor-check", "--q", "3", "--samples", "20"]) == 1
    out = capsys.readouterr()
    witness = scalar_spinor_witness(field, coords, picks)
    assert witness == "[2|0,0,0|0,0,0|1] left not a rotation"
    assert out.out == ("q=3\nmode=sampled:20\nchecked=-1\nfailures=1\n"
                       "witness=%s\n" % witness)


def test_spinor_check_chunks_agree(monkeypatch, capsys):
    argv = ["spinor-check", "--q", "5", "--samples", "40"]
    assert main(argv) == 0
    whole = capsys.readouterr()
    monkeypatch.setattr(fields, "MEMORY_BUDGET", int(16 * UNIT_BYTES / cli._UNITS_PART))
    assert main(argv) == 0
    chunked = capsys.readouterr()
    assert chunked.out == whole.out
    assert chunked.err.splitlines() == ["checked %d/40 operators" % k
                                        for k in (16, 32, 40)]


def test_spinor_check_fetches_every_chunk_in_one_pass(monkeypatch, capsys):
    argv = ["spinor-check", "--q", "5", "--samples", "40"]
    assert main(argv) == 0
    whole = capsys.readouterr()
    calls = []
    real = paige.unit_rows

    def unit_rows(field, index):
        calls.append(len(index))
        return real(field, index)
    monkeypatch.setattr(paige, "unit_rows", unit_rows)
    monkeypatch.setattr(fields, "MEMORY_BUDGET", int(16 * UNIT_BYTES / cli._UNITS_PART))
    assert main(argv) == 0
    chunked = capsys.readouterr()
    assert calls == [40] and chunked.out == whole.out
    assert len(chunked.err.splitlines()) == 3


def test_spinor_check_scalar_disagreement_exits_3(monkeypatch, capsys):
    batched = cli.spinor_verdicts

    def flipped(field, M):
        orthogonal, rotation, square = batched(field, M)
        return orthogonal, rotation, ~square
    monkeypatch.setattr(cli, "spinor_verdicts", flipped)
    assert main(["spinor-check", "--q", "3", "--samples", "5"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert "batched and scalar spinor verdicts disagree" in out.err


def test_spinor_check_catches_a_corrupt_operator_matrix(monkeypatch, capsys):
    # mult_operator_matrix is the one-row view of operator_matrices, so the
    # scalar path sees the same corrupt entry; the closed form does not
    stacked = orthogonal.operator_matrices

    def corrupt(field, coords, side="left"):
        M = stacked(field, coords, side)
        M[:, 0, 0] = (M[:, 0, 0] + 1) % field.p
        return M
    monkeypatch.setattr(orthogonal, "operator_matrices", corrupt)
    monkeypatch.setattr(cli, "operator_matrices", corrupt)
    assert main(["spinor-check", "--q", "3", "--samples", "5"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert "left operator matrix of" in out.err
    assert "is not its closed form" in out.err


def test_simple_check_sampled():
    rep = run(["simple-check", "--loop", "M*(2)", "--elements", "10"])
    d = lines_dict(rep)
    assert rep.status == 0 and d["simple"] == "yes"


@pytest.mark.parametrize("spec", ["Z(1)", "file"])
def test_simple_check_refuses_a_one_element_loop(spec, tmp_path, monkeypatch, capsys):
    # it would print simple=yes with no closure checked
    if spec == "file":
        path = tmp_path / "one.tbl"
        path.write_text("1\ne\n0\n")
        spec = "file:%s" % path

    def closure(*args):
        raise AssertionError("a normal closure ran")
    monkeypatch.setattr(loops, "normal_closure", closure)
    for extra in ([], ["--elements", "1"]):
        assert main(["simple-check", "--loop", spec] + extra) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "error: a 1-element loop has no non-neutral element" in out.err


def test_mlt_order_m3_settles_the_bound_at_q3(monkeypatch):
    built = []
    mlt_group = loops.mlt_group
    monkeypatch.setattr(loops, "mlt_group",
                        lambda loop: built.append(mlt_group(loop)) or built[-1])
    d = lines_dict(run(["mlt-order", "--loop", "M*(3)"]))
    assert d == {"loop": "M*(3)", "order": "4952179814400",
                 "expected": "4952179814400", "match": "yes",
                 "bound4n4": str(4 * 1080 ** 4), "bound_ok": "yes",
                 "mode": "certified"}
    assert chain_shape(built[0]) == CHAIN_SHAPES["Mlt(M*(3))"]


def test_mlt_order_and_simple_check_name_their_mode(capsys):
    # the lines printed before the mode was added come first, unchanged
    assert main(["mlt-order", "--loop", "M*(2)"]) == 0
    assert capsys.readouterr().out == (
        "loop=M*(2)\norder=174182400\nexpected=174182400\nmatch=yes\n"
        "bound4n4=829440000\nbound_ok=yes\nmode=certified\n")
    assert main(["simple-check", "--loop", "M*(2)"]) == 0
    assert capsys.readouterr().out == (
        "loop=M*(2)\nclosures_checked=119\nsimple=yes\nmode=exhaustive\n")
    assert main(["simple-check", "--loop", "M*(2)", "--elements", "7"]) == 0
    assert capsys.readouterr().out == (
        "loop=M*(2)\nclosures_checked=7\nsimple=yes\nmode=sampled:7\n")


@pytest.mark.parametrize("argv", [
    ["decompose", "--q", "2", "--exhaustive", "--samples", "5"],
    ["spinor-check", "--q", "3", "--exhaustive", "--samples", "5"],
])
def test_exhaustive_and_samples_exclude_each_other(argv, capsys):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "not allowed with argument" in out.err
