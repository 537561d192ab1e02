import os
import subprocess
import sys
from pathlib import Path

import pytest

import moufang
from moufang.cli import run


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
    assert d["order"] == "120" and d["match"] == "yes"


def test_paige_order_formula_only():
    rep = run(["paige-order", "--q", "11", "--skip-enumeration"])
    assert rep.status == 0
    assert lines_dict(rep)["order"] == str(11 ** 3 * (11 ** 4 - 1) // 2)


def test_usage_errors():
    assert run(["nonsense"]).status == 2
    assert run(["paige-order"]).status == 2
    assert run(["paige-order", "--q", "7"]).status == 2  # enumeration cap
    assert run(["decompose", "--q", "4", "--x", "[zz]"]).status == 2


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
    d = lines_dict(rep)
    assert rep.status == 0 and d["ok"] == "yes"
    assert d["u"] == "[0|1,0,0|2,0,0|0]"
    assert d["v"] == "[0|2,0,0|1,0,0|0]"


def test_decompose_sweep():
    rep = run(["decompose", "--q", "3", "--samples", "200"])
    assert rep.status == 0 and lines_dict(rep)["failures"] == "0"


def test_decompose_field_spec_syntax():
    rep = run(["decompose", "--field", "gf(2,2,1.1.1)", "--samples", "100"])
    d = lines_dict(rep)
    assert rep.status == 0 and d["q"] == "4" and d["failures"] == "0"
    assert run(["decompose", "--samples", "5"]).status == 2


def test_generators_check():
    rep = run(["generators-check", "--q", "2"])
    assert rep.status == 0 and lines_dict(rep)["ok"] == "yes"


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


def test_aut_count_refuses_oracle_loop():
    # M*(4) has 16320 elements, past table size: multiplication oracle only
    assert run(["aut-count", "--loop", "M*(4)"]).status == 2


def test_module_entry_point_is_quiet():
    src = str(Path(moufang.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-m", "moufang.cli", "aut-count",
                          "--loop", "Z(5)"], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0 and out.stderr == ""
    assert "aut=4" in out.stdout.splitlines()


def test_reports_are_deterministic():
    a = run(["spinor-check", "--q", "3", "--samples", "20"])
    b = run(["spinor-check", "--q", "3", "--samples", "20"])
    assert a.lines == b.lines and a.status == b.status == 0


def test_simple_check_sampled():
    rep = run(["simple-check", "--loop", "M*(2)", "--elements", "10"])
    d = lines_dict(rep)
    assert rep.status == 0 and d["simple"] == "yes"
