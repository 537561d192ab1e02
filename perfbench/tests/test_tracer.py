"""Checks of the benchmark's tracer.

    python3 -m pytest perfbench/tests -q

The per-workload tests run `perfbench/run.py --trace 1` twice per workload
(one untraced and one traced pass each), so they take several minutes.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SEED = 0x5EED

# Span names each workload must record at least once.
EXPECTED = {
    "arith": [
        "cli.main", "cli.run", "fields.field_make", "fields.primitive_element",
        "composition.decompose_sum_two_units",
        "paige.paige_order_formula", "paige.enumerate_unit_coords",
        "paige.paige_loop", "paige.standard_generators", "paige.closure_packed",
        "paige.reachability_closure_certified", "paige.generator_closure_size",
        "paige.ZornEngine.mul",
        "loops.FiniteLoop.__init__", "loops.moufang_violation",
        "loops.associativity_violation", "loops.closure", "loops.closure_indices",
        "loops.find_isomorphism", "loops.generating_sequence",
        "orthogonal.mult_operator_matrix", "orthogonal.is_rotation",
        "orthogonal.is_orthogonal", "orthogonal.mat_det", "orthogonal.spinor_norm",
        "orthogonal.solve_linear", "orthogonal.column_space_basis",
        "cayley.generate_unit_integrals", "cayley.quotient_mod_sign",
        "cayley.certify_paige2_iso",
    ],
    "groups": [
        "cli.main", "cli.run", "paige.paige_loop", "paige.ZornEngine.mul",
        "loops.FiniteLoop.__init__", "loops.FiniteLoop.ldiv",
        "loops.FiniteLoop.rdiv", "loops.mlt_group", "loops.left_translation",
        "loops.right_translation", "loops.normal_closure", "loops.closure_indices",
        "loops.cyclic_loop", "loops.loop_from_perm_group",
        "permgrp.PermGroup.order", "permgrp.PermGroup.random_element",
        "permgrp.PermGroup.elements",
        "triality.LoopNet3.__init__", "triality.bol_reflection",
        "triality.all_bol_reflections", "triality.collineation_from_point_map",
        "triality.triality_check", "triality.triality_group_from_loop",
        "triality.conjugacy_class", "triality.example_wreath",
        "triality.example_vector",
    ],
    "search": [
        "cli.main", "cli.run", "loops.read_table", "loops.find_isomorphism",
        "loops.automorphisms", "loops.generating_sequence",
        "loops.FiniteLoop.__init__", "triality.LoopNet3.__init__",
        "triality.diagonal_point_map", "triality.collineation_from_point_map",
    ],
}


def bench(workload):
    out = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                          "--workload", workload, "--seed", str(SEED),
                          "--trace", "1"], cwd=ROOT, capture_output=True,
                         text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    with open(os.path.join(BENCH, "results", "%s-seed%d-trace1.json"
                           % (workload, SEED))) as fh:
        record = json.load(fh)
    return result, record


def test_from_import_bindings_are_wrapped():
    code = """
import moufang.cli
from tracer import Tracer, install
install(Tracer())
from moufang import cayley, cli
names = [cli.is_rotation, cli.mat_det, cli.mult_operator_matrix,
         cli.spinor_norm, cli.field_make, cayley.closure,
         cayley.find_isomorphism]
print(all(hasattr(f, "__perfbench__") for f in names))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), BENCH]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "True", out.stderr


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_traced_runs(workload):
    first, record = bench(workload)
    assert first["correct"], record["fail_ratio"]
    assert record["stdout_mismatches"] == []
    missing = [name for name in EXPECTED[workload]
               if name not in record["wrapped"]
               or record["spans"].get(name, [0])[0] < 1]
    assert missing == []
    layers = sum(v["value"] for k, v in first["metrics"].items()
                 if k.endswith(".self_s"))
    assert layers == pytest.approx(first["metrics"]["bench.traced_cmd_s"]["value"])

    second, _ = bench(workload)
    counts = {k for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts
    assert {k: first["metrics"][k]["value"] for k in counts} == \
        {k: second["metrics"][k]["value"] for k in counts}
