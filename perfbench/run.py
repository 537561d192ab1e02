"""Benchmark of the `moufang` verifier.

    python3 perfbench/run.py --workload arith|groups|search [--seed N]
                             [--seconds S] [--trace 0|1]

Runs the workload's command lines the way a user does: one fresh `moufang`
process per line, in order, one at a time, from this process.  Each line's
stdout is checked against its expected verdict (see workloads.py).  Full
passes over the lines repeat while the next one still fits in --seconds
(at least one pass).

--trace 0 prints the end-to-end metrics; --trace 1 makes one untraced and
one traced pass and prints the per-layer metrics (see README.md).  The last
stdout line is one JSON object: correct, attempted, failed, metrics.  A run
record (versions, load, metrics) is also written under perfbench/results/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

import workloads
from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")
DEADLINE_S = 170      # a run must end within 180 s
RECORD_SUMMARY = ("workload", "seed", "trace", "passes", "git_sha", "nproc",
                  "python", "numpy", "loadavg_before", "loadavg_after",
                  "fail_ratio")


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Spawns launch.py children; their files go to the directory `work`."""

    def __init__(self, work, start):
        self.work = work
        self.rel_work = os.path.relpath(work, ROOT)  # as command lines see it
        self.start = start
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.spawned = 0

    def spawn(self, argv, trace=False):
        """Run one child to its exit; returns its measurements."""
        self.spawned += 1
        base = os.path.join(self.work, "p%d" % self.spawned)
        timeout = self.start + DEADLINE_S - now()
        if timeout <= 0:
            return {"argv": argv, "status": -1, "stdout": "",
                    "stderr_tail": "not started: past the run deadline",
                    "wall_s": 0.0, "import_s": None, "cpu_s": 0.0, "rss_mb": 0.0,
                    "report": None}
        with open(base + ".out", "w") as out, open(base + ".err", "w") as err:
            t_spawn = now()
            proc = subprocess.Popen(
                [sys.executable, LAUNCH, base + ".json", "1" if trace else "0"]
                + argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t_exit = now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(base + ".out") as fh:
            stdout = fh.read()
        with open(base + ".err") as fh:
            stderr_tail = "".join(fh.readlines()[-5:])
        report = None
        if os.path.exists(base + ".json"):
            with open(base + ".json") as fh:
                report = json.load(fh)
        return {"argv": argv, "status": proc.returncode, "stdout": stdout,
                "stderr_tail": stderr_tail, "wall_s": t_exit - t_spawn,
                "import_s": None if report is None else report["imported"] - t_spawn,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "report": report}


def make_inputs(runner, workload, seed):
    """Write the input files a workload reads; not timed."""
    if workload != "search":
        return
    m2 = os.path.join(runner.work, "m2.tbl")
    res = runner.spawn(["export-table", "--loop", "M*(2)", "--out",
                        os.path.join(runner.rel_work, "m2.tbl")])
    if res["status"] != 0:
        raise RuntimeError("export-table failed: %s" % res["stdout"])
    labels, table = workloads.read_table(m2)
    workloads.write_table(os.path.join(runner.work, "m2_relabelled.tbl"),
                          *workloads.relabel(labels, table, seed))
    o16 = workloads.octonion_loop()
    for m, _ in workloads.AUT_LOOPS:
        workloads.write_table(os.path.join(runner.work, "o16_z%d.tbl" % m),
                              *workloads.cyclic_product(*o16, m))


def run_pass(runner, cmds, seed, trace=False, probes=None):
    """One pass over the command lines.  With a `probes` list, an
    import-only process runs before each line (setup_s samples spread over
    the pass)."""
    results = []
    for cmd in cmds:
        if probes is not None:
            probes.append(runner.spawn([]))
        res = runner.spawn(cmd.line(seed), trace=trace)
        res["errors"] = workloads.verdict_errors(cmd, res["status"], res["stdout"])
        if res["errors"]:
            print("FAIL %s: %s\n%s" % (" ".join(res["argv"]), "; ".join(res["errors"]),
                                       res["stderr_tail"]), file=sys.stderr)
        results.append(res)
    return results


def end_to_end(passes, probes):
    walls = [[r["wall_s"] for r in p] for p in passes]
    imports = [r["import_s"] for p in passes for r in p if r["import_s"] is not None]
    imports += [r["import_s"] for r in probes if r["import_s"] is not None]
    return {
        "verify_s": (statistics.median(sum(w) for w in walls), "s"),
        "slowest_cmd_s": (statistics.median(max(w) for w in walls), "s"),
        "setup_s": (statistics.median(imports), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for p in passes for r in p), "MB"),
    }


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def aggregate(traced):
    """Sum the children's trace reports: spans, layer busy time, counters."""
    spans, busy, counts = {}, {}, {}
    for res in traced:
        rep = res["report"] or {}
        for name, (calls, total, self_s) in rep.get("spans", {}).items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for layer, secs in rep.get("busy", {}).items():
            busy[layer] = busy.get(layer, 0.0) + secs
        for group in ("counts", "extra"):
            for key, value in rep.get(group, {}).items():
                counts[key] = counts.get(key, 0) + value
    return spans, busy, counts


def per_layer(plain, traced, spans, busy, counts):
    """Per-layer metrics of the traced pass; `plain` is the untraced one."""

    def calls(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    m = {}
    for layer in LAYERS:
        m[layer + ".self_s"] = (sum(v[2] for k, v in spans.items()
                                    if k.split(".", 1)[0] == layer), "s")
    m["cli.cpu_s"] = (sum(r["cpu_s"] for r in plain), "s")
    m["fields.scalar_ops"] = (counts.get("fields.scalar_ops", 0), "count")
    m["fields.halfint_conversions"] = (counts.get("fields.halfint_conversions", 0),
                                       "count")
    m["fields.make_s"] = (total("fields.field_make"), "s")
    m["composition.zorn_products"] = (calls("composition.ZornMatrix.__mul__"),
                                      "count")
    m["composition.decompositions"] = (calls("composition.decompose_sum_two_units"),
                                       "count")
    rows = counts.get("paige.engine_rows", 0)
    engine_s = total("paige.ZornEngine.mul")
    m["paige.engine_rows"] = (rows, "count")
    m["paige.engine_s"] = (engine_s, "s")
    m["paige.engine_rows_per_s"] = (_ratio(rows, engine_s), "1/s")
    m["paige.enumerate_s"] = (total("paige.enumerate_unit_coords"), "s")
    m["paige.closure_s"] = (total("paige.closure_packed",
                                  "paige.reachability_closure_certified"), "s")
    m["loops.table_build_s"] = (total("loops.FiniteLoop.__init__"), "s")
    m["loops.table_cells"] = (counts.get("loops.table_cells", 0), "count")
    m["loops.div_tables_s"] = (total("loops.FiniteLoop.ldiv",
                                     "loops.FiniteLoop.rdiv"), "s")
    m["loops.closure_s"] = (total("loops.closure", "loops.closure_indices"), "s")
    m["loops.normal_closures"] = (calls("loops.normal_closure"), "count")
    m["loops.normal_closure_s"] = (total("loops.normal_closure"), "s")
    m["loops.identity_s"] = (total("loops.moufang_violation",
                                   "loops.associativity_violation"), "s")
    iso_s = total("loops.find_isomorphism", "loops.automorphism_count",
                  "loops.automorphisms")
    iso_maps = counts.get("loops.iso_maps", 0)
    m["loops.iso_search_s"] = (iso_s, "s")
    m["loops.iso_maps"] = (iso_maps, "count")
    m["loops.iso_maps_per_s"] = (_ratio(iso_maps, iso_s), "1/s")
    m["permgrp.chain_s"] = (counts.get("permgrp.chain_s", 0.0), "s")
    m["permgrp.gens_in"] = (counts.get("permgrp.gens_in", 0), "count")
    m["permgrp.base_len"] = (counts.get("permgrp.base_len", 0), "count")
    m["permgrp.perm_products"] = (counts.get("permgrp.perm_products", 0), "count")
    m["permgrp.random_elements"] = (calls("permgrp.PermGroup.random_element"),
                                    "count")
    m["permgrp.random_element_s"] = (total("permgrp.PermGroup.random_element"), "s")
    m["permgrp.elements_listed"] = (counts.get("permgrp.elements_listed", 0),
                                    "count")
    m["permgrp.elements_s"] = (total("permgrp.PermGroup.elements"), "s")
    operators = calls("orthogonal.mult_operator_matrix")
    m["orthogonal.operator_matrices"] = (operators, "count")
    m["orthogonal.det_calls"] = (calls("orthogonal.mat_det"), "count")
    m["orthogonal.orthogonality_checks"] = (calls("orthogonal.is_orthogonal"),
                                            "count")
    m["orthogonal.spinor_norms"] = (calls("orthogonal.spinor_norm"), "count")
    m["orthogonal.operators_per_s"] = (_ratio(operators, busy.get("orthogonal", 0)),
                                       "1/s")
    m["triality.net_build_s"] = (total("triality.LoopNet3.__init__",
                                       "triality.TrialityNet3.__init__"), "s")
    m["triality.reflections"] = (calls("triality.bol_reflection"), "count")
    m["triality.reflection_s"] = (total("triality.bol_reflection"), "s")
    m["triality.collineation_checks"] = (
        calls("triality.collineation_from_point_map"), "count")
    m["triality.collineation_s"] = (total("triality.collineation_from_point_map"),
                                    "s")
    m["triality.check_s"] = (total("triality.triality_check"), "s")
    m["triality.identity_checked"] = (counts.get("triality.identity_checked", 0),
                                      "count")
    m["triality.pairs_checked"] = (counts.get("triality.pairs_checked", 0), "count")
    products = calls("cayley.ClassicalOctonion.__mul__")
    m["cayley.octonion_products"] = (products, "count")
    m["cayley.products_per_s"] = (_ratio(products, busy.get("cayley", 0)), "1/s")
    m["cayley.units_s"] = (total("cayley.generate_unit_integrals"), "s")
    m["cayley.quotient_s"] = (total("cayley.quotient_mod_sign"), "s")
    m["cayley.certify_s"] = (total("cayley.certify_paige2_iso"), "s")
    m["bench.traced_cmd_s"] = (total("cli.main"), "s")
    m["bench.trace_overhead_s"] = (sum(r["wall_s"] for r in traced)
                                   - sum(r["wall_s"] for r in plain), "s")
    return m


def git_sha():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=lambda s: int(s, 0), default=0x5EED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    start = now()
    if not os.path.isfile(os.path.join(SRC, "moufang", "cli.py")):
        print("error: %s/moufang not found; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    scratch = os.path.join(HERE, ".work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        runner = Runner(work, start)
        # the first import compiles the bytecode; it is not a sample
        runner.spawn([])
        probes = []
        make_inputs(runner, args.workload, args.seed)
        cmds = workloads.commands(args.workload, runner.rel_work)
        if args.trace:
            plain = run_pass(runner, cmds, args.seed)
            traced = run_pass(runner, cmds, args.seed, trace=True)
            passes = [plain, traced]
            spans, busy, counts = aggregate(traced)
            metrics = per_layer(plain, traced, spans, busy, counts)
            mismatches = [" ".join(a["argv"]) for a, b in zip(plain, traced)
                          if a["stdout"] != b["stdout"]]
            for line in mismatches:
                print("traced stdout differs: %s" % line, file=sys.stderr)
            wrapped = next((r["report"]["wrapped"] for r in traced
                            if r["report"]), [])
            trace_record = {"spans": spans, "wrapped": wrapped,
                            "stdout_mismatches": mismatches}
        else:
            passes = []
            t0 = now()
            while True:
                t_pass = now()
                passes.append(run_pass(runner, cmds, args.seed, probes=probes))
                if now() - t0 + (now() - t_pass) > args.seconds:
                    break
            metrics = end_to_end(passes, probes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = [r for p in passes for r in p]
    failed = sum(1 for r in results if r["errors"])
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "git_sha": git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "fail_ratio": "%d/%d" % (failed, len(results)),
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "setup_probes_s": [r["import_s"] for r in probes],
        "commands": [{k: r[k] for k in ("argv", "status", "errors", "wall_s",
                                        "import_s", "cpu_s", "rss_mb")}
                     for r in results],
    }
    if args.trace:
        record.update(trace_record)
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1)
    for name, (value, unit) in metrics.items():
        print("%-32s %14.6g %s" % (name, value, unit))
    print("%-32s %14s %s" % ("fail_ratio", "%d/%d" % (failed, len(results)),
                             "failed/attempted command lines"))
    if args.trace:
        layers = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
        print("sum of <layer>.self_s = %.6f s; traced command time = %.6f s"
              % (layers, metrics["bench.traced_cmd_s"][0]))
    print("record " + json.dumps({k: v for k, v in record.items()
                                  if k in RECORD_SUMMARY}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(results), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
