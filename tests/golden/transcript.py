"""The golden transcript: the exit status and full stdout of a fixed set of
`moufang` command lines, each run in process through `moufang.cli.run`.
Stderr, which holds progress and error text, is left out.

The lines are every command line of the benchmark's workloads
(perfbench/workloads.py) at two seeds, the lines on the `integral` loop, the
acceptance lines outside the benchmark, the many-block lines of BLOCK_LINES,
the searches of SEARCH_LINES, the
nets of NET_LINES, the exit-2 refusals of README's memory table and the
malformed requests of EDGE_LINES.  The `search` inputs are written by the
workloads' own generators into one directory per seed, and the inputs of
SEARCH_LINES, NET_LINES and EDGE_LINES into one more, all named by relative
`file:` paths, so no stdout line carries a temporary path.

    PYTHONPATH=src python3 tests/golden/transcript.py           # print the diff
    PYTHONPATH=src python3 tests/golden/transcript.py --write   # regenerate

Without --write the script exits 1 when the transcript differs from the
committed one.  The transcript is produced by this script, never edited by
hand.
"""

import contextlib
import difflib
import importlib.util
import io
import os
import shlex
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))  # the tests' conftest, for its tables

from conftest import NON_MOUFANG_5  # noqa: E402
TRANSCRIPT = os.path.join(HERE, "transcript.txt")
SEEDS = (24301, 1234)

INTEGRAL_LINES = [
    ["cayley-units"],
    ["moufang-check", "--loop", "integral"],
    ["iso-check", "--left", "integral", "--right", "M*(2)"],
    ["aut-count", "--loop", "integral"],
    ["simple-check", "--loop", "integral"],
    ["mlt-order", "--loop", "integral"],
]

# The acceptance lines (tests/test_acceptance.py) that no workload runs.
ACCEPTANCE_LINES = [
    ["aut-count", "--loop", "M*(2)"],
    ["aut-count", "--loop", "M*(3)"],
    ["mlt-order", "--loop", "M*(3)"],
    ["moufang-check", "--loop", "M*(3)", "--samples", "100000"],
    ["moufang-check", "--loop", "M*(5)", "--samples", "100000"],
    ["simple-check", "--loop", "M*(3)", "--elements", "100"],
    ["decompose", "--q", "3", "--samples", "10000"],
    ["decompose", "--q", "5", "--samples", "10000"],
    ["spinor-check", "--q", "3", "--samples", "1000"],
    ["spinor-check", "--q", "5", "--samples", "1000"],
    ["triality-check", "--case", "net-paige2", "--samples", "1000"],
]

# Lines whose working batches run in many blocks: the exhaustive
# decompositions and spinor check, a sampled Moufang check on a table past
# 512 elements, and the collineation check of Aut(M(3)) on 2160^2 points.
BLOCK_LINES = [
    ["decompose", "--q", "3", "--exhaustive"],
    ["decompose", "--q", "5", "--exhaustive"],
    ["spinor-check", "--q", "3", "--exhaustive"],
    ["moufang-check", "--loop", "Z(513)", "--samples", "100000"],
    ["aut-count", "--loop", "M(3)"],
]

# Searches on the tables _search_extra writes: M*(3) against its relabelling
# by the first seed, and Z4 x Z4 against Z4 x| Z4, which share the
# invariants of the search (3 involutions, 12 elements of order 4), so
# `isomorphic=no` comes only when the search is exhausted.
EXTRA = "extra"
SEARCH_LINES = [
    ["iso-check", "--left", "M*(3)", "--right", "file:%s/m3_relabelled.tbl" % EXTRA],
    ["iso-check", "--left", "file:%s/z4xz4.tbl" % EXTRA,
     "--right", "file:%s/z4sdz4.tbl" % EXTRA],
    ["aut-count", "--loop", "file:%s/z4xz4.tbl" % EXTRA],
    ["aut-count", "--loop", "file:%s/z4sdz4.tbl" % EXTRA],
]

# The nets of loops, the triality cases outside the benchmark, and the Bol
# check and net of a loop that is not Moufang, from the table _edge_inputs
# writes.
NET_LINES = [
    ["net-build", "--loop", "Z(3)"],
    ["net-build", "--loop", "S3"],
    ["net-build", "--loop", "M*(2)"],
    ["net-build", "--loop", "M*(3)"],
    ["triality-check", "--case", "vector-gf2"],
    ["triality-check", "--case", "phi-z3z3"],
    ["bol-check", "--loop", "file:%s/non_moufang_5.tbl" % EXTRA],
    ["net-build", "--loop", "file:%s/non_moufang_5.tbl" % EXTRA],
]

# One line per refusal of README's memory table, each just past its limit.
REFUSAL_LINES = [
    ["mlt-order", "--loop", "Z(3345)"],
    ["mlt-order", "--loop", "M*(4)"],
    ["bol-check", "--loop", "Z(1025)"],
    ["bol-check", "--loop", "M*(3)"],
    ["generators-check", "--q", "11"],
    ["bol-check", "--loop", "Z(3)", "--points", "4194305"],
    ["spinor-check", "--q", "3", "--samples", "262145"],
]

# Malformed or refused requests, most of them exit 2 with no stdout: bad
# orders, counts, seeds, specs, field specs and Zorn texts, paths that cannot
# be opened, and the table files _edge_inputs writes.
EDGE_LINES = [
    ["paige-order", "--q", "0"],
    ["paige-order", "--q", "1"],
    ["paige-order", "--q", "-3"],
    ["paige-order", "--q", "6"],
    ["paige-order", "--q", "2305843009213693951", "--skip-enumeration"],
    ["paige-order", "--q", "2", "--seed", "-1"],
    ["generators-check", "--q", "2.5"],
    ["generators-check", "--q", "10"],
    ["mlt-order", "--loop", "M*(0)"],
    ["moufang-check", "--loop", "Z(0)"],
    ["aut-count", "--loop", "X(3)"],
    ["moufang-check", "--loop", "M*(5)", "--samples", "0"],
    ["simple-check", "--loop", "M*(2)", "--elements", "0"],
    ["simple-check", "--loop", "Z(1)"],
    ["simple-check", "--loop", "file:%s/one_element.tbl" % EXTRA],
    ["bol-check", "--loop", "Z(3)", "--points", "-1"],
    ["decompose", "--field", "gf(6)"],
    ["decompose", "--field", "gf(2,2,1.0.1)"],
    ["decompose", "--field", "gf(2305843009213693951,1,0.1)"],
    ["decompose", "--field", "gf(2,39,1.0.0.0.1%s.1)" % (".0" * 34)],
    ["decompose", "--q", "3", "--field", "gf(3)"],
    ["decompose", "--q", "3", "--x", "[1|0,0|0,0,0|1]"],
    ["decompose", "--q", "9", "--exhaustive"],
    ["spinor-check", "--q", "4"],
    ["spinor-check", "--q", "9"],
    ["spinor-check", "--q", "3", "--exhaustive", "--samples", "5"],
    ["triality-check", "--case", "nope"],
    ["iso-check", "--left", "file:%s/missing.tbl" % EXTRA, "--right", "Z(3)"],
    ["iso-check", "--left", "Z(4)", "--right", "Z(5)"],
    ["export-table", "--loop", "Z(3)", "--out", EXTRA],
    ["moufang-check", "--loop", "file:%s/short_row.tbl" % EXTRA],
    ["moufang-check", "--loop", "file:%s/not_latin.tbl" % EXTRA],
    ["moufang-check", "--loop", "file:%s/no_order.tbl" % EXTRA],
]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def block(argv):
    """One line's block: the command, its exit status and its stdout."""
    from moufang import cli
    with contextlib.redirect_stderr(io.StringIO()), \
            contextlib.redirect_stdout(io.StringIO()) as out:
        rep = cli.run(argv)
    stdout = out.getvalue() + "".join(line + "\n" for line in rep.lines)
    return "$ moufang %s\nexit %d\n%s" % (shlex.join(argv), rep.status, stdout)


def _search_inputs(wl, work, seed):
    """The files a `search` pass reads, in the directory work: M*(2) exported
    by the CLI (its block is part of the transcript), its relabelling by the
    seed, and the products of O16 with Z(m)."""
    os.makedirs(work)
    blocks = [block(["export-table", "--loop", "M*(2)", "--out", work + "/m2.tbl"])]
    labels, table = wl.read_table(os.path.join(work, "m2.tbl"))
    wl.write_table(os.path.join(work, "m2_relabelled.tbl"), *wl.relabel(labels, table, seed))
    o16 = wl.octonion_loop()
    for m, _ in wl.AUT_LOOPS:
        wl.write_table(os.path.join(work, "o16_z%d.tbl" % m), *wl.cyclic_product(*o16, m))
    return blocks


def order_16_pair():
    """Z4 x Z4 and Z4 x| Z4 with b a b^-1 = a^-1, element 4i + j standing for
    a^i b^j: (a^i b^j)(a^k b^l) = a^(i + (-1)^j k) b^(j + l)."""
    i, j = np.divmod(np.arange(16), 4)
    direct = (i[:, None] + i[None, :]) % 4 * 4 + (j[:, None] + j[None, :]) % 4
    sign = 1 - 2 * (j[:, None] % 2)
    semidirect = (i[:, None] + sign * i[None, :]) % 4 * 4 + (j[:, None] + j[None, :]) % 4
    labels = ["a%db%d" % (a, b) for a, b in zip(i, j)]
    return (labels, direct), (labels, semidirect)


def _search_extra(wl):
    """The files of SEARCH_LINES in the directory EXTRA: M*(3) exported by the
    CLI (its block is part of the transcript) and relabelled by the first
    seed, and the order-16 pair."""
    os.makedirs(EXTRA)
    blocks = [block(["export-table", "--loop", "M*(3)", "--out", EXTRA + "/m3.tbl"])]
    labels, table = wl.read_table(os.path.join(EXTRA, "m3.tbl"))
    wl.write_table(os.path.join(EXTRA, "m3_relabelled.tbl"),
                   *wl.relabel(labels, table, SEEDS[0]))
    direct, semidirect = order_16_pair()
    wl.write_table(os.path.join(EXTRA, "z4xz4.tbl"), *direct)
    wl.write_table(os.path.join(EXTRA, "z4sdz4.tbl"), *semidirect)
    return blocks


def _edge_inputs(wl):
    """The table files of NET_LINES and EDGE_LINES in the directory EXTRA: the
    5-element loop that is not Moufang, the 1-element loop, a table with a
    short row, one that is not Latin and one with no order line."""
    labels = [str(i) for i in range(5)]
    wl.write_table(os.path.join(EXTRA, "non_moufang_5.tbl"), labels, NON_MOUFANG_5)
    for name, text in (("one_element", "1\ne\n0\n"),
                       ("short_row", "3\na b c\n0 1 2\n1 2\n"),
                       ("not_latin", "3\na b c\n0 1 2\n1 2 0\n1 0 2\n"),
                       ("no_order", "x\n")):
        with open(os.path.join(EXTRA, name + ".tbl"), "w") as fh:
            fh.write(text)


def render():
    """The transcript, run in a fresh temporary working directory.  A line
    that several seeds give identically runs once."""
    wl = _workloads()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            blocks, seen = [], set()
            for seed in SEEDS:
                work = "s%d" % seed
                blocks += _search_inputs(wl, work, seed)
                lines = [cmd.line(seed) for name in wl.NAMES for cmd in wl.commands(name, work)]
                if seed == SEEDS[-1]:
                    blocks += _search_extra(wl)
                    _edge_inputs(wl)
                    lines += (INTEGRAL_LINES + ACCEPTANCE_LINES + BLOCK_LINES + SEARCH_LINES
                              + NET_LINES + REFUSAL_LINES + EDGE_LINES)
                for argv in lines:
                    if tuple(argv) not in seen:
                        seen.add(tuple(argv))
                        blocks.append(block(argv))
        finally:
            os.chdir(cwd)
    return "\n".join(blocks)


def diff():
    """The unified diff from the committed transcript to a fresh one, as a
    list of lines; empty when they agree."""
    with open(TRANSCRIPT) as fh:
        committed = fh.read()
    return list(difflib.unified_diff(committed.splitlines(True), render().splitlines(True),
                                     "committed", "fresh"))


def main(argv):
    if argv == ["--write"]:
        with open(TRANSCRIPT, "w") as fh:
            fh.write(render())
        return 0
    lines = diff()
    sys.stdout.writelines(lines)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
