"""The benchmark's workloads: `moufang` command lines, their expected
verdicts, and the input files some of them read.

Each workload is a list of `Cmd`.  A command passes when it exits 0 and its
stdout holds every expected key=value pair (extra lines are allowed) and a
`mode` no weaker than the one expected.  The expected pairs are the ones
`tests/test_acceptance.py` asserts for the same command line.
"""

from dataclasses import dataclass

import numpy as np


class AtLeast(int):
    """An expected count that a stronger check may exceed."""


PRESENT = object()  # the key must appear; any value


@dataclass
class Cmd:
    argv: list
    expect: dict
    mode: str = None      # the weakest acceptable mode, if the line prints one
    seeded: bool = False  # sampled: gets the workload seed as --seed

    def line(self, seed):
        return list(self.argv) + (["--seed", str(seed)] if self.seeded else [])


def mode_rank(mode):
    """Exhaustive and certified beat sampled; more samples beat fewer."""
    if mode in ("exhaustive", "certified"):
        return (2, 0)
    if mode.startswith("sampled"):
        _, _, k = mode.partition(":")
        return (1, int(k) if k.isdigit() else 0)
    return (0, 0)


def verdict_errors(cmd, returncode, stdout):
    """Why a command line failed its gate; empty when it passed."""
    errors = []
    if returncode != 0:
        errors.append("exit %d" % returncode)
    got = dict(line.partition("=")[::2] for line in stdout.splitlines()
               if "=" in line)
    for key, want in cmd.expect.items():
        value = got.get(key)
        if value is None:
            errors.append("%s missing" % key)
        elif want is PRESENT:
            continue
        elif isinstance(want, AtLeast):
            if not (value.lstrip("-").isdigit() and int(value) >= want):
                errors.append("%s=%s, want >= %d" % (key, value, want))
        elif value != str(want):
            errors.append("%s=%s, want %s" % (key, value, want))
    if cmd.mode is not None:
        mode = got.get("mode")
        if mode is None or mode_rank(mode) < mode_rank(cmd.mode):
            errors.append("mode=%s, want %s or stronger" % (mode, cmd.mode))
    return errors


SPINOR_SAMPLES = 250


def _arith():
    cmds = []
    for q, n in ((2, 120), (3, 1080), (4, 16320), (5, 39000)):
        cmds.append(Cmd(["paige-order", "--q", str(q)],
                        {"order": n, "enumerated": n, "match": "yes"}))
    for q, n in ((2, 120), (3, 1080), (5, 39000)):
        cmds.append(Cmd(["generators-check", "--q", str(q)],
                        {"closure": n, "ok": "yes"}))
    cmds.append(Cmd(["moufang-check", "--loop", "M*(2)"],
                    {"moufang": "yes", "associative": "no",
                     "nonassoc_witness": PRESENT}, mode="exhaustive"))
    for q in (3, 5):
        cmds.append(Cmd(["moufang-check", "--loop", "M*(%d)" % q,
                         "--samples", "100000"],
                        {"moufang": "yes"}, mode="sampled:100000", seeded=True))
    cmds.append(Cmd(["decompose", "--q", "2", "--exhaustive"],
                    {"checked": AtLeast(256), "failures": 0}))
    for q in (3, 5):
        cmds.append(Cmd(["decompose", "--q", str(q), "--samples", "10000"],
                        {"checked": AtLeast(10000), "failures": 0}, seeded=True))
    for q in (3, 5):
        cmds.append(Cmd(["spinor-check", "--q", str(q),
                         "--samples", str(SPINOR_SAMPLES)],
                        {"checked": AtLeast(SPINOR_SAMPLES), "failures": 0},
                        seeded=True))
    cmds.append(Cmd(["cayley-units"],
                    {"units": 240, "quotient": 120, "iso_with_paige2": "yes",
                     "gens_ijh": "yes"}))
    return cmds


def _groups():
    cmds = [Cmd(["mlt-order", "--loop", "M*(2)"],
                {"order": 174182400, "expected": 174182400, "match": "yes",
                 "bound4n4": 829440000, "bound_ok": "yes"}),
            Cmd(["simple-check", "--loop", "M*(2)", "--elements", "all"],
                {"simple": "yes", "closures_checked": AtLeast(119)}),
            Cmd(["simple-check", "--loop", "M*(3)", "--elements", "100"],
                {"simple": "yes", "closures_checked": AtLeast(100)},
                seeded=True)]
    for case in ("wreath-s3", "vector-gf5", "net-z3", "net-s3"):
        cmds.append(Cmd(["triality-check", "--case", case],
                        {"triality": "pass", "routes_agree": "yes"},
                        mode="exhaustive"))
    cmds.append(Cmd(["triality-check", "--case", "net-paige2", "--samples", "1000"],
                    {"triality": "pass", "routes_agree": "yes"},
                    mode="sampled", seeded=True))
    for loop, n in (("Z(3)", 3), ("S3", 6), ("M*(2)", 120)):
        cmds.append(Cmd(["bol-check", "--loop", loop, "--points", "50"],
                        {"reflections": 3 * n, "involutions": "ok",
                         "collineations": "ok", "s3_origin": "ok",
                         "concurrent_pairs": "ok"}, seeded=True))
    return cmds


# Automorphism counts of O16 x Z(m): |Aut(O16)| = 1344 times |Aut(Z(m))|
# for odd m, since the orders are coprime.
AUT_LOOPS = ((7, 1344 * 6), (9, 1344 * 6))


def _search(work):
    cmds = [Cmd(["iso-check", "--left", "M*(2)",
                 "--right", "file:%s/m2_relabelled.tbl" % work],
                {"isomorphic": "yes", "verified": "yes"})]
    for m, aut in AUT_LOOPS:
        cmds.append(Cmd(["aut-count", "--loop", "file:%s/o16_z%d.tbl" % (work, m)],
                        {"aut": aut, "collineation_check": "pass"}))
    return cmds


def commands(workload, work):
    """The command lines of a workload; `work` is the input directory,
    relative to the checkout root."""
    if workload == "arith":
        return _arith()
    if workload == "groups":
        return _groups()
    if workload == "search":
        return _search(work)
    raise ValueError("unknown workload %r" % (workload,))


NAMES = ("arith", "groups", "search")


# -- input files ----------------------------------------------------------

def write_table(path, labels, table):
    """The `moufang` Cayley table format: n, labels, n rows of indices."""
    with open(path, "w") as fh:
        fh.write("%d\n%s\n" % (len(labels), " ".join(labels)))
        for row in table:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def read_table(path):
    with open(path) as fh:
        n = int(fh.readline())
        labels = fh.readline().split()
        table = np.array([[int(v) for v in fh.readline().split()]
                          for _ in range(n)], dtype=np.int64)
    return labels, table


def relabel(labels, table, seed):
    """The same loop with its elements renumbered by a seeded permutation."""
    new_of_old = np.random.default_rng(seed).permutation(len(labels))
    old_of_new = np.argsort(new_of_old)
    return ([labels[i] for i in old_of_new],
            new_of_old[table[np.ix_(old_of_new, old_of_new)]])


# Fano-plane triples (a, b, c) with e_a e_b = e_c for the imaginary units.
_FANO = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2),
         (7, 1, 3))


def octonion_loop():
    """O16 = {+-e_0..+-e_7}, the Moufang loop of the octonion units;
    element 2i + s is (-1)^s e_i."""
    sign, unit = {}, {}
    for i in range(8):
        for j in range(8):
            if i == 0 or j == 0:
                sign[i, j], unit[i, j] = 1, i + j
            elif i == j:
                sign[i, j], unit[i, j] = -1, 0
    for a, b, c in _FANO:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            sign[x, y], unit[x, y] = 1, z
            sign[y, x], unit[y, x] = -1, z
    table = np.empty((16, 16), dtype=np.int64)
    for i in range(8):
        for j in range(8):
            for si in (0, 1):
                for sj in (0, 1):
                    negative = (sign[i, j] < 0) ^ si ^ sj
                    table[2 * i + si, 2 * j + sj] = 2 * unit[i, j] + negative
    labels = ["%se%d" % ("-" if s else "+", i) for i in range(8) for s in (0, 1)]
    return labels, table


def cyclic_product(labels, table, m):
    """The direct product of a loop with Z(m)."""
    n = len(labels)
    z = np.arange(m)
    big = (table[:, None, :, None] * m + (z[None, :, None, None] + z) % m)
    return (["%s.%d" % (l, k) for l in labels for k in range(m)],
            big.reshape(n * m, n * m))
