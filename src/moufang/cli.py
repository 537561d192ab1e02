"""Command-line surface.  Every check prints stable key=value lines on
stdout (diagnostics go to stderr) and exits 0 when the property holds,
1 when it is falsified (with a witness line), 2 on a UsageError (malformed
or refused requests), 3 on internal faults."""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import cayley, loops, paige, triality
from .composition import ZornMatrix, decompose_sum_two_units
from .fields import (UsageError, field_make, field_of_order, parse_field_spec,
                     prime_power)
from .loops import SAMPLE_SEED
# mat_det is unused here but stays bound: perfbench/tests checks that the
# tracer wraps this module's from-import bindings, mat_det among them.
from .orthogonal import (UNIT_BYTES, is_rotation, mat_det,  # noqa: F401
                         mult_operator_matrix, operator_matrices, spinor_norm,
                         spinor_verdicts)
from .permgrp import Perm, PermGroup

_S3 = PermGroup(3, [Perm([1, 0, 2]), Perm([0, 2, 1])])

# The most elements decompose --exhaustive splits: q <= 8 run (q = 7 in
# 7 s, q = 8 in 27 s on a 2-core x86 host), q >= 9 are refused up front
_DECOMPOSE_LIMIT = 2 ** 24


@dataclass
class CommandReport:
    command: str
    lines: list = dc_field(default_factory=list)
    status: int = 0

    def add(self, key, value):
        self.lines.append("%s=%s" % (key, value))

    def fail(self, key, value):
        self.add(key, value)
        self.status = 1


def _progress(msg):
    print(msg, file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that refuses by UsageError, so argparse rejections
    take the one exit-2 path of run()."""

    def error(self, message):
        raise UsageError(message)


def positive_count(text):
    """The argparse type of every sample and point count: an integer >= 1,
    since a count of 0 would pass a verdict that checked nothing."""
    if not text.isdigit() or int(text) == 0:
        raise argparse.ArgumentTypeError("%r is not a positive count" % (text,))
    return int(text)


def all_or_positive_count(text):
    """The argparse type of simple-check --elements: None for 'all'."""
    return None if text == "all" else positive_count(text)


def _parse_spec(spec):
    """(kind, argument) of a loop spec, read without building anything:
    ("M*", q), ("M", q), ("Z", n), ("S3", None), ("integral", None) or
    ("file", path)."""
    spec = spec.strip()
    for kind in ("M*", "M", "Z"):
        arg = spec[len(kind) + 1:-1]
        if (spec.startswith(kind + "(") and spec.endswith(")") and arg.isdigit()
                and int(arg) > 0):
            return kind, int(arg)
    if spec in ("S3", "integral"):
        return spec, None
    if spec.startswith("file:"):
        return "file", spec[5:]
    raise UsageError("unknown loop spec %r; use M(q), M*(q), Z(n), S3, "
                     "integral or file:PATH" % (spec,))


def _build_loop(kind, arg):
    """The loop of a parsed spec; an M(q) or M*(q) whose tables would not
    fit the memory budget is refused by its name before it is enumerated."""
    if kind == "M*":
        return paige.paige_loop(arg)
    if kind == "M":
        return paige.unit_loop(arg)
    if kind == "Z":
        return loops.cyclic_loop(arg)
    if kind == "S3":
        return loops.loop_from_perm_group(_S3)
    if kind == "integral":
        return cayley.quotient_mod_sign()
    return loops.read_table(arg)


def _formula_order(kind, arg):
    """|M*(q)| or |M(q)| from the order formula; None for other kinds."""
    if kind == "M*":
        return paige.paige_order_formula(arg)
    if kind == "M":
        return paige.unit_loop_size_formula(arg)
    return None


def _table_spec(spec, *checks):
    """_parse_spec for the commands that read the Cayley table: an M(q) or
    M*(q) whose tables, or what the further checks price from its order,
    would not fit the memory budget is refused by its name, from the order
    formula, before anything is enumerated."""
    kind, arg = _parse_spec(spec)
    n = _formula_order(kind, arg)
    if n is not None:
        for check in (loops.require_table_fits,) + checks:
            check(n)
    return kind, arg


def _build_parser():
    top = _Parser(prog="moufang", description=__doc__)
    sub = top.add_subparsers(dest="cmd", required=True)

    def add(name, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--seed", type=lambda s: int(s, 0), default=SAMPLE_SEED)
        return p

    p = add("paige-order", help="order of M*(q): formula and enumeration")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--skip-enumeration", action="store_true")

    p = add("paige-build", help="build M*(q) exhaustively")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")

    p = add("mlt-order", help="Schreier-Sims order of the multiplication group")
    p.add_argument("--loop", required=True)

    p = add("simple-check", help="normal closures of non-neutral elements")
    p.add_argument("--loop", required=True)
    p.add_argument("--elements", type=all_or_positive_count, default="all",
                   help="'all' or a sample count")

    p = add("moufang-check", help="Moufang identity and associativity witness")
    p.add_argument("--loop", required=True)
    p.add_argument("--samples", type=positive_count, default=100000,
                   help="triples sampled on a loop past 512 elements; unused "
                        "by M(q) and M*(q), which are certified on the Zorn "
                        "algebra past 512 elements")

    p = add("generators-check", help="closure size of the standard generators")
    p.add_argument("--q", type=int, required=True)

    p = add("decompose", help="sum-of-two-units decomposition")
    over = p.add_mutually_exclusive_group()
    over.add_argument("--q", type=int)
    over.add_argument("--field", help="gf(q) or gf(p,k,c0.c1..ck), constant term first")
    how = p.add_mutually_exclusive_group()
    how.add_argument("--x", help="Zorn matrix text [a|a1,a2,a3|b1,b2,b3|b]")
    how.add_argument("--exhaustive", action="store_true")
    how.add_argument("--samples", type=positive_count, default=10000)

    p = add("spinor-check", help="rotation and spinor checks for translation operators")
    p.add_argument("--q", type=int, required=True)
    how = p.add_mutually_exclusive_group()
    how.add_argument("--exhaustive", action="store_true")
    how.add_argument("--samples", type=positive_count, default=1000)

    p = add("net-build", help="materialize the 3-net of a loop")
    p.add_argument("--loop", required=True)

    p = add("bol-check", help="Bol reflections: involutions, collineations, S3")
    p.add_argument("--loop", required=True)
    p.add_argument("--points", type=positive_count, default=50)

    p = add("triality-check", help="triality identity for a named case")
    p.add_argument("--case", required=True,
                   help="wreath-s3 | vector-gf5 | vector-gf2 | phi-z3z3 | "
                        "net-z3 | net-s3 | net-paige2")
    p.add_argument("--samples", type=positive_count, default=1000)

    p = add("cayley-units", help="integral Cayley units and the M*(2) certificate")

    p = add("iso-check", help="isomorphism search between two loops")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = add("aut-count", help="Aut(L) by certified backtracking, with the "
                              "collineation check on its generators")
    p.add_argument("--loop", required=True)

    p = add("export-table", help="write the Cayley table file")
    p.add_argument("--loop", required=True)
    p.add_argument("--out", required=True)
    return top


def _cmd_paige_order(args, rep):
    prime_power(args.q)
    order = paige.paige_order_formula(args.q)
    rep.add("q", args.q)
    rep.add("order", order)
    if not args.skip_enumeration:
        field = field_of_order(args.q)
        _progress("enumerating norm-one matrices over GF(%d)..." % args.q)
        enumerated = len(paige.paige_coords(field))
        rep.add("enumerated", enumerated)
        if enumerated == order:
            rep.add("match", "yes")
        else:
            rep.fail("match", "no")
        rep.add("mode", "exhaustive")


def _cmd_paige_build(args, rep):
    loop = paige.paige_loop(args.q)
    rep.add("q", args.q)
    rep.add("size", loop.n)
    rep.add("neutral", loop.labels[loop.neutral])
    if args.out:
        loops.write_table(loop, args.out)
        rep.add("written", args.out)


def _cmd_mlt_order(args, rep):
    kind, q = _table_spec(args.loop)
    loop = _build_loop(kind, q)
    _progress("building translation generators and the stabilizer chain...")
    G = loops.mlt_group(loop)
    order = G.order()
    rep.add("loop", args.loop)
    rep.add("order", order)
    if kind == "M*":
        expected = paige.mlt_paige_order_formula(q)
        rep.add("expected", expected)
        if order != expected:
            rep.fail("match", "no")
        else:
            rep.add("match", "yes")
    bound = 4 * loop.n ** 4
    rep.add("bound4n4", bound)
    if order < bound:
        rep.add("bound_ok", "yes")
    else:
        rep.fail("bound_ok", "no")
    rep.add("mode", "certified")


def _cmd_simple_check(args, rep):
    k = args.elements
    loop = _build_loop(*_table_spec(args.loop))
    others = [x for x in range(loop.n) if x != loop.neutral]
    if k is not None:
        if k > len(others):
            raise UsageError("--elements %d exceeds the %d non-neutral elements"
                             % (k, len(others)))
        rng = np.random.default_rng(args.seed)
        others = [others[int(i)] for i in rng.choice(len(others), size=k,
                                                     replace=False)]
    bad = None
    for i, x in enumerate(others):
        if len(loops.normal_closure(loop, [x])) != loop.n:
            bad = x
            break
        if (i + 1) % 25 == 0:
            _progress("checked %d/%d closures" % (i + 1, len(others)))
    rep.add("loop", args.loop)
    rep.add("closures_checked", len(others) if bad is None else others.index(bad) + 1)
    if bad is None:
        rep.add("simple", "yes")
    else:
        rep.fail("simple", "no")
        rep.add("witness", loop.labels[bad])
    rep.add("mode", "exhaustive" if k is None else "sampled:%d" % k)


def _cmd_moufang_check(args, rep):
    kind, arg = _parse_spec(args.loop)
    rep.add("loop", args.loop)
    n = _formula_order(kind, arg)
    if n is not None and loops.moufang_mode(n, args.samples) != "exhaustive":
        # settled on the whole algebra, --samples unused; a failing row is
        # an arithmetic fault
        paige.moufang_certificate(field_of_order(arg))
        rep.add("moufang", "yes")
        rep.add("mode", "certified")
        witness = paige.associativity_witness(arg, quotient=kind == "M*")
    else:
        loop = _build_loop(kind, arg)
        viol = loops.moufang_violation(loop, samples=args.samples, seed=args.seed)
        if viol is None:
            rep.add("moufang", "yes")
            rep.add("mode", loops.moufang_mode(loop.n, args.samples))
        else:
            rep.fail("moufang", "no")
            rep.add("witness", "(%s,%s,%s)" % tuple(loop.labels[i] for i in viol))
        w = loops.associativity_violation(loop)
        witness = None if w is None else tuple(loop.labels[i] for i in w)
    if witness is None:
        rep.add("associative", "yes")
    else:
        rep.add("associative", "no")
        rep.add("nonassoc_witness", "(%s,%s,%s)" % witness)


def _cmd_generators_check(args, rep):
    size = paige.generator_closure_size(args.q)
    expected = paige.paige_order_formula(args.q)
    rep.add("q", args.q)
    rep.add("closure", size)
    rep.add("expected", expected)
    if size == expected:
        rep.add("ok", "yes")
    else:
        rep.fail("ok", "no")
    rep.add("mode", "certified")


def _cmd_decompose(args, rep):
    if args.field:
        field = parse_field_spec(args.field)
    elif args.q is not None:
        field = field_of_order(args.q)
    else:
        raise UsageError("need --q or --field")
    eng = paige.ZornEngine(field)
    q = field.q
    rep.add("q", q)
    chunk = loops.MEMORY_BUDGET // paige.DECOMPOSE_ROW_BYTES
    if args.x:
        pool = [np.array([ZornMatrix.parse(field, args.x).coords()], dtype=np.int64)]
    elif args.exhaustive:
        if q ** 8 > _DECOMPOSE_LIMIT:
            raise UsageError("an exhaustive decomposition over GF(%d)^8 has %d "
                             "elements, past the limit of %d" % (q, q ** 8,
                                                               _DECOMPOSE_LIMIT))
        rep.add("mode", "exhaustive")
        # base-q digits of 0..q^8-1, coordinate a most significant: the
        # order of itertools.product, so a witness is the first failure
        digits = q ** np.arange(7, -1, -1, dtype=np.int64)
        pool = (np.arange(s, min(s + chunk, q ** 8))[:, None] // digits % q
                for s in range(0, q ** 8, chunk))
    else:
        rep.add("mode", "sampled:%d" % args.samples)
        # successive draws continue one stream: the rows of a single draw
        rng = np.random.default_rng(args.seed)
        pool = (rng.integers(q, size=(min(chunk, args.samples - s), 8))
                for s in range(0, args.samples, chunk))
    checked, witness = 0, None
    for X in pool:
        U, V = paige.decompose_batch(eng, X)
        ok = ((eng.norm(U) == field.one) & (eng.norm(V) == field.one)
              & (field.vadd(U, V) == X).all(axis=1))
        if checked == 0:  # the first element once more, on the scalar path
            u, _ = decompose_sum_two_units(ZornMatrix.from_coords(field, X[0].tolist()))
            if list(u.coords()) != U[0].tolist():
                raise AssertionError("batched and scalar decompositions of %s "
                                     "disagree" % u.text())
        if not ok.all():
            witness = ZornMatrix.from_coords(field, X[ok.argmin()].tolist())
            break
        checked += len(X)
    if args.x:
        rep.add("u", ZornMatrix.from_coords(field, U[0].tolist()).text())
        rep.add("v", ZornMatrix.from_coords(field, V[0].tolist()).text())
        if witness is None:
            rep.add("ok", "yes")
        else:
            rep.fail("ok", "no")
        return
    rep.add("checked", checked if witness is None else -1)
    if witness is None:
        rep.add("failures", 0)
    else:
        rep.fail("failures", 1)
        rep.add("witness", witness.text())


def _cmd_spinor_check(args, rep):
    if args.q % 2 == 0:
        raise UsageError("spinor checks need odd q")
    field = field_of_order(args.q)
    coords = paige.enumerate_unit_coords(field)
    if args.exhaustive:
        picks, mode = np.arange(len(coords)), "exhaustive"
    else:
        rng = np.random.default_rng(args.seed)
        picks = rng.integers(len(coords), size=args.samples)
        mode = "sampled:%d" % args.samples
    chunk = loops.MEMORY_BUDGET // UNIT_BYTES
    witness = None
    for start in range(0, len(picks), chunk):
        units = coords[picks[start:start + chunk]]
        verdicts = {}
        for side in ("left", "right"):
            M = operator_matrices(field, units, side)
            _, rotation, square = verdicts[side] = spinor_verdicts(field, M)
            if start == 0:  # the first unit once more, on the scalar path
                S = mult_operator_matrix(ZornMatrix.from_coords(
                    field, [int(c) for c in units[0]]), side)
                rot = is_rotation(field, S)
                if not (np.array_equal(S, M[0]) and rot == rotation[0] and
                        (rot and spinor_norm(field, S).in_omega) == square[0]):
                    raise AssertionError("batched and scalar spinor verdicts "
                                         "disagree on the %s operator" % side)
        bad = ~(verdicts["left"][2] & verdicts["right"][2])
        if bad.any():
            t = int(bad.argmax())
            side = "left" if not verdicts["left"][2][t] else "right"
            a = ZornMatrix.from_coords(field, [int(c) for c in units[t]])
            witness = "%s %s %s" % (a.text(), side, "spinor class non-square"
                                    if verdicts[side][1][t] else "not a rotation")
            break
        _progress("checked %d/%d operators" % (start + len(units), len(picks)))
    rep.add("q", args.q)
    rep.add("mode", mode)
    rep.add("checked", len(picks) if witness is None else -1)
    if witness:
        rep.fail("failures", 1)
        rep.add("witness", witness)
    else:
        rep.add("failures", 0)


def _cmd_net_build(args, rep):
    loop = _build_loop(*_table_spec(args.loop))
    net = triality.LoopNet3(loop)
    rep.add("loop", args.loop)
    rep.add("points", net.n_points)
    rep.add("lines", net.n_lines())
    rep.add("axioms", "ok")


def _cmd_bol_check(args, rep):
    loop = _build_loop(*_table_spec(args.loop, triality.require_reflections_fit))
    net = triality.LoopNet3(loop)
    rep.add("loop", args.loop)
    try:
        refl = triality.all_bol_reflections(loop, net=net)
    except triality.NotACollineationError as e:
        # by the Bol criterion, exactly the non-Moufang loops get here
        rep.fail("collineations", "fail")
        rep.add("witness", str(e))
        return
    rep.add("reflections", len(refl))
    rep.add("involutions", "ok")
    rep.add("collineations", "ok")
    e = loop.neutral
    s1, s2, s3 = (refl[(cls, e)] for cls in (1, 2, 3))
    if s1 * s2 * s1 == s3 and s2 * s1 * s2 == s3 and not (s1 * s2).is_identity():
        rep.add("s3_origin", "ok")
    else:
        rep.fail("s3_origin", "fail")
    rng = np.random.default_rng(args.seed)
    pts = rng.integers(net.n_points, size=args.points)
    bad = 0
    for p in pts:
        p = int(p)
        lines = [(c, net.line_through(p, c)) for c in (1, 2, 3)]
        for (c1, m1) in lines:
            for (c2, m2) in lines:
                if (c1, m1) == (c2, m2):
                    continue
                prod = refl[(c1, m1)] * refl[(c2, m2)]
                if not (prod * prod * prod).is_identity():
                    bad += 1
    rep.add("concurrent_points", args.points)
    if bad == 0:
        rep.add("concurrent_pairs", "ok")
    else:
        rep.fail("concurrent_pairs", "fail:%d" % bad)


def _cmd_triality_check(args, rep):
    case = args.case
    rep.add("case", case)
    if case == "wreath-s3":
        w = triality.example_wreath(_S3, seed=args.seed)
    elif case == "vector-gf5":
        w = triality.example_vector(field_make(5), seed=args.seed)
    elif case == "vector-gf2":
        w = triality.example_vector(field_make(2), seed=args.seed)
    elif case == "phi-z3z3":
        # Z3 x Z3 on the points 3a + b: the translations by (1, 0) and
        # (0, 1), and phi(a, b) = (b, -a - b)
        a, b = np.divmod(np.arange(9), 3)
        gens = [Perm(3 * ((a + da) % 3) + (b + db) % 3) for da, db in ((1, 0), (0, 1))]
        w = triality.example_phi(PermGroup(9, gens), Perm(3 * b + (-a - b) % 3),
                                 seed=args.seed)
    elif case in ("net-z3", "net-s3", "net-paige2"):
        loop = _build_loop(*{"net-z3": ("Z", 3), "net-s3": ("S3", None),
                             "net-paige2": ("M*", 2)}[case])
        _progress("building the net and its reflections...")
        w = triality.triality_group_from_loop(loop, samples=args.samples,
                                              seed=args.seed)
    else:
        raise UsageError("unknown case %r" % (case,))
    details = w.details
    rep.add("mode", details["mode"])
    rep.add("identity", "PASS" if details["identity_ok"] else "FAIL")
    rep.add("identity_checked", details["identity_checked"])
    rep.add("reformulation", "PASS" if details["pairs_ok"] else "FAIL")
    rep.add("pairs_checked", details["pairs_checked"])
    rep.add("routes_agree", "yes" if details["routes_agree"] else "no")
    if details["identity_ok"] and details["pairs_ok"]:
        rep.add("triality", "pass")
    else:
        rep.fail("triality", "fail")
        rep.add("witness", str(details["witness"]))


def _cmd_cayley_units(args, rep):
    _progress("closing the unit integral octonions...")
    els = cayley.generate_unit_integrals()
    rep.add("units", len(els))
    quotient = cayley.quotient_mod_sign(els)
    rep.add("quotient", quotient.n)
    verified = cayley.certify_paige2_iso(quotient).verify()
    rep.add("iso_with_paige2", "yes" if verified else "no")
    rep.add("gens_ijh", "yes")
    # every closure and table product is formed, the witness checked on
    # every pair
    rep.add("mode", "exhaustive")
    if not verified:
        rep.status = 1


def _cmd_iso_check(args, rep):
    left, right = [_table_spec(spec) for spec in (args.left, args.right)]
    left, right = _build_loop(*left), _build_loop(*right)
    rep.add("left", args.left)
    rep.add("right", args.right)
    w = loops.find_isomorphism(left, right)
    if w is None:
        rep.add("isomorphic", "no")
    else:
        rep.add("isomorphic", "yes")
        verified = w.verify()
        rep.add("verified", "yes" if verified else "no")
        if not verified:
            rep.status = 1


def _cmd_aut_count(args, rep):
    loop = _build_loop(*_table_spec(args.loop))
    rep.add("loop", args.loop)
    group = loops.automorphisms(loop)
    rep.add("aut", group.order())
    # alpha -> (x, y) -> (x alpha, y alpha) is a homomorphism Aut -> Coll and
    # direction-preserving collineations form a group, so the strong
    # generators carry the check for all of Aut.
    net = triality.LoopNet3(loop)
    passed = True
    for alpha in group.gens:
        img = triality.diagonal_point_map(net, alpha.a)
        try:
            coll = triality.collineation_from_point_map(net, img)
        except triality.NotACollineationError:
            passed = False
            break
        if not coll.is_direction_preserving():
            passed = False
            break
    if passed:
        rep.add("collineation_check", "pass")
    else:
        rep.fail("collineation_check", "fail")
    rep.add("mode", "certified")


def _cmd_export_table(args, rep):
    loop = _build_loop(*_table_spec(args.loop))
    loops.write_table(loop, args.out)
    rep.add("loop", args.loop)
    rep.add("n", loop.n)
    rep.add("written", args.out)


_HANDLERS = {
    "paige-order": _cmd_paige_order,
    "paige-build": _cmd_paige_build,
    "mlt-order": _cmd_mlt_order,
    "simple-check": _cmd_simple_check,
    "moufang-check": _cmd_moufang_check,
    "generators-check": _cmd_generators_check,
    "decompose": _cmd_decompose,
    "spinor-check": _cmd_spinor_check,
    "net-build": _cmd_net_build,
    "bol-check": _cmd_bol_check,
    "triality-check": _cmd_triality_check,
    "cayley-units": _cmd_cayley_units,
    "iso-check": _cmd_iso_check,
    "aut-count": _cmd_aut_count,
    "export-table": _cmd_export_table,
}


def run(argv):
    """Execute one command line; returns a CommandReport.  Status 2 means a
    usage error: argparse rejected the line, or a handler raised UsageError,
    as it does for a user path that cannot be opened; stderr then gets one
    "error: " line.  Any other exception is an internal fault, status 3.
    Either way stdout stays empty."""
    rep = CommandReport(command="moufang " + " ".join(argv))
    try:
        args = _build_parser().parse_args(argv)
        _HANDLERS[args.cmd](args, rep)
    except SystemExit:  # --help: argparse printed the text, status 0
        pass
    except UsageError as e:
        print("error: %s" % (e,), file=sys.stderr)
        rep.lines.clear()  # a refused request prints nothing on stdout
        rep.status = 2
    except Exception as e:
        import traceback  # only on this path: the import adds 3 MB of peak RSS
        traceback.print_exc()
        print("internal error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        rep.lines.clear()
        rep.status = 3
    return rep


def main(argv=None):
    rep = run(sys.argv[1:] if argv is None else argv)
    for line in rep.lines:
        print(line)
    return rep.status


if __name__ == "__main__":
    sys.exit(main())
