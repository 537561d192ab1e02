"""Command-line surface.  Every check prints stable key=value lines on
stdout (diagnostics go to stderr) and exits 0 when the property holds,
1 when it is falsified (with a witness line), 2 on usage errors."""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import cayley, loops, paige, triality
from .composition import ZornMatrix
from .fields import field_make, field_of_order, parse_field_spec
from .loops import SAMPLE_SEED
# mat_det is unused here but stays bound: perfbench/tests checks that the
# tracer wraps this module's from-import bindings, mat_det among them.
from .orthogonal import is_rotation, mat_det, mult_operator_matrix, spinor_norm  # noqa: F401


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


def _parse_loop(spec):
    spec = spec.strip()
    if spec.startswith("M*(") and spec.endswith(")"):
        return paige.paige_loop(int(spec[3:-1]))
    if spec.startswith("M(") and spec.endswith(")"):
        return paige.unit_loop(int(spec[2:-1]))
    if spec.startswith("Z(") and spec.endswith(")"):
        return loops.cyclic_loop(int(spec[2:-1]))
    if spec == "S3":
        from .permgrp import Perm, PermGroup
        return loops.loop_from_perm_group(
            PermGroup(3, [Perm([1, 0, 2]), Perm([0, 2, 1])]))
    if spec == "integral":
        return cayley.quotient_mod_sign()
    if spec.startswith("file:"):
        return loops.read_table(spec[5:])
    raise ValueError("unknown loop spec %r; use M(q), M*(q), Z(n), S3, "
                     "integral or file:PATH" % (spec,))


def _paige_q(spec):
    if spec.startswith("M*(") and spec.endswith(")"):
        return int(spec[3:-1])
    return None


def _build_parser():
    top = argparse.ArgumentParser(prog="moufang", description=__doc__)
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
    p.add_argument("--elements", default="all", help="'all' or a sample count")

    p = add("moufang-check", help="Moufang identity and associativity witness")
    p.add_argument("--loop", required=True)
    p.add_argument("--samples", type=int, default=100000)

    p = add("generators-check", help="closure size of the standard generators")
    p.add_argument("--q", type=int, required=True)

    p = add("decompose", help="sum-of-two-units decomposition")
    p.add_argument("--q", type=int)
    p.add_argument("--field", help="gf(q) or gf(p,k,c0.c1..ck), constant term first")
    p.add_argument("--x", help="Zorn matrix text [a|a1,a2,a3|b1,b2,b3|b]")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=int, default=10000)

    p = add("spinor-check", help="rotation and spinor checks for translation operators")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)

    p = add("net-build", help="materialize the 3-net of a loop")
    p.add_argument("--loop", required=True)

    p = add("bol-check", help="Bol reflections: involutions, collineations, S3")
    p.add_argument("--loop", required=True)
    p.add_argument("--points", type=int, default=50)

    p = add("triality-check", help="triality identity for a named case")
    p.add_argument("--case", required=True,
                   help="wreath-s3 | vector-gf5 | vector-gf2 | phi-z3z3 | "
                        "net-z3 | net-s3 | net-paige2")
    p.add_argument("--samples", type=int, default=1000)

    p = add("cayley-units", help="integral Cayley units and the M*(2) certificate")

    p = add("iso-check", help="isomorphism search between two loops")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = add("aut-count", help="count automorphisms; optionally run the "
                              "collineation cross-check")
    p.add_argument("--loop", required=True)
    p.add_argument("--skip-collineations", action="store_true")

    p = add("export-table", help="write the Cayley table file")
    p.add_argument("--loop", required=True)
    p.add_argument("--out", required=True)
    return top


def _cmd_paige_order(args, rep):
    order = paige.paige_order_formula(args.q)
    rep.add("q", args.q)
    rep.add("order", order)
    if not args.skip_enumeration:
        if args.q > 5:
            raise ValueError("enumeration supported for q <= 5")
        _progress("enumerating norm-one matrices over GF(%d)..." % args.q)
        field = field_of_order(args.q)
        coords = paige.enumerate_unit_coords(field)
        eng = paige.ZornEngine(field)
        keep = eng.pack(coords) <= eng.pack(eng.neg(coords))
        enumerated = int(keep.sum())
        rep.add("enumerated", enumerated)
        if enumerated == order:
            rep.add("match", "yes")
        else:
            rep.fail("match", "no")


def _cmd_paige_build(args, rep):
    loop = paige.paige_loop(args.q)
    rep.add("q", args.q)
    rep.add("size", loop.n)
    rep.add("neutral", loop.labels[loop.neutral])
    if args.out:
        if loop.table is None:
            raise ValueError("loop too large for a table export")
        loops.write_table(loop, args.out)
        rep.add("written", args.out)


def _cmd_mlt_order(args, rep):
    loop = _parse_loop(args.loop)
    _progress("building translation generators and the stabilizer chain...")
    G = loops.mlt_group(loop)
    order = G.order()
    rep.add("loop", args.loop)
    rep.add("order", order)
    q = _paige_q(args.loop)
    if q is not None:
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


def _cmd_simple_check(args, rep):
    loop = _parse_loop(args.loop)
    others = [x for x in range(loop.n) if x != loop.neutral]
    if args.elements != "all":
        k = int(args.elements)
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


def _cmd_moufang_check(args, rep):
    loop = _parse_loop(args.loop)
    rep.add("loop", args.loop)
    viol = loops.moufang_violation(loop, samples=args.samples, seed=args.seed)
    if viol is None:
        rep.add("moufang", "yes")
        mode = "exhaustive" if (loop.table is not None and loop.n <= 512) else \
            "sampled:%d" % args.samples
        rep.add("mode", mode)
    else:
        rep.fail("moufang", "no")
        rep.add("witness", "(%s,%s,%s)" % tuple(loop.labels[i] for i in viol))
    if loop.table is not None:
        w = loops.associativity_violation(loop)
        if w is None:
            rep.add("associative", "yes")
        else:
            rep.add("associative", "no")
            rep.add("nonassoc_witness",
                    "(%s,%s,%s)" % tuple(loop.labels[i] for i in w))


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


def _iter_random_zorn(field, rng, count):
    for _ in range(count):
        yield ZornMatrix.from_coords(
            field, [int(rng.integers(field.q)) for _ in range(8)])


def _cmd_decompose(args, rep):
    if args.field:
        field = parse_field_spec(args.field)
    elif args.q is not None:
        field = field_of_order(args.q)
    else:
        raise ValueError("need --q or --field")
    rep.add("q", field.q)
    if args.x:
        x = ZornMatrix.parse(field, args.x)
        from .composition import decompose_sum_two_units
        u, v = decompose_sum_two_units(x)
        rep.add("u", u.text())
        rep.add("v", v.text())
        ok = (u.det() == field.one and v.det() == field.one
              and (u + v).coords() == x.coords())
        if ok:
            rep.add("ok", "yes")
        else:
            rep.fail("ok", "no")
        return
    from .composition import decompose_sum_two_units
    if args.exhaustive:
        import itertools
        pool = (ZornMatrix.from_coords(field, c)
                for c in itertools.product(range(field.q), repeat=8))
        total = field.q ** 8
    else:
        rng = np.random.default_rng(args.seed)
        pool = _iter_random_zorn(field, rng, args.samples)
        total = args.samples
    failures = 0
    witness = None
    for x in pool:
        u, v = decompose_sum_two_units(x)
        if not (u.det() == field.one and v.det() == field.one
                and (u + v).coords() == x.coords()):
            failures += 1
            witness = x
            break
    rep.add("checked", total if witness is None else -1)
    if failures:
        rep.fail("failures", failures)
        rep.add("witness", witness.text())
    else:
        rep.add("failures", 0)


def _cmd_spinor_check(args, rep):
    if args.q % 2 == 0:
        raise ValueError("spinor checks need odd q")
    field = field_of_order(args.q)
    coords = paige.enumerate_unit_coords(field)
    rng = np.random.default_rng(args.seed)
    picks = rng.integers(len(coords), size=args.samples)
    failures = 0
    witness = None
    for t, i in enumerate(picks):
        a = ZornMatrix.from_coords(field, [int(c) for c in coords[int(i)]])
        for side in ("left", "right"):
            M = mult_operator_matrix(a, side)
            if not is_rotation(field, M):
                failures += 1
                witness = (a, side, "not a rotation")
                break
            verdict = spinor_norm(field, M)
            if not verdict.in_omega:
                failures += 1
                witness = (a, side, "spinor class " + verdict.discriminant_square_class)
                break
        if failures:
            break
        if (t + 1) % 250 == 0:
            _progress("checked %d/%d operators" % (t + 1, args.samples))
    rep.add("q", args.q)
    rep.add("checked", args.samples if witness is None else -1)
    if failures:
        rep.fail("failures", failures)
        rep.add("witness", "%s %s %s" % (witness[0].text(), witness[1], witness[2]))
    else:
        rep.add("failures", 0)


def _cmd_net_build(args, rep):
    loop = _parse_loop(args.loop)
    net = triality.LoopNet3(loop, cap=loop.n)
    rep.add("loop", args.loop)
    rep.add("points", net.n_points)
    rep.add("lines", net.n_lines())
    rep.add("axioms", "ok")


def _cmd_bol_check(args, rep):
    loop = _parse_loop(args.loop)
    net = triality.LoopNet3(loop, cap=loop.n)
    refl = triality.all_bol_reflections(loop, net=net, cap=loop.n)
    rep.add("loop", args.loop)
    rep.add("reflections", len(refl))
    rep.add("involutions", "ok")
    rep.add("collineations", "ok")
    e = loop.neutral
    s1 = refl[(1, e)].point_map
    s2 = refl[(2, e)].point_map
    s3 = refl[(3, e)].point_map
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
                prod = refl[(c1, m1)].point_map * refl[(c2, m2)].point_map
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
    from .permgrp import Perm, PermGroup
    if case == "wreath-s3":
        A = PermGroup(3, [Perm([1, 0, 2]), Perm([0, 2, 1])])
        w = triality.example_wreath(A, seed=args.seed)
    elif case == "vector-gf5":
        w = triality.example_vector(field_make(5), seed=args.seed)
    elif case == "vector-gf2":
        w = triality.example_vector(field_make(2), seed=args.seed)
    elif case == "phi-z3z3":
        q = 3
        img = np.empty(9, dtype=np.int64)
        for a in range(3):
            for b in range(3):
                img[a * q + b] = (b % 3) * q + ((-a - b) % 3)
        gens = []
        for (da, db) in ((1, 0), (0, 1)):
            t = np.empty(9, dtype=np.int64)
            for a in range(3):
                for b in range(3):
                    t[a * q + b] = ((a + da) % 3) * q + ((b + db) % 3)
            gens.append(Perm(t))
        w = triality.example_phi(PermGroup(9, gens), Perm(img), seed=args.seed)
    elif case in ("net-z3", "net-s3", "net-paige2"):
        if case == "net-z3":
            loop = loops.cyclic_loop(3)
        elif case == "net-s3":
            loop = loops.loop_from_perm_group(
                PermGroup(3, [Perm([1, 0, 2]), Perm([0, 2, 1])]))
        else:
            loop = paige.paige_loop(2)
        _progress("building the net and its reflections...")
        w = triality.triality_group_from_loop(loop, samples=args.samples,
                                              seed=args.seed)
    else:
        raise ValueError("unknown case %r" % (case,))
    ok, details = triality.triality_check(w.group, w.sigma, w.rho,
                                          samples=args.samples, seed=args.seed)
    rep.add("mode", details["mode"])
    rep.add("identity", "PASS" if details["identity_ok"] else "FAIL")
    rep.add("identity_checked", details["identity_checked"])
    rep.add("reformulation", "PASS" if details["pairs_ok"] else "FAIL")
    rep.add("pairs_checked", details["pairs_checked"])
    rep.add("routes_agree", "yes" if details["routes_agree"] else "no")
    if ok:
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
    witness = cayley.certify_paige2_iso(quotient)
    rep.add("iso_with_paige2", "yes" if witness.verify() else "no")
    rep.add("gens_ijh", "yes")
    if not witness.verify():
        rep.status = 1


def _cmd_iso_check(args, rep):
    left = _parse_loop(args.left)
    right = _parse_loop(args.right)
    rep.add("left", args.left)
    rep.add("right", args.right)
    w = loops.find_isomorphism(left, right)
    if w is None:
        rep.add("isomorphic", "no")
    else:
        rep.add("isomorphic", "yes")
        rep.add("verified", "yes" if w.verify() else "no")
        if not w.verify():
            rep.status = 1


def _cmd_aut_count(args, rep):
    loop = _parse_loop(args.loop)
    rep.add("loop", args.loop)
    _progress("backtracking over generator images...")
    auts = loops.automorphisms(loop)
    rep.add("aut", len(auts))
    if not args.skip_collineations:
        net = triality.LoopNet3(loop, cap=loop.n)
        bad = 0
        for i, alpha in enumerate(auts):
            img = triality.diagonal_point_map(net, alpha)
            try:
                coll = triality.collineation_from_point_map(net, img)
            except triality.NotACollineationError:
                bad += 1
                break
            if not coll.is_direction_preserving():
                bad += 1
                break
            if (i + 1) % 2000 == 0:
                _progress("collineation check %d/%d" % (i + 1, len(auts)))
        if bad == 0:
            rep.add("collineation_check", "pass")
        else:
            rep.fail("collineation_check", "fail")


def _cmd_export_table(args, rep):
    loop = _parse_loop(args.loop)
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
    """Execute one command line; returns a CommandReport (status 2 on
    usage errors)."""
    rep = CommandReport(command="moufang " + " ".join(argv))
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        rep.status = 2 if e.code not in (0,) else 0
        return rep
    try:
        _HANDLERS[args.cmd](args, rep)
    except (ValueError, KeyError, FileNotFoundError) as e:
        print("error: %s" % (e,), file=sys.stderr)
        rep.status = 2
    return rep


def main(argv=None):
    rep = run(sys.argv[1:] if argv is None else argv)
    for line in rep.lines:
        print(line)
    return rep.status


if __name__ == "__main__":
    sys.exit(main())
