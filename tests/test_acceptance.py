"""Acceptance suite: one test per criterion, each driven through the CLI.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Every tolerance here is exact (integer equality / zero failures);
sampled checks use the fixed seed 0x5EED baked into the CLI defaults.
"""

import time

import pytest

from moufang.cli import run


def lines_dict(rep):
    out = {}
    for line in rep.lines:
        k, _, v = line.partition("=")
        out[k] = v
    return out


def ok(rep):
    assert rep.status == 0, "command failed: %s -> %s" % (rep.command, rep.lines)
    return lines_dict(rep)


def announce(num, text):
    print("ACCEPTANCE %02d PASS: %s" % (num, text))


def test_criterion_01_orders_match_enumeration():
    t0 = time.time()
    expected = {2: 120, 3: 1080, 4: 16320, 5: 39000}
    for q, want in expected.items():
        d = ok(run(["paige-order", "--q", str(q)]))
        assert int(d["order"]) == want
        assert int(d["enumerated"]) == want
        assert d["match"] == "yes" and d["mode"] == "exhaustive"
    assert time.time() - t0 <= 60
    announce(1, "orders of M*(q) equal exhaustive enumeration: 120/1080/16320/39000")


def test_criterion_02_multiplication_group_order():
    d = ok(run(["mlt-order", "--loop", "M*(2)"]))
    assert int(d["order"]) == 174182400
    assert int(d["expected"]) == 174182400
    assert d["match"] == "yes"
    announce(2, "|Mlt(M*(2))| = 174182400 by Schreier-Sims")


def test_criterion_03_simplicity():
    t0 = time.time()
    d = ok(run(["simple-check", "--loop", "M*(2)", "--elements", "all"]))
    assert d["simple"] == "yes" and int(d["closures_checked"]) == 119
    d = ok(run(["simple-check", "--loop", "M*(3)", "--elements", "100"]))
    assert d["simple"] == "yes" and int(d["closures_checked"]) == 100
    assert time.time() - t0 <= 300
    announce(3, "normal closures: all 119 of M*(2) and 100 seeded of M*(3) are full")


def test_criterion_04_nonassociative_moufang():
    d = ok(run(["moufang-check", "--loop", "M*(2)"]))
    assert d["moufang"] == "yes" and d["mode"] == "exhaustive"
    assert d["associative"] == "no" and "nonassoc_witness" in d
    for q in (3, 5):
        d = ok(run(["moufang-check", "--loop", "M*(%d)" % q,
                    "--samples", "100000"]))
        assert d["moufang"] == "yes" and d["mode"] == "certified"
        assert d["associative"] == "no" and "nonassoc_witness" in d
    announce(4, "associativity fails in M*(2), M*(3), M*(5); Moufang identity "
                "holds (exhaustive q=2, certified on the Zorn algebra q=3,5)")


def test_criterion_05_generators():
    t0 = time.time()
    for q, want in ((2, 120), (3, 1080), (5, 39000)):
        d = ok(run(["generators-check", "--q", str(q)]))
        assert int(d["closure"]) == want and d["ok"] == "yes"
        assert d["mode"] == "certified"
    assert time.time() - t0 <= 120
    announce(5, "standard generator closures have sizes 120/1080/39000 "
                "(certified reachability)")


def test_criterion_06_sum_of_two_units():
    d = ok(run(["decompose", "--q", "2", "--exhaustive"]))
    assert int(d["checked"]) == 256 and int(d["failures"]) == 0
    for q in (3, 5):
        d = ok(run(["decompose", "--q", str(q), "--samples", "10000"]))
        assert int(d["checked"]) == 10000 and int(d["failures"]) == 0
    announce(6, "sum-of-two-units: exhaustive over O(GF(2)) and 10^4 random "
                "over GF(3), GF(5), zero failures")


def test_criterion_07_orthogonal_layer():
    t0 = time.time()
    for q in (3, 5):
        d = ok(run(["spinor-check", "--q", str(q), "--samples", "1000"]))
        assert int(d["checked"]) == 1000 and int(d["failures"]) == 0
    assert time.time() - t0 <= 60
    announce(7, "translation operators are rotations with square spinor class "
                "(10^3 random, q=3,5)")


def test_criterion_08_triality():
    for case in ("wreath-s3", "vector-gf5", "net-z3", "net-s3"):
        d = ok(run(["triality-check", "--case", case]))
        assert d["triality"] == "pass"
        assert d["mode"] == "exhaustive"
        assert d["routes_agree"] == "yes"
    d = ok(run(["triality-check", "--case", "net-paige2", "--samples", "1000"]))
    assert d["triality"] == "pass"
    assert d["mode"] == "sampled"
    assert d["routes_agree"] == "yes"
    announce(8, "triality identity and its class-pair reformulation agree on "
                "all checked groups")


def test_criterion_09_bol_reflections():
    for loop, n in (("Z(3)", 3), ("S3", 6), ("M*(2)", 120)):
        d = ok(run(["bol-check", "--loop", loop, "--points", "50"]))
        assert int(d["reflections"]) == 3 * n
        assert d["involutions"] == "ok" and d["collineations"] == "ok"
        assert d["s3_origin"] == "ok" and d["concurrent_pairs"] == "ok"
    announce(9, "all 3n Bol reflections are involutive collineations; "
                "concurrent products cube to the identity")


def test_criterion_10_integral_cayley_numbers():
    t0 = time.time()
    d = ok(run(["cayley-units"]))
    assert int(d["units"]) == 240
    assert int(d["quotient"]) == 120
    assert d["iso_with_paige2"] == "yes" and d["gens_ijh"] == "yes"
    assert d["mode"] == "exhaustive"
    assert time.time() - t0 <= 300
    announce(10, "240 unit integral octonions; sign quotient of size 120 "
                 "isomorphic to M*(2)")


def test_criterion_11_automorphisms():
    t0 = time.time()
    d = ok(run(["aut-count", "--loop", "M*(2)"]))
    assert int(d["aut"]) == 12096
    assert d["collineation_check"] == "pass"
    assert d["mode"] == "certified"
    assert time.time() - t0 <= 600
    announce(11, "|Aut(M*(2))| = 12096 = |G2(2)|; every automorphism is a "
                 "direction-preserving collineation")


def test_criterion_12_multiplication_group_bound():
    d = ok(run(["mlt-order", "--loop", "M*(2)"]))
    order = int(d["order"])
    bound = int(d["bound4n4"])
    assert order == 174182400
    assert bound == 4 * 120 ** 4 == 829440000
    assert order < bound and d["bound_ok"] == "yes"
    announce(12, "|Mlt(M*(2))| = 174182400 < 4*120^4 = 829440000")
