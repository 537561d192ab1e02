"""Integral Cayley numbers: the classical real octonions on the integral
lattice, the 240 units of norm one, and the isomorphism of their sign
quotient with the Paige loop over GF(2).

An element is a tuple of 8 ints, twice its coordinates over the basis
(1, i, j, k, e, ie, je, ke), so the half-integers of the lattice are exact
and the norm of x is sum(c*c for c in x) / 4.  The multiplication is the
doubling construction applied three times from the rationals with parameter
-1 (``cd_double`` over ``QQ``); its 64 nonzero structure constants are read
off the basis products on first use and every product then runs on ints."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .composition import QQ, cd_double, scalar_algebra
from .loops import ClosureCapExceeded, FiniteLoop, closure, closure_indices, find_isomorphism
from . import paige


@lru_cache(maxsize=None)
def _structure_constants():
    """The triples (i, j, k, s) with e_i e_j = s e_k, s = +-1."""
    algebra = scalar_algebra(QQ)
    for _ in range(3):
        algebra = cd_double(algebra, Fraction(-1))
    basis = [tuple(Fraction(int(a == b)) for b in range(8)) for a in range(8)]
    consts = tuple((i, j, k, int(c))
                   for i in range(8) for j in range(8)
                   for k, c in enumerate(algebra.mul(basis[i], basis[j])) if c)
    if len(consts) != 64 or any(abs(s) != 1 for *_, s in consts):
        raise AssertionError("octonion basis products are not signed basis units")
    return consts


def mul(x, y):
    """Product of two doubled-coordinate octonions; ValueError when it
    leaves the half-integer lattice."""
    acc = [0] * 8
    for i, j, k, s in _structure_constants():
        acc[k] += s * x[i] * y[j]
    # acc holds 4 * (xy); the doubled product is acc / 2
    if any(c & 1 for c in acc):
        raise ValueError("product %s/4 leaves the half-integers" % (tuple(acc),))
    return tuple(c >> 1 for c in acc)


def neg(x):
    return tuple(-c for c in x)


def conjugate(x):
    return (x[0],) + neg(x[1:])


def label(x):
    """Coordinates as integers or n/2, e.g. (0,1/2,1/2,1/2,1/2,0,0,0)."""
    return "(%s)" % ",".join(str(c >> 1) if c % 2 == 0 else "%d/2" % c for c in x)


def _unit(index):
    return tuple(2 if t == index else 0 for t in range(8))


ONE = _unit(0)
I_UNIT = _unit(1)
J_UNIT = _unit(2)
K_UNIT = _unit(3)
E_UNIT = _unit(4)
H_UNIT = (0, 1, 1, 1, 1, 0, 0, 0)


def generate_unit_integrals():
    """Multiplicative closure of {+-1, +-i, +-j, h}; must come out at
    exactly 240 elements, all of norm one."""
    gens = [ONE, neg(ONE), I_UNIT, neg(I_UNIT), J_UNIT, neg(J_UNIT), H_UNIT]
    try:
        elements = closure(gens, mul, ONE, cap=241)
    except ClosureCapExceeded:
        raise AssertionError("closure of the unit integrals exceeded 240; "
                             "arithmetic bug")
    if len(elements) != 240:
        raise AssertionError("expected 240 unit integrals, found %d" % len(elements))
    for x in elements:
        if sum(c * c for c in x) != 4:
            raise AssertionError("element %s does not have norm one" % label(x))
    return elements


def _sign_canonical(x):
    """The representative of {x, -x} whose first nonzero coordinate is
    positive."""
    for c in x:
        if c > 0:
            return x
        if c < 0:
            return neg(x)
    raise ValueError("zero octonion has no sign representative")


def quotient_mod_sign(elements=None):
    """The 120-element loop of +-classes of the unit integrals."""
    if elements is None:
        elements = generate_unit_integrals()
    reps = sorted({_sign_canonical(x) for x in elements})
    if len(reps) != 120:
        raise AssertionError("sign quotient has %d classes, expected 120" % len(reps))
    index = {r: i for i, r in enumerate(reps)}
    table = np.array([[index[_sign_canonical(mul(a, b))] for b in reps] for a in reps],
                     dtype=np.int32)
    loop = FiniteLoop(120, labels=[label(r) for r in reps], table=table)
    loop.reps = reps
    return loop


def certify_paige2_iso(quotient=None):
    """Verified isomorphism of the sign quotient with M*(2), plus the check
    that the classes of i, j, h generate the quotient."""
    if quotient is None:
        quotient = quotient_mod_sign()
    index = {r: i for i, r in enumerate(quotient.reps)}
    gen_idx = [index[_sign_canonical(g)] for g in (I_UNIT, J_UNIT, H_UNIT)]
    if len(closure_indices(quotient, gen_idx)) != quotient.n:
        raise AssertionError("i, j, h do not generate the sign quotient")
    witness = find_isomorphism(quotient, paige.paige_loop(2))
    if witness is None:
        raise AssertionError("no isomorphism with M*(2); build falsified")
    return witness
