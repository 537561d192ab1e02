"""Composition algebras: the Zorn vector-matrix split octonions over a field,
the generic Cayley-Dickson doubling construction, and an explicit
decomposition of an arbitrary element into a sum of two norm-one elements.

A Zorn matrix [a|alpha|beta|b] has scalar corners a, b and 3-vector
off-diagonal entries alpha, beta.  The norm is the "determinant"
ab - alpha.beta and multiplication mixes dot and cross products.  The
coordinate order used everywhere downstream is
(x0..x7) = (a, alpha1, alpha2, alpha3, beta1, beta2, beta3, b).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import UsageError, rref


class Rationals:
    """The exact rational field, duck-typed like a GF instance."""

    p = 0
    q = 0
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        if a == 0:
            raise ZeroDivisionError("division by zero")
        return 1 / a

    @staticmethod
    def is_zero(a):
        return a == 0

    @staticmethod
    def from_int(n):
        return Fraction(n)

    @staticmethod
    def rank(a):
        return a

    @staticmethod
    def format_element(a):
        return str(a)

    @staticmethod
    def parse_element(s):
        return Fraction(s)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")


QQ = Rationals()


def dot3(field, u, v):
    s = field.zero
    for ui, vi in zip(u, v):
        s = field.add(s, field.mul(ui, vi))
    return s


def cross3(field, u, v):
    m, s = field.mul, field.sub
    return (s(m(u[1], v[2]), m(u[2], v[1])),
            s(m(u[2], v[0]), m(u[0], v[2])),
            s(m(u[0], v[1]), m(u[1], v[0])))


def _vadd(field, u, v):
    return tuple(field.add(a, b) for a, b in zip(u, v))


def _vsub(field, u, v):
    return tuple(field.sub(a, b) for a, b in zip(u, v))


def _vneg(field, u):
    return tuple(field.neg(a) for a in u)


@dataclass(frozen=True)
class ZornMatrix:
    """Split octonion [a|alpha|beta|b] over a common scalar field."""

    field: object
    a: object
    alpha: tuple
    beta: tuple
    b: object

    def _same(self, other):
        if self.field != other.field:
            raise ValueError("mismatched scalar domains: %r vs %r"
                             % (self.field, other.field))

    def __mul__(self, other):
        self._same(other)
        F = self.field
        a, alpha, beta, b = self.a, self.alpha, self.beta, self.b
        c, gamma, delta, d = other.a, other.alpha, other.beta, other.b
        top = F.add(F.mul(a, c), dot3(F, alpha, delta))
        upper = _vsub(F, _vadd(F, tuple(F.mul(a, g) for g in gamma),
                               tuple(F.mul(d, g) for g in alpha)),
                      cross3(F, beta, delta))
        lower = _vadd(F, _vadd(F, tuple(F.mul(c, g) for g in beta),
                               tuple(F.mul(b, g) for g in delta)),
                      cross3(F, alpha, gamma))
        bottom = F.add(dot3(F, beta, gamma), F.mul(b, d))
        return ZornMatrix(F, top, upper, lower, bottom)

    def __add__(self, other):
        self._same(other)
        F = self.field
        return ZornMatrix(F, F.add(self.a, other.a),
                          _vadd(F, self.alpha, other.alpha),
                          _vadd(F, self.beta, other.beta),
                          F.add(self.b, other.b))

    def __sub__(self, other):
        self._same(other)
        F = self.field
        return ZornMatrix(F, F.sub(self.a, other.a),
                          _vsub(F, self.alpha, other.alpha),
                          _vsub(F, self.beta, other.beta),
                          F.sub(self.b, other.b))

    def __neg__(self):
        F = self.field
        return ZornMatrix(F, F.neg(self.a), _vneg(F, self.alpha),
                          _vneg(F, self.beta), F.neg(self.b))

    def scalar_mul(self, lam):
        F = self.field
        return ZornMatrix(F, F.mul(lam, self.a),
                          tuple(F.mul(lam, g) for g in self.alpha),
                          tuple(F.mul(lam, g) for g in self.beta),
                          F.mul(lam, self.b))

    def conjugate(self):
        """[a|alpha|beta|b] -> [b|-alpha|-beta|a]."""
        F = self.field
        return ZornMatrix(F, self.b, _vneg(F, self.alpha), _vneg(F, self.beta), self.a)

    def det(self):
        """The norm ab - alpha.beta."""
        F = self.field
        return F.sub(F.mul(self.a, self.b), dot3(F, self.alpha, self.beta))

    def inverse(self):
        F = self.field
        n = self.det()
        return self.conjugate().scalar_mul(F.inv(n))

    def coords(self):
        """(x0..x7) = (a, alpha, beta, b)."""
        return (self.a,) + self.alpha + self.beta + (self.b,)

    def is_zero(self):
        F = self.field
        return all(F.is_zero(c) for c in self.coords())

    def text(self):
        F = self.field
        f = F.format_element
        return "[%s|%s|%s|%s]" % (f(self.a),
                                  ",".join(f(c) for c in self.alpha),
                                  ",".join(f(c) for c in self.beta),
                                  f(self.b))

    @classmethod
    def parse(cls, field, s):
        """Read [a|a1,a2,a3|b1,b2,b3|b]; malformed text raises UsageError."""
        body = s.strip()
        parts = body[1:-1].split("|")
        if body.startswith("[") and body.endswith("]") and len(parts) == 4:
            pe = field.parse_element
            try:
                alpha = tuple(pe(c) for c in parts[1].split(","))
                beta = tuple(pe(c) for c in parts[2].split(","))
                if len(alpha) == 3 and len(beta) == 3:
                    return cls(field, pe(parts[0]), alpha, beta, pe(parts[3]))
            except ValueError:
                pass
        raise UsageError("bad Zorn matrix text %r" % (s,))

    @classmethod
    def from_coords(cls, field, c):
        c = tuple(c)
        return cls(field, c[0], c[1:4], c[4:7], c[7])

    @classmethod
    def unit(cls, field):
        z, o = field.zero, field.one
        return cls(field, o, (z, z, z), (z, z, z), o)

    @classmethod
    def zero_elem(cls, field):
        z = field.zero
        return cls(field, z, (z, z, z), (z, z, z), z)


def zorn_mul(x, y):
    return x * y


def zorn_norm(x):
    return x.det()


def conjugate(x):
    return x.conjugate()


def bilinear(x, y):
    """<x,y> evaluated through the Gram matrix J of the norm form.

    In coordinates this is x7 y0 - x4 y1 - x5 y2 - x6 y3 - x1 y4 - x2 y5
    - x3 y6 + x0 y7; the polarization route (x+y)N - xN - yN gives the
    same value and is kept in the tests as the independent check.
    """
    x._same(y)
    F = x.field
    xc, yc = x.coords(), y.coords()
    s = F.add(F.mul(xc[7], yc[0]), F.mul(xc[0], yc[7]))
    for i in (1, 2, 3):
        s = F.sub(s, F.mul(xc[i + 3], yc[i]))
        s = F.sub(s, F.mul(xc[i], yc[i + 3]))
    return s


def bilinear_polarization(x, y):
    F = x.field
    return F.sub(F.sub((x + y).det(), x.det()), y.det())


# ---------------------------------------------------------------------------
# Cayley-Dickson doubling


class CDAlgebra:
    """Algebra produced by iterating the doubling construction.

    Elements are flat tuples of scalars.  The flags about commutativity
    and associativity record what the dimension forces; they are not
    enforced on the data.
    """

    def __init__(self, field, dim, mul, conj, norm, commutative, associative):
        self.field = field
        self.dim = dim
        self._mul = mul
        self._conj = conj
        self._norm = norm
        self.assumed_commutative = commutative
        self.assumed_associative = associative
        z, o = field.zero, field.one
        self.zero = tuple([z] * dim)
        self.one = tuple([o] + [z] * (dim - 1))

    def mul(self, x, y):
        return self._mul(x, y)

    def conj(self, x):
        return self._conj(x)

    def norm(self, x):
        return self._norm(x)

    def add(self, x, y):
        F = self.field
        return tuple(F.add(a, b) for a, b in zip(x, y))

    def sub(self, x, y):
        F = self.field
        return tuple(F.sub(a, b) for a, b in zip(x, y))

    def neg(self, x):
        F = self.field
        return tuple(F.neg(a) for a in x)

    def scalar_mul(self, lam, x):
        F = self.field
        return tuple(F.mul(lam, a) for a in x)

    def elements(self):
        """All elements, for exhaustive checks over small fields."""
        F = self.field
        if not hasattr(F, "q") or F.q == 0:
            raise ValueError("element enumeration needs a finite field")
        out = [()]
        for _ in range(self.dim):
            out = [e + (c,) for e in out for c in range(F.q)]
        return out


def scalar_algebra(field):
    """The field itself as a 1-dimensional composition algebra, N(x) = x^2."""
    return CDAlgebra(field, 1,
                     mul=lambda x, y: (field.mul(x[0], y[0]),),
                     conj=lambda x: x,
                     norm=lambda x: field.mul(x[0], x[0]),
                     commutative=True, associative=True)


def cd_double(base, lam):
    """Double a composition algebra: (x,y)(u,v) = (xu + lam v~ y, vx + y u~),
    with norm (x,y)N = xN - lam yN."""
    F = base.field
    if F.is_zero(lam):
        raise ValueError("doubling parameter must be nonzero")
    if base.dim >= 8:
        raise ValueError("doubling beyond dimension 8 is out of scope")
    d = base.dim

    def mul(xy, uv):
        x, y = xy[:d], xy[d:]
        u, v = uv[:d], uv[d:]
        left = base.add(base.mul(x, u),
                        base.scalar_mul(lam, base.mul(base.conj(v), y)))
        right = base.add(base.mul(v, x), base.mul(y, base.conj(u)))
        return left + right

    def conj(xy):
        x, y = xy[:d], xy[d:]
        # conjugate of (x,y) is (x~, -y)
        return base.conj(x) + base.neg(y)

    def norm(xy):
        x, y = xy[:d], xy[d:]
        return F.sub(base.norm(x), F.mul(lam, base.norm(y)))

    return CDAlgebra(F, 2 * d, mul, conj, norm,
                     commutative=base.assumed_commutative and d == 1,
                     associative=base.assumed_commutative and base.assumed_associative)


# ---------------------------------------------------------------------------
# Sum of two norm-one elements


def _solve_single_dot(field, beta, target):
    """Canonically smallest gamma with gamma.beta = target: solve on the
    first nonzero coordinate of beta, zeros elsewhere."""
    for i, bi in enumerate(beta):
        if not field.is_zero(bi):
            g = [field.zero] * 3
            g[i] = field.mul(target, field.inv(bi))
            return tuple(g)
    raise ValueError("beta must be nonzero")


def _nullspace_first(field, rows):
    """First vector of the reduced echelon basis of {v : rows . v = 0} in F^3."""
    F = field
    m, pivots = rref(F, rows)
    free = [c for c in range(3) if c not in pivots]
    if not free:
        raise ValueError("null space is trivial")
    j = free[0]
    vec = [F.zero] * 3
    vec[j] = F.one
    for row, pc in zip(m, pivots):
        vec[pc] = F.neg(row[j])
    return tuple(vec)


def decompose_sum_two_units(x):
    """Split x into u + v with det(u) = det(v) = 1, by a three-way case
    analysis on the vector parts.

    Case beta != 0: pick gamma with gamma.beta = a + b - ab + alpha.beta,
    then delta orthogonal to both gamma and alpha; u = [1|gamma|delta|1].
    Case alpha != 0 (beta = 0): same with the roles of the two vector slots
    swapped.  Case alpha = beta = 0: the explicit split with e1 slots.
    The reference for paige.decompose_batch, which runs the same cases on
    whole arrays.
    """
    F = x.field
    a, alpha, beta, b = x.a, x.alpha, x.beta, x.b
    zero3 = (F.zero,) * 3

    if any(not F.is_zero(c) for c in beta):
        target = F.add(F.sub(F.add(a, b), F.mul(a, b)), dot3(F, alpha, beta))
        gamma = _solve_single_dot(F, beta, target)
        delta = _nullspace_first(F, [gamma, alpha])
        u = ZornMatrix(F, F.one, gamma, delta, F.one)
        return u, x - u

    if any(not F.is_zero(c) for c in alpha):
        flipped = ZornMatrix(F, a, beta, alpha, b)
        u1, v1 = decompose_sum_two_units(flipped)
        u = ZornMatrix(F, u1.a, u1.beta, u1.alpha, u1.b)
        return u, x - u

    one, mone = F.one, F.neg(F.one)
    u = ZornMatrix(F, a, (one, F.zero, F.zero), (mone, F.zero, F.zero), F.zero)
    v = ZornMatrix(F, F.zero, (mone, F.zero, F.zero), (one, F.zero, F.zero), b)
    assert (u + v).coords() == x.coords()
    return u, v
