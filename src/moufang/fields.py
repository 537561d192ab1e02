"""Exact scalar arithmetic: prime fields GF(p) and extension fields GF(p^k).

Field elements are plain ints in ``range(q)`` encoding the residue
polynomial c0 + c1*t + ... + c_{k-1}*t^{k-1} as c0 + c1*p + ... + c_{k-1}*p^{k-1}.
All arithmetic goes through the owning :class:`GF` instance, which keeps
lookup tables for small fields.  The canonical total order on elements is
lexicographic on the coefficient vector (c0, c1, ...); it is exposed through
:meth:`GF.rank` and coincides with the integer order exactly when k == 1.
"""

from __future__ import annotations

import math

import numpy as np

# Fixed moduli for the extension fields with q <= 32, coefficient lists
# constant-term first including the leading 1.  Any fixed choice works; these
# are pinned so element encodings never change between runs.
BUILTIN_MODULI = {
    (2, 2): (1, 1, 1),           # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),        # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),     # x^4 + x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),  # x^5 + x^2 + 1
    (3, 2): (1, 0, 1),           # x^2 + 1
    (3, 3): (1, 2, 0, 1),        # x^3 + 2x + 1
    (5, 2): (2, 0, 1),           # x^2 + 2
}

_TABLE_LIMIT = 1024  # build q x q lookup tables up to this size


class UsageError(ValueError):
    """A malformed request, an unknown name or a size past a fixed limit:
    the one cause of the command line's exit status 2."""


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_divmod(a, b, p):
    rem = _poly_trim(a)
    b = _poly_trim(b)
    db = len(b) - 1
    lb_inv = pow(b[-1], p - 2, p)
    quot = [0] * max(0, len(rem) - db)
    while rem and len(rem) - 1 >= db:
        shift = len(rem) - 1 - db
        factor = (rem[-1] * lb_inv) % p
        quot[shift] = factor
        for i, bi in enumerate(b):
            rem[shift + i] = (rem[shift + i] - factor * bi) % p
        rem = _poly_trim(rem)
    return quot, rem


def _poly_mod(a, m, p):
    _, r = _poly_divmod(_poly_trim(a), m, p)
    return r


def _is_irreducible(modulus, p):
    """Trial division by every monic polynomial of degree <= deg/2."""
    m = _poly_trim(modulus)
    k = len(m) - 1
    if k < 1 or m[-1] != 1:
        return False
    if k == 1:
        return True
    for deg in range(1, k // 2 + 1):
        for code in range(p ** deg):
            div = []
            c = code
            for _ in range(deg):
                div.append(c % p)
                c //= p
            div.append(1)  # monic
            _, rem = _poly_divmod(m, div, p)
            if not rem:
                return False
    return True


class GF:
    """The field GF(p^k) acting on int-coded elements.

    Use :func:`field_make` to construct one; the constructor validates the
    modulus and so is safe to call directly as well.
    """

    def __init__(self, p, k=1, modulus=None):
        if not is_prime(p):
            raise ValueError("characteristic %r is not prime" % (p,))
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        if modulus is None:
            if k == 1:
                modulus = (0, 1)
            elif (p, k) in BUILTIN_MODULI:
                modulus = BUILTIN_MODULI[(p, k)]
            else:
                raise ValueError("no built-in modulus for GF(%d^%d); supply one" % (p, k))
        modulus = tuple(c % p for c in modulus)
        if len(_poly_trim(modulus)) - 1 != k:
            raise ValueError("modulus must have degree %d" % k)
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        if not _is_irreducible(modulus, p):
            raise ValueError("modulus %r is reducible over GF(%d)" % (modulus, p))
        if p ** k > 10 ** 6:
            raise ValueError("field of order %d is beyond the intended desk scale" % (p ** k,))
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = modulus
        self._build_tables()

    # -- construction of the lookup tables -------------------------------

    def _coeffs_of(self, x):
        c = []
        for _ in range(self.k):
            c.append(x % self.p)
            x //= self.p
        return c

    def _code_of(self, coeffs):
        x = 0
        for c in reversed(coeffs):
            x = x * self.p + (c % self.p)
        return x

    def _mul_codes(self, a, b):
        prod = _poly_mul(self._coeffs_of(a), self._coeffs_of(b), self.p)
        return self._code_of(_poly_mod(prod, list(self.modulus), self.p) + [0] * self.k)

    def _build_tables(self):
        q, p, k = self.q, self.p, self.k
        self._has_tables = q <= _TABLE_LIMIT
        # rank[x] = position of x in the canonical (coefficient-lex) order
        ranks = np.empty(q, dtype=np.int64)
        for x in range(q):
            c = self._coeffs_of(x)
            r = 0
            for ci in c:  # c0 is the most significant lex digit
                r = r * p + ci
            ranks[x] = r
        self._rank = ranks
        if not self._has_tables:
            return
        if k == 1:
            idx = np.arange(q, dtype=np.int64)
            self.ADD = (idx[:, None] + idx[None, :]) % p
            self.MUL = (idx[:, None] * idx[None, :]) % p
            self.NEG = (-idx) % p
        else:
            add = np.empty((q, q), dtype=np.int64)
            for a in range(q):
                ca = self._coeffs_of(a)
                for b in range(q):
                    cb = self._coeffs_of(b)
                    add[a, b] = self._code_of([(x + y) % p for x, y in zip(ca, cb)])
            self.ADD = add
            mul = np.empty((q, q), dtype=np.int64)
            for a in range(q):
                for b in range(a, q):
                    mul[a, b] = mul[b, a] = self._mul_codes(a, b)
            self.MUL = mul
            neg = np.empty(q, dtype=np.int64)
            for a in range(q):
                neg[a] = self._code_of([(-c) % p for c in self._coeffs_of(a)])
            self.NEG = neg
        inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            inv[a] = self.pow_(a, q - 2)
        self.INV = inv

    # -- scalar operations ------------------------------------------------

    def check(self, x):
        if not (0 <= x < self.q):
            raise ValueError("%r is not an element of %r" % (x, self))
        return int(x)

    def add(self, a, b):
        if self._has_tables:
            return int(self.ADD[a, b])
        return self._code_of([(x + y) % self.p for x, y in
                              zip(self._coeffs_of(a), self._coeffs_of(b))])

    def neg(self, a):
        if self._has_tables:
            return int(self.NEG[a])
        return self._code_of([(-c) % self.p for c in self._coeffs_of(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self._has_tables:
            return int(self.MUL[a, b])
        return self._mul_codes(a, b)

    def inv(self, a):
        """Multiplicative inverse; raises ZeroDivisionError on 0."""
        if a == 0:
            raise ZeroDivisionError("division by zero in %r" % (self,))
        if self._has_tables:
            return int(self.INV[a])
        return self.pow_(a, self.q - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow_(self, a, n):
        if n < 0:
            a, n = self.inv(a), -n
        r, base = self.one, a
        while n:
            if n & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            n >>= 1
        return r

    def frobenius(self, a):
        """The map x -> x^p."""
        return self.pow_(a, self.p)

    zero = 0
    one = 1

    def is_zero(self, a):
        return a == 0

    def from_int(self, n):
        """Embed an integer via the prime subfield."""
        return n % self.p

    def is_square(self, x):
        """Whether x is a square; x = 0 has no square class and raises."""
        if x == 0:
            raise ValueError("square class of zero is undefined")
        if self.p == 2:
            return True
        return self.pow_(x, (self.q - 1) // 2) == self.one

    def element_order(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative order")
        n, x = 1, a
        while x != self.one:
            x = self.mul(x, a)
            n += 1
        return n

    # -- canonical order and formatting -----------------------------------

    def rank(self, x):
        """Position of x in the canonical coefficient-lex order."""
        return int(self._rank[x])

    def elements(self):
        """All elements in canonical order."""
        return sorted(range(self.q), key=self.rank)

    def coeffs(self, x):
        return tuple(self._coeffs_of(x))

    def from_coeffs(self, coeffs):
        return self._code_of(list(coeffs) + [0] * self.k)

    def format_element(self, x):
        return str(self.check(x))

    def parse_element(self, s):
        return self.check(int(s))

    def __eq__(self, other):
        return (isinstance(other, GF)
                and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus))

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return "GF(%d)" % self.q
        return "GF(%d=%d^%d)" % (self.q, self.p, self.k)


def field_make(p, k=1, modulus=None):
    """Build a field spec; validates primality and irreducibility."""
    return GF(p, k, modulus)


def prime_power(q):
    """(p, k) with q = p^k, by trial division and without building a field,
    so a size refusal read from q can come after it; UsageError for any
    other q."""
    if q >= 2:
        # the least divisor is prime
        p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
        k, t = 0, q
        while t % p == 0:
            t //= p
            k += 1
        if t == 1:
            return p, k
    raise UsageError("%r is not a prime power" % (q,))


def field_of_order(q):
    """GF(q) with the builtin modulus; UsageError for any other q."""
    p, k = prime_power(q)
    try:
        return field_make(p, k)
    except ValueError as e:
        raise UsageError(str(e)) from None


def parse_field_spec(text):
    """Parse the CLI field syntax gf(q) or gf(p,k,c0..ck).

    The explicit form lists the k+1 modulus coefficients constant term
    first, separated by dots, e.g. gf(2,2,1.1.1) for GF(4) mod x^2+x+1.
    """
    s = text.strip().lower()
    parts = [t.strip() for t in s[3:-1].split(",")]
    if s.startswith("gf(") and s.endswith(")") and len(parts) in (1, 3):
        try:
            if len(parts) == 1:
                return field_of_order(int(parts[0]))
            p, k = int(parts[0]), int(parts[1])
            return field_make(p, k, tuple(int(c) for c in parts[2].split(".")))
        except ValueError as e:
            raise UsageError("bad field spec %r: %s" % (text, e)) from None
    raise UsageError("bad field spec %r; expected gf(q) or gf(p,k,c0..ck)" % (text,))


def primitive_element(field):
    """Smallest (canonical order) element of multiplicative order q-1.

    GF(2) has no useful generator and raises, forcing callers to use the
    dedicated q=2 generator set.
    """
    if field.q == 2:
        raise ValueError("GF(2) admits no primitive element of order > 1")
    for x in field.elements():
        if x == 0:
            continue
        if field.element_order(x) == field.q - 1:
            return x
    raise AssertionError("no primitive element found; field tables corrupt")


def inv(field, x):
    return field.inv(x)


def is_square(field, x):
    return field.is_square(x)


def rref(field, rows):
    """Reduced row echelon form over field; returns (nonzero rows, pivot
    column list)."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if not field.is_zero(m[i][col]):
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = field.inv(m[r][col])
        m[r] = [field.mul(inv, v) for v in m[r]]
        for i in range(len(m)):
            if i != r and not field.is_zero(m[i][col]):
                f = m[i][col]
                m[i] = [field.sub(v, field.mul(f, w)) for v, w in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    return m[:r], pivots
