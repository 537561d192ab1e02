"""Exact arithmetic in prime fields GF(p) and extension fields GF(p^k), on
ints and on arrays of codes, and row reduction (rref, rref_batch) over them.

Field elements are plain ints in ``range(q)`` encoding the residue
polynomial c0 + c1*t + ... + c_{k-1}*t^{k-1} as c0 + c1*p + ... + c_{k-1}*p^{k-1}.
All arithmetic goes through the owning :class:`GF` instance: prime fields
compute mod p, extension fields (at most _TABLE_LIMIT elements) read q x q
lookup tables.  The canonical total order on elements is
lexicographic on the coefficient vector (c0, c1, ...); it is exposed through
:meth:`GF.rank` and coincides with the integer order exactly when k == 1.
"""

from __future__ import annotations

import math
import random

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

_TABLE_LIMIT = 1024  # extension fields build q x q lookup tables up to this size


class UsageError(ValueError):
    """A malformed request, an unknown name or a size past a fixed limit:
    the one cause of the command line's exit status 2."""


# Bytes a single structure may hold.  Fixed rather than read from the
# machine, so every verdict and every refusal is the same everywhere.  It
# lives in this base module, and is read only by budget_rows, blocks and
# require_budget below, at call time: every layer prices its structures
# through them, as a part of the budget (1/64 for working blocks).
MEMORY_BUDGET = 2 ** 27
SAMPLE_SEED = 0x5EED
_IDENTITY_SAMPLE_LIMIT = 512  # exhaustive identity checks up to this size


def budget_rows(row_bytes, part=1 / 64):
    """How many rows of row_bytes each, at least one, fit part of
    MEMORY_BUDGET; a row of no bytes is priced at one byte."""
    return max(1, int(MEMORY_BUDGET * part) // max(row_bytes, 1))


def blocks(total, row_bytes, part=1 / 64, doubling=False, least=1):
    """(start, end) of successive blocks of total rows, each of at most
    budget_rows(row_bytes, part) rows, or least; doubling blocks hold
    1, 2, 4, ... rows up to that cap."""
    cap = max(least, budget_rows(row_bytes, part))
    start, block = 0, 1 if doubling else cap
    while start < total:
        end = min(start + block, total)
        yield start, end
        start, block = end, min(2 * block, cap)


def require_budget(need, what, part=1):
    """Refuse, with UsageError, what (a plural) when its need bytes are
    past part of MEMORY_BUDGET."""
    if need > MEMORY_BUDGET * part:
        share = "" if part == 1 else "%d/%d of " % part.as_integer_ratio()
        raise UsageError("%s take %d bytes, past %sthe %d-byte memory budget"
                         % (what, need, share, MEMORY_BUDGET))


class Sampler:
    """The package's one seeded sampler: the standard library's Mersenne
    Twister (random.Random; Matsumoto and Nishimura, ACM TOMACS 1998), read
    as raw 32-bit words.  integers is exactly uniform, by rejection of the
    words past the largest multiple of high, and refills exactly the
    shortfall in stream order: a draw of a + b values equals a draw of a
    and then a draw of b."""

    def __init__(self, seed):
        if seed < 0:  # random.Random would take |seed|: -5 would alias 5
            raise ValueError("a seed must be non-negative, not %d" % seed)
        self._mt = random.Random(seed)

    def integers(self, high, size=None, dtype=np.int64):
        """Uniform integers in range(high), high <= 2^32: an int, or an
        array of shape size."""
        if not 1 <= high <= 2 ** 32:
            raise ValueError("cannot draw from range(%d)" % high)
        limit = 2 ** 32 // high * high - 1  # in Python ints: 2^32 itself fits no uint32
        out = np.empty(() if size is None else size, dtype=np.uint64)
        flat, filled = out.reshape(-1), 0
        while filled < flat.size:
            words = np.frombuffer(self._mt.randbytes(4 * (flat.size - filled)), dtype="<u4")
            words = words[words <= limit]
            flat[filled:filled + len(words)] = words
            filled += len(words)
        flat %= high
        return int(out) if size is None else out.astype(dtype)

    def choice(self, n, size):
        """size distinct values of range(n)."""
        return np.array(self._mt.sample(range(n), size), dtype=np.int64)


def moufang_mode(n, samples):
    """How loops.moufang_violation checks an n-element loop: "exhaustive"
    up to _IDENTITY_SAMPLE_LIMIT elements, else "sampled:k"."""
    if n <= _IDENTITY_SAMPLE_LIMIT:
        return "exhaustive"
    return "sampled:%d" % samples


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
        if k > 1 and p ** k > _TABLE_LIMIT:
            raise ValueError("extension field of order %d is past the table limit "
                             "of %d elements" % (p ** k, _TABLE_LIMIT))
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = modulus
        # codes, and products of two codes, fit this dtype
        self.dtype = np.int32 if (self.q - 1) ** 2 < 2 ** 31 else np.int64
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
        # digits[i] = coefficient of t^i of every code; rank[x] = position of
        # x in the canonical (coefficient-lex) order, c0 being the most
        # significant lex digit
        digits = [np.arange(q, dtype=np.int64) // p ** i % p for i in range(k)]
        self._rank = sum(d * p ** (k - 1 - i) for i, d in enumerate(digits))
        if k == 1:
            return
        self.ADD = sum(((d[:, None] + d) % p) * p ** i
                       for i, d in enumerate(digits)).astype(np.int32)
        self.NEG = sum(-d % p * p ** i for i, d in enumerate(digits)).astype(np.int32)
        # exp[j] = g^j for the first primitive element g, log its inverse
        for g in range(2, q):
            exp = [1, g]
            while exp[-1] != 1:
                exp.append(self._mul_codes(exp[-1], g))
            if len(exp) == q:
                break
        exp = np.array(exp[:-1], dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        self.MUL = exp[(log[:, None] + log) % (q - 1)].astype(np.int32)
        self.MUL[0, :] = self.MUL[:, 0] = 0
        self.INV = exp[-log % (q - 1)].astype(np.int32)
        self.INV[0] = 0

    # -- scalar operations ------------------------------------------------
    # Prime fields compute mod p; extension fields read their tables.

    def check(self, x):
        if not (0 <= x < self.q):
            raise ValueError("%r is not an element of %r" % (x, self))
        return int(x)

    def add(self, a, b):
        if self.k == 1:
            return (int(a) + int(b)) % self.p
        return int(self.ADD[a, b])

    def neg(self, a):
        if self.k == 1:
            return -int(a) % self.p
        return int(self.NEG[a])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.k == 1:
            return int(a) * int(b) % self.p
        return int(self.MUL[a, b])

    def inv(self, a):
        """Multiplicative inverse; raises ZeroDivisionError on 0."""
        if a == 0:
            raise ZeroDivisionError("division by zero in %r" % (self,))
        if self.k == 1:
            return pow(int(a), self.p - 2, self.p)
        return int(self.INV[a])

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

    # -- array operations on codes ----------------------------------------
    # Prime fields reduce mod p in self.dtype; extension fields gather from
    # the lookup tables, and add by XOR in characteristic 2.  Results are
    # self.dtype arrays.

    def _reduce(self, X):
        """X mod p, in place on an array of a prime field's dtype."""
        X %= self.p
        return X

    def vadd(self, A, B):
        if self.k == 1:
            return self._reduce(np.add(A, B, dtype=self.dtype))
        if self.p == 2:
            return np.bitwise_xor(A, B, dtype=self.dtype)
        return self.ADD[A, B]

    def vneg(self, A):
        if self.k == 1:
            return self._reduce(np.negative(A, dtype=self.dtype))
        return self.NEG[A]

    def vsub(self, A, B):
        if self.k == 1:
            return self._reduce(np.subtract(A, B, dtype=self.dtype))
        return self.vadd(A, self.vneg(B))

    def vmul(self, A, B):
        if self.k == 1:
            return self._reduce(np.multiply(A, B, dtype=self.dtype))
        return self.MUL[A, B]

    def vpow(self, A, n):
        """A^n by repeated squaring, n >= 0."""
        out, base = np.ones_like(A, dtype=self.dtype), np.asarray(A, dtype=self.dtype)
        while n:
            if n & 1:
                out = self.vmul(out, base)
            base = self.vmul(base, base)
            n >>= 1
        return out

    def vinv(self, A):
        """Inverses of nonzero codes (a zero gives 0): A^(p-2) in a prime
        field, the identity in GF(2), the INV table otherwise."""
        if self.k > 1:
            return self.INV[A]
        if self.p == 2:
            return np.asarray(A, dtype=self.dtype)
        return self.vpow(A, self.p - 2)

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


PRIME_POWER_LIMIT = 2 ** 40  # trial division then takes at most 2^20 steps


def prime_power(q):
    """(p, k) with q = p^k, by trial division and without building a field,
    so a size refusal read from q can come after it; UsageError for any
    other q, and for q past PRIME_POWER_LIMIT before any division."""
    if q > PRIME_POWER_LIMIT:
        raise UsageError("q = %d is past the prime power limit of %d"
                         % (q, PRIME_POWER_LIMIT))
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


def rref(field, rows):
    """Reduced row echelon form over field, with the pivot rule of
    rref_batch: (nonzero rows, pivot column list, det), det being the
    determinant of a square input (0 when it is singular) and None
    otherwise."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots, det = [], field.one
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if not field.is_zero(m[i][col])),
                   None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            det = field.neg(det)
        det = field.mul(det, m[r][col])
        inv = field.inv(m[r][col])
        m[r] = [field.mul(inv, v) for v in m[r]]
        for i in range(len(m)):
            if i != r and not field.is_zero(m[i][col]):
                f = m[i][col]
                m[i] = [field.sub(v, field.mul(f, w)) for v, w in zip(m[i], m[r])]
        pivots.append(col)
    if len(m) != ncols:
        det = None
    elif len(pivots) < ncols:
        det = field.zero
    return m[:len(pivots)], pivots, det


def rref_batch(field, M):
    """Gauss-Jordan reduction of every matrix of an (N, r, c) stack of codes,
    with the pivot rule of rref: (R, pivots, det).

    R holds the reduced matrices with their pivot rows left unscaled, so
    row i of a matrix divided by its entry in the i-th pivot column is row
    i of rref; pivots is the (N, c) mask of pivot columns; det is the (N,)
    determinants of a square stack (0 on the singular matrices), None
    otherwise.  Prime fields whose squares fit work in int32."""
    # the stack index runs last, so each operation runs over N contiguous
    # entries rather than over the few columns of one matrix
    A = np.array(np.moveaxis(M, 0, -1), dtype=field.dtype)
    n, ncols, N = A.shape
    at, rows = np.arange(N), np.arange(n)[:, None]
    pivots = np.zeros((ncols, N), dtype=bool)
    rank = np.zeros(N, dtype=np.int64)
    det = np.full(N, field.one, dtype=field.dtype)
    for c in range(ncols):
        below = (A[:, c] != 0) & (rows >= rank)
        has = below.any(axis=0)
        r = np.minimum(rank, n - 1)  # a matrix without a pivot keeps its rows
        piv = np.where(has, below.argmax(axis=0), r)
        s = np.flatnonzero(piv != r)
        A[piv[s], :, s], A[r[s], :, s] = A[r[s], :, s], A[piv[s], :, s]
        det[s] = field.vneg(det[s])
        top = A[r, :, at].T  # the pivot rows, (ncols, N)
        lead = np.where(has, top[c], field.one)
        det = field.vmul(det, lead)
        f = field.vmul(A[:, c], np.where(has, field.vinv(lead), 0))
        f[r, at] = 0
        if field.k == 1:  # one reduction per entry
            A[:, c:] -= f[:, None] * top[None, c:]
            field._reduce(A[:, c:])
        else:
            A[:, c:] = field.vsub(A[:, c:], field.vmul(f[:, None], top[None, c:]))
        pivots[c] = has
        rank += has
    det = np.where(rank == n, det, 0) if n == ncols else None
    return np.moveaxis(A, -1, 0), pivots.T, det
