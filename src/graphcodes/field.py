"""Finite fields GF(p) and GF(2^m) with log/antilog table arithmetic.

Field elements are plain ints in [0, q).  Prime-field elements are residues
mod p; GF(2^m) elements encode polynomials over GF(2) by their coefficient
bits (bit i = coefficient of x^i), reduced modulo the field's reduction
polynomial.

Construction is deterministic so that every matrix built on top of a field is
reproducible: the primitive element is the smallest element (by integer
encoding) that generates the multiplicative group, and for m > 1 the
reduction polynomial is the smallest irreducible of degree m (by integer
encoding of its coefficient bits).
"""

from __future__ import annotations

import operator

MAX_ORDER = 1 << 16


def is_prime(n: int) -> bool:
    """Trial-division primality check (orders here never exceed 2^16)."""
    if n < 2:
        return False
    for f in (2, 3):
        if n % f == 0:
            return n == f
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def smallest_prime_at_least(n: int) -> int:
    p = max(n, 2)
    while not is_prime(p):
        p += 1
    return p


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# Python's int type alone: values whose set of types lies within it hold no
# bool or float, which compare equal to ints (True == 1, 1.0 == 1), so a test
# by value such as set(row) <= {0, 1}, or a cache keyed by equality, is exact
_INT = frozenset((int,))


def _as_int(v):
    """v as an int if it is a Python or numpy integer other than a bool, else None."""
    try:
        return None if isinstance(v, bool) else operator.index(v)
    except TypeError:
        return None


def _gf2_mul_mod(a: int, b: int, mod: int, deg: int) -> int:
    """Carry-less product of bit-encoded GF(2) polynomials, reduced mod `mod`."""
    top = 1 << deg
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= mod
    return r


def _gf2_rem(a: int, b: int) -> int:
    """Remainder of bit-encoded GF(2) polynomial division."""
    db = b.bit_length() - 1
    while a and a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def gf2_irreducible(f: int, m: int) -> bool:
    """True iff f (bit-encoded, degree m) has no factor of degree 1..m//2."""
    for d in range(1, m // 2 + 1):
        for g in range(1 << d, 1 << (d + 1)):
            if _gf2_rem(f, g) == 0:
                return False
    return True


def smallest_irreducible_gf2(m: int) -> int:
    """Smallest bit-encoded irreducible polynomial of degree m over GF(2)."""
    for f in range(1 << m, 1 << (m + 1)):
        if gf2_irreducible(f, m):
            return f
    raise AssertionError("no irreducible of degree %d" % m)


def _bits_from_coeffs(coeffs, m: int) -> int:
    """Coefficients, ascending, as a bit-encoded polynomial.  Each must be a
    Python or numpy integer 0 or 1: a bool, a float or a string raises
    ValueError."""
    if len(coeffs) != m + 1:
        raise ValueError("reduction polynomial must have degree exactly %d" % m)
    coeffs = [_as_int(c) for c in coeffs]
    if any(c not in (0, 1) for c in coeffs):
        raise ValueError("reduction polynomial coefficients must be 0/1")
    if coeffs[-1] != 1:
        raise ValueError("reduction polynomial must be monic")
    return sum(c << i for i, c in enumerate(coeffs))


class GF:
    """Arithmetic context for GF(p^m), q = p^m <= 2^16.

    Supports prime fields (m == 1) and binary extension fields (p == 2,
    m > 1).  Multiplication, division, inversion and powers go through
    log/antilog tables; the context is immutable after construction and all
    operations are pure.
    """

    def __init__(self, p: int, m: int = 1, alpha: int | None = None,
                 reduction_poly=None):
        # Python ints, whatever integer type they came in, so to_dict stays
        # JSON-writable; a bool, a float or a string is refused
        if _as_int(p) is None or not is_prime(p):
            raise ValueError("p must be a prime integer, got %r" % (p,))
        if _as_int(m) is None or m < 1:
            raise ValueError("extension degree must be an integer >= 1, got %r" % (m,))
        p, m = int(p), int(m)
        if m > 1 and p != 2:
            raise ValueError("extension fields are supported for p = 2 only")
        q = p ** m
        if q > MAX_ORDER:
            raise ValueError("field order %d exceeds %d" % (q, MAX_ORDER))
        self.p = p
        self.m = m
        self.q = q
        self._char2 = p == 2

        if m == 1:
            if reduction_poly is not None:
                raise ValueError("reduction polynomial applies only when m > 1")
            self._red = None
        elif reduction_poly is None:
            self._red = smallest_irreducible_gf2(m)
        else:
            self._red = _bits_from_coeffs(list(reduction_poly), m)
            if not gf2_irreducible(self._red, m):
                raise ValueError("reduction polynomial is not irreducible")

        if alpha is None:
            self.alpha = self._find_generator()
        else:
            if _as_int(alpha) is None or not 0 <= alpha < q or not self._generates(int(alpha)):
                raise ValueError("%r is not a primitive element of GF(%d)" % (alpha, q))
            self.alpha = int(alpha)

        self._build_tables()

    # -- construction helpers ------------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        return _gf2_mul_mod(a, b, self._red, self.m)

    def _raw_pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._raw_mul(r, a)
            a = self._raw_mul(a, a)
            e >>= 1
        return r

    def _generates(self, g: int) -> bool:
        if g == 0:
            return False
        n = self.q - 1
        return all(self._raw_pow(g, n // f) != 1 for f in _prime_factors(n))

    def _find_generator(self) -> int:
        for g in range(1, self.q):
            if self._generates(g):
                return g
        raise AssertionError("multiplicative group of GF(%d) has no generator" % self.q)

    def _build_tables(self):
        n = self.q - 1
        exp = [0] * (2 * n)
        log = [-1] * self.q
        v = 1
        for i in range(n):
            exp[i] = v
            log[v] = i
            v = self._raw_mul(v, self.alpha)
        if v != 1:
            raise AssertionError("antilog table does not close after q-1 steps")
        exp[n:] = exp[:n]
        self._exp = exp
        self._log = log

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self._char2:
            return a ^ b
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        if self._char2:
            return a ^ b
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        if self._char2:
            return a
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self._exp[self.q - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroDivisionError("negative power of zero field element")
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    # -- introspection / serialization ---------------------------------------

    @property
    def reduction_poly(self):
        """Reduction polynomial coefficients (ascending), or None when m == 1."""
        if self._red is None:
            return None
        return [(self._red >> i) & 1 for i in range(self.m + 1)]

    @property
    def log_table(self):
        """log[x] for the q-1 nonzero elements, indexed by element value - 1."""
        return tuple(self._log[1:])

    @property
    def antilog_table(self):
        """alpha^i for i in [0, q-1)."""
        return self.antilogs(self.q - 1)

    def antilogs(self, count: int) -> tuple:
        """alpha^i for i in [0, count), count <= q - 1: reads only those entries."""
        return tuple(self._exp[:count])

    def to_dict(self) -> dict:
        return {"p": self.p, "m": self.m, "poly": self.reduction_poly,
                "alpha": self.alpha}

    @classmethod
    def from_dict(cls, d: dict) -> "GF":
        return cls(d["p"], d["m"], alpha=d["alpha"], reduction_poly=d.get("poly"))

    def __eq__(self, other):
        return (isinstance(other, GF)
                and (self.p, self.m, self.alpha, self._red)
                == (other.p, other.m, other.alpha, other._red))

    def __hash__(self):
        return hash((self.p, self.m, self.alpha, self._red))

    def __repr__(self):
        if self.m == 1:
            return "GF(%d)" % self.p
        return "GF(%d^%d)" % (self.p, self.m)
