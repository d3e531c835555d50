"""Reed-Solomon codes in the evaluation view.

A codeword is the vector of evaluations of a message polynomial of degree
less than k at n distinct field elements (the defining set).  One decoder,
Gao's interpolate / partial extended Euclid / divide algorithm, corrects
errors and erasures together: e errors and f erasures whenever
2e + f <= n - k, in O(n^2) field operations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DecodingError
from .field import GF
from .polys import (poly_deg, poly_divmod, poly_eval, poly_from_roots,
                    poly_interpolate, poly_mul, poly_sub)


@dataclass(frozen=True)
class RSCode:
    """[n, k] code over gf with evaluation points ``nodes``."""

    gf: GF
    nodes: tuple[int, ...]
    k: int

    def __post_init__(self):
        n = len(self.nodes)
        if n == 0 or n > self.gf.q:
            raise ValueError("need 1 <= n <= q, got n=%d, q=%d" % (n, self.gf.q))
        if any(not 0 <= x < self.gf.q for x in self.nodes):
            raise ValueError("defining set contains values outside the field")
        if len(set(self.nodes)) != n:
            raise ValueError("defining set elements must be distinct")
        if not 1 <= self.k <= n:
            raise ValueError("need 1 <= k <= n, got k=%d, n=%d" % (self.k, n))

    @property
    def n(self) -> int:
        return len(self.nodes)


def default_defining_set(gf: GF, n: int) -> tuple[int, ...]:
    """{0, 1, alpha, alpha^2, ...} truncated to n elements."""
    if n > gf.q:
        raise ValueError("cannot pick %d distinct nodes in GF(%d)" % (n, gf.q))
    pts = [0]
    v = 1
    while len(pts) < n:
        pts.append(v)
        v = gf.mul(v, gf.alpha)
    return tuple(pts)


def generator_matrix(code: RSCode):
    """k x n Vandermonde matrix, row r = nodes elementwise to the power r."""
    gf = code.gf
    return [[gf.pow(x, r) for x in code.nodes] for r in range(code.k)]


def encode(code: RSCode, message) -> list:
    """Evaluate the message polynomial (coefficients, ascending) at all nodes."""
    if len(message) != code.k:
        raise ValueError("message length %d != k=%d" % (len(message), code.k))
    gf = code.gf
    if any(not 0 <= v < gf.q for v in message):
        raise ValueError("message symbols must lie in [0, %d)" % gf.q)
    return [poly_eval(gf, message, x) for x in code.nodes]


def decode(code: RSCode, received, erasures=()):
    """Correct e errors and f erasures whenever 2e + f <= n - k (Gao, 2003).

    Returns (message coefficients, error positions among the unerased
    symbols).  With g0 = prod (x - x_j) and g1 the interpolant of the N = n - f
    unerased symbols, a partial extended Euclid run on (g0, g1) stops at the
    first remainder g of degree < (N + k) / 2; then g = v * g1 mod g0, and the
    message is g / v.  Raises DecodingError when fewer than k symbols are
    left, the division is inexact or exceeds the degree bound, or the
    re-encoded result disagrees with the unerased symbols in more than
    floor((N - k) / 2) places.
    """
    gf = code.gf
    n, k = code.n, code.k
    if len(received) != n:
        raise ValueError("received length %d != n=%d" % (len(received), n))
    if any(not 0 <= v < gf.q for v in received):
        raise ValueError("received symbols must lie in [0, %d)" % gf.q)
    erased = set(erasures)
    if any(not 0 <= j < n for j in erased):
        raise ValueError("erasure index out of range")
    kept = [j for j in range(n) if j not in erased]
    if len(kept) < k:
        raise DecodingError("only %d unerased symbols, need %d" % (len(kept), k))

    xs = [code.nodes[j] for j in kept]
    ys = [received[j] for j in kept]
    r0, r1 = poly_from_roots(gf, xs), poly_interpolate(gf, xs, ys)
    v0, v1 = [], [1]
    while 2 * poly_deg(r1) >= len(kept) + k:
        quo, rem = poly_divmod(gf, r0, r1)
        r0, r1 = r1, rem
        v0, v1 = v1, poly_sub(gf, v0, poly_mul(gf, quo, v1))
    message, rem = poly_divmod(gf, r1, v1)
    if rem or len(message) > k:
        raise DecodingError("no codeword lies within the decoding radius")
    message += [0] * (k - len(message))

    positions = [j for j, x, y in zip(kept, xs, ys) if poly_eval(gf, message, x) != y]
    # Cannot fire once v divides the remainder exactly: the message then
    # agrees with the received word wherever v is nonzero, so at most
    # deg v <= floor((N - k) / 2) symbols differ.  It stays as the stated
    # guard of the decoder's contract, cheap next to the Euclid steps.
    if len(positions) > (len(kept) - k) // 2:
        raise DecodingError("corruption exceeds the unique-decoding radius")
    return message, positions


def erasure_decode(code: RSCode, received, erased=()) -> list:
    """The message of ``decode(code, received, erased)``."""
    return decode(code, received, erased)[0]
