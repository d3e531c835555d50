"""Reed-Solomon codes in the evaluation view.

A codeword is the vector of evaluations of a message polynomial of degree
less than k at n distinct field elements (the defining set).  One decoder,
Gao's interpolate / partial extended Euclid / divide algorithm, corrects
errors and erasures together: e errors and f erasures whenever
2e + f <= n - k, in O(n^2) field operations.  It runs on numpy field arrays
(``arrays``) against tables built once per code on its first decode: the
node product g0 and the Lagrange basis, as int32 logs (about 4 n^2 bytes).
Interpolation is then one gather per block of basis rows, and erasures enter
as the factor prod (x - x_e), which the Euclid steps carry along.  The code's
node powers (``RSCode.log_powers``) serve the generator, ``evaluate`` and re-encode.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .arrays import FieldArrays, field_arrays, symbols
from .errors import DecodingError, GuardExceededError
from .field import GF

# elements gathered per block of table rows: bounds the decoder's temporaries
BLOCK_ELEMENTS = 1 << 14
# bytes a code's decode tables may take: 4 n (n + k) of int32 logs plus the
# n x n quotients built on the way, so n = 4096 fits and n = 8192 does not
TABLE_BYTES_GUARD = 256 << 20


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
        symbols(self.nodes, self.gf.q, "defining set")
        if len(set(self.nodes)) != n:
            raise ValueError("defining set elements must be distinct")
        symbols(self.k, n + 1, "k", ndim=0)  # an integer before it sizes a table
        if not 1 <= self.k <= n:
            raise ValueError("need 1 <= k <= n, got k=%d, n=%d" % (self.k, n))

    @property
    def n(self) -> int:
        return len(self.nodes)

    @functools.cached_property
    def log_powers(self) -> np.ndarray:
        """k x n int32 logs of x_j^r, 0^0 = 1; not a field, so equality and hashing ignore it."""
        fa, order = field_arrays(self.gf), self.gf.q - 1
        log_x = fa.log[np.array(self.nodes)]
        powers = np.empty((self.k, self.n), dtype=np.int32)
        for rows in _row_blocks(self.k, self.n):  # r log x_j in int64, a block at a time
            powers[rows] = np.arange(rows.start, rows.stop)[:, None] * log_x % order
        powers[1:, log_x == fa.zero_log] = fa.zero_log
        return powers

    @functools.cached_property
    def _tables(self) -> "DecodeTables":
        """The decoder's constants, built on the first decode; not a field,
        so equality and hashing ignore it."""
        return DecodeTables(self)


def default_defining_set(gf: GF, n: int) -> tuple[int, ...]:
    """{0, 1, alpha, alpha^2, ...} truncated to n elements."""
    if not 1 <= n <= gf.q:
        raise ValueError("cannot pick %d distinct nodes in GF(%d)" % (n, gf.q))
    return (0,) + gf.antilog_table[:n - 1]


def generator_matrix(code: RSCode):
    """k x n Vandermonde matrix, row r = nodes elementwise to the power r."""
    return field_arrays(code.gf).exp[code.log_powers].tolist()


def evaluate(code: RSCode, messages) -> list:
    """The codewords of s messages (coefficient rows, ascending), as s lists of n ints."""
    c = symbols(messages, code.gf.q, "message symbols", ndim=2)
    if c.ndim != 2 or c.shape[1] != code.k:
        raise ValueError("each message must have k=%d symbols" % code.k)
    fa, powers = field_arrays(code.gf), code.log_powers
    log_c = fa.log[c]
    return [word for rows in _row_blocks(len(c), powers.size)
            for word in fa.vec_mat_logs(log_c[rows], powers).tolist()]


def encode(code: RSCode, message) -> list:
    """Evaluate the message polynomial (coefficients, ascending) at all nodes."""
    return evaluate(code, [message])[0]


def decode(code: RSCode, received, erasures=()):
    """Correct e errors and f erasures whenever 2e + f <= n - k (Gao, 2003).

    Returns (message coefficients, error positions among the unerased
    symbols).  With g0 = prod (x - x_j) over all nodes, Gamma = prod (x - x_e)
    over the erased ones and L_j the Lagrange basis of the nodes, the sum
    h = sum y_j Gamma(x_j) L_j over the unerased symbols is Gamma g1, where g1
    interpolates the N = n - f unerased symbols, and g0 is Gamma times the
    product over the unerased nodes.  A partial extended Euclid run on
    (g0, h) therefore takes the steps it would take on those two cofactors:
    it stops at the first remainder g with deg g - f < (N + k) / 2, and the
    message is g / (Gamma v), v the Bezout coefficient of h.  Raises
    DecodingError when fewer than k symbols are left, the division is
    inexact or exceeds the degree bound, or the re-encoded result disagrees
    with the unerased symbols in more than floor((N - k) / 2) places.
    """
    gf = code.gf
    n, k = code.n, code.k
    if len(received) != n:
        raise ValueError("received length %d != n=%d" % (len(received), n))
    word = symbols(received, gf.q, "received symbols")
    keep = np.ones(n, dtype=bool)
    keep[symbols(list(erasures), n, "erasure positions")] = False
    kept, erased = np.flatnonzero(keep), np.flatnonzero(~keep)
    f = len(erased)
    if n - f < k:
        raise DecodingError("only %d unerased symbols, need %d" % (n - f, k))

    tables = code._tables
    fa, order = tables.fa, gf.q - 1
    y = word.astype(fa.dtype)
    if f:
        # log Gamma(x_j) at the unerased nodes; Gamma interpolates those
        # values and is zero at the erased nodes
        log_gamma = fa.log[fa.sub(tables.x[kept, None], tables.x[erased])].sum(axis=1) % order
        gamma = _combine(fa, log_gamma, kept, tables.lagrange)[:f + 1]
    else:
        log_gamma = np.zeros(n, dtype=np.int32)
    nonzero = y[kept] != 0
    h = _combine(fa, (fa.log[y[kept[nonzero]]] + log_gamma[nonzero]) % order,
                 kept[nonzero], tables.lagrange)

    # a row holds r in [0, n] and v in [n + 1, 2n + 1], so one slice update
    # subtracts c x^s times one row from the other in both halves at once
    a0, a1 = np.zeros((2, 2 * n + 2), dtype=fa.dtype)
    a0[:n + 1] = tables.g0
    a1[:n] = h
    a1[n + 1] = 1
    d0, d1, dv1 = n, _degree(a1, n), 0  # deg r0, deg r1, deg v1
    while 2 * (d1 - f) >= n - f + k:
        width = n + 2 + dv1
        log_a1 = fa.log[a1[:width]]
        inv_lead = order - int(log_a1[d1])
        dv1 += d0 - d1  # the degree of v0 - quotient * v1
        while d0 >= d1:  # one quotient term at a time
            shift = d0 - d1
            c = (int(fa.log[a0[d0]]) + inv_lead) % order
            a0[shift:shift + width] = fa.sub(a0[shift:shift + width], fa.exp[c + log_a1])
            d0 = _degree(a0, d0 - 1)
        a0, a1, d0, d1 = a1, a0, d1, d0
    r1, v1 = a1[:d1 + 1], a1[n + 1:n + 2 + dv1]

    divisor = _poly_mul(fa, gamma, v1) if f else v1
    message = np.zeros(k, dtype=fa.dtype)
    if d1 >= 0:
        dw = len(divisor) - 1
        if not 0 <= d1 - dw < k:
            raise DecodingError("no codeword lies within the decoding radius")
        rem, log_w = r1, fa.log[divisor]
        inv_lead = order - int(log_w[-1])
        for i in range(d1, dw - 1, -1):
            if rem[i]:
                c = (int(fa.log[rem[i]]) + inv_lead) % order
                message[i - dw] = fa.exp[c]
                rem[i - dw:i + 1] = fa.sub(rem[i - dw:i + 1], fa.exp[c + log_w])
        if rem[:dw].any():
            raise DecodingError("no codeword lies within the decoding radius")

    values = _combine(fa, fa.log[message], np.arange(k), code.log_powers)
    positions = kept[values[kept] != y[kept]].tolist()
    # Cannot fire once v divides the remainder exactly: the message then
    # agrees with the received word wherever v is nonzero, so at most
    # deg v <= floor((N - k) / 2) symbols differ.  It stays as the stated
    # guard of the decoder's contract, cheap next to the Euclid steps.
    if len(positions) > (n - f - k) // 2:
        raise DecodingError("corruption exceeds the unique-decoding radius")
    return message.tolist(), positions


def erasure_decode(code: RSCode, received, erased=()) -> list:
    """The message of ``decode(code, received, erased)``."""
    return decode(code, received, erased)[0]


class DecodeTables:
    """Constants of one code for ``decode``, on field arrays.

    ``x`` holds the nodes and ``g0`` the coefficients of prod (x - x_j).
    ``lagrange[j]`` holds the logs of the coefficients of the Lagrange basis
    polynomial L_j = g0 / ((x - x_j) g0'(x_j)), int32 and built in row
    blocks, so no n x n int64 temporary exists.  Raises GuardExceededError
    before allocating when they and the node powers exceed TABLE_BYTES_GUARD.
    """

    def __init__(self, code: RSCode):
        fa = self.fa = field_arrays(code.gf)
        n, order = code.n, code.gf.q - 1
        # int32 Lagrange logs and node powers, plus the n x n quotients while building
        needed = 4 * n * (n + code.k) + n * n * fa.dtype.itemsize
        if needed > TABLE_BYTES_GUARD:
            raise GuardExceededError(
                "decode tables for n=%d need %d bytes, over the guard of %d"
                % (n, needed, TABLE_BYTES_GUARD))
        x = self.x = np.array(code.nodes, dtype=fa.dtype)
        g0 = self.g0 = np.zeros(n + 1, dtype=fa.dtype)
        g0[0] = 1
        for i, root in enumerate(fa.neg(x)):  # g0 <- g0 (x - x_i)
            g0[1:i + 2] = fa.add(g0[:i + 1], fa.mul(root, g0[1:i + 2]))
            g0[0] = fa.mul(root, g0[0])
        # quotients[i, j] is coefficient i of g0 / (x - x_j): synthetic
        # division for every node at once
        quotients = np.empty((n, n), dtype=fa.dtype)
        quotients[n - 1] = 1
        for i in range(n - 1, 0, -1):
            quotients[i - 1] = fa.add(g0[i], fa.mul(x, quotients[i]))
        self.lagrange = np.empty((n, n), dtype=np.int32)
        for rows in _row_blocks(n, n):
            # log g0'(x_j) = sum over i != j of log (x_j - x_i)
            logs = fa.log[fa.sub(x[rows, None], x)]
            np.fill_diagonal(logs[:, rows], 0)
            scale = fa.inv(fa.exp[logs.sum(axis=1) % order])
            self.lagrange[rows] = fa.log[fa.mul(quotients[:, rows].T, scale[:, None])]


def _row_blocks(count: int, width: int):
    step = max(1, BLOCK_ELEMENTS // width)
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def _combine(fa: FieldArrays, log_coeffs, rows, table) -> np.ndarray:
    """sum over r of c_r * table[rows[r]], with c_r and the table given as
    logs (the log of a nonzero c_r below q - 1): one gather per block of rows."""
    out = np.zeros(table.shape[1], dtype=fa.dtype)
    for block in _row_blocks(len(rows), table.shape[1]):
        out = fa.add(out, fa.vec_mat_logs(log_coeffs[block], table[rows[block]]))
    return out


def _poly_mul(fa: FieldArrays, a, b) -> np.ndarray:
    """a * b for coefficient arrays: the outer product of a and b, written
    with row i shifted i places to the right and summed down the columns."""
    la, lb = len(a), len(b)
    flat = np.zeros(la * (la + lb + 1), dtype=fa.dtype)
    flat.reshape(la, la + lb + 1)[:, :lb] = fa.exp[fa.log[a][:, None] + fa.log[b]]
    return fa.sum(flat[:la * (la + lb)].reshape(la, la + lb), axis=0)[:la + lb - 1]


def _degree(a, d: int) -> int:
    """Index of the last nonzero entry of a[:d + 1], or -1."""
    while d >= 0 and not a[d]:
        d -= 1
    return d
