"""Reed-Solomon codes in the evaluation view.

A codeword is the vector of evaluations of a message polynomial of degree
less than k at n distinct field elements (the defining set).  One decoder,
Gao's interpolate / partial extended Euclid / divide algorithm, corrects
errors and erasures together: e errors and f erasures whenever
2e + f <= n - k, in O(n^2) field operations.  It runs on numpy field arrays
(``arrays``) against two members of the code built on its first decode:
``RSCode.g0``, the node product, and ``RSCode.lagrange``, the Lagrange basis
as int32 logs (about 4 n^2 bytes).  Interpolation is then one gather per
block of basis rows, and erasures enter as the factor prod (x - x_e), which
the Euclid steps carry along.  Each quotient term of the Euclid steps and of
the final division costs one gather and one in-place update: the scaled row
is ``exp[c:].take(log_row)``, which is ``elements(c + log_row)`` without the
sum, on a log row cast to intp once per step (``take`` converts int32
indices on every call), and ``FieldArrays.sub`` writes the difference into
the row's slice through ``out=``.  The division divides by the divisor made
monic, so a term's log is the log of the remainder's top coefficient, with
no modulo, and the quotient stays in place above the remainder.  The code's
node powers (``RSCode.log_powers``) serve the generator, ``evaluate``
(encode and the code-file load check) and re-encode.
The constructions build a subcode from its values instead.  ``root_logs``
gives, for every row at once, the logs of the product of (x_j - x_z) over
the row's roots z, from node differences taken a block of columns at a
time.  ``interpolation_table`` turns values at the first k nodes into
coefficients with one ``FieldArrays.vec_mat_logs``: it is the Lagrange basis
of those nodes, built by the decoder's synthetic division and kept
read-only across codes, least recently used first out, within
INTERPOLATION_CACHE_BYTES (4 MiB) in all.  ``_poly_mul`` is the one
polynomial product, batched over leading axes; ``_node_product``, a product
tree of it, builds the node products g0 both Lagrange tables start from.
Beyond ``vec_mat_logs``, which bounds its own gather, only ``_combine``'s
row gather and the table builds (``log_powers``, ``root_logs`` and
``_lagrange_logs``) block by hand, by ``arrays.BLOCK_ELEMENTS``.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import arrays
from .arrays import FieldArrays, field_arrays, symbols
from .errors import DecodingError, GuardExceededError
from .field import GF, _as_int

# bytes a code's decode tables may take: 4 n (n + k) of int32 logs plus the
# n x n quotients built on the way, so n = 4096 fits and n = 8192 does not
TABLE_BYTES_GUARD = 256 << 20
# bytes the interpolation tables kept across constructions may take in all,
# each counted with its node tuple by sys.getsizeof
INTERPOLATION_CACHE_BYTES = 4 << 20


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
        # a bool, a float or a string reads None, so symbols refuses the
        # object array, as it refuses a k or an adjacency entry that is no integer
        symbols(list(map(_as_int, self.nodes)), self.gf.q, "defining set")
        if len(set(self.nodes)) != n:
            raise ValueError("defining set elements must be distinct")
        k = _as_int(self.k)  # an integer before it sizes a table
        if k is None or not 1 <= k <= n:
            raise ValueError("k must lie in [1, %d] and be an integer, got %r" % (n, self.k))

    @property
    def n(self) -> int:
        return len(self.nodes)

    @functools.cached_property
    def log_powers(self) -> np.ndarray:
        """k x n int32 logs of x_j^r, 0^0 = 1; not a field, so equality and hashing ignore it."""
        fa, order = field_arrays(self.gf), self.gf.q - 1
        log_x = _node_tables(self.gf, tuple(self.nodes))[1]
        powers = np.empty((self.k, self.n), dtype=np.int32)
        for rows in _row_blocks(self.k, self.n):  # r log x_j in int64, a block at a time
            np.remainder(np.multiply.outer(np.arange(rows.start, rows.stop), log_x), order,
                         out=powers[rows])
        if 0 in self.nodes:
            powers[1:, self.nodes.index(0)] = fa.zero_log
        return powers

    @functools.cached_property
    def g0(self) -> np.ndarray:
        """The coefficients of prod (x - x_j) over all nodes."""
        return _node_product(field_arrays(self.gf), _node_tables(self.gf, tuple(self.nodes))[0])

    @functools.cached_property
    def lagrange(self) -> np.ndarray:
        """n x n int32 logs: row j the coefficients of the Lagrange basis
        polynomial L_j of the nodes (``_lagrange_logs``).  Raises
        GuardExceededError before allocating when it and the node powers
        exceed TABLE_BYTES_GUARD."""
        n = self.n
        # int32 Lagrange logs and node powers, plus the n x n quotients while building
        needed = 4 * n * (n + self.k) + n * n * field_arrays(self.gf).dtype.itemsize
        if needed > TABLE_BYTES_GUARD:
            raise GuardExceededError(
                "decode tables for n=%d need %d bytes, over the guard of %d"
                % (n, needed, TABLE_BYTES_GUARD))
        return _lagrange_logs(self.gf, _node_tables(self.gf, tuple(self.nodes))[0], self.g0)


def default_defining_set(gf: GF, n: int) -> tuple[int, ...]:
    """{0, 1, alpha, alpha^2, ...} truncated to n elements."""
    if not 1 <= n <= gf.q:
        raise ValueError("cannot pick %d distinct nodes in GF(%d)" % (n, gf.q))
    return (0,) + gf.antilogs(n - 1)


def generator_matrix(code: RSCode):
    """k x n Vandermonde matrix, row r = nodes elementwise to the power r."""
    return field_arrays(code.gf).elements(code.log_powers).tolist()


def evaluate(code: RSCode, messages) -> list:
    """The codewords of s messages (coefficient rows, ascending), as s lists of n ints."""
    c = symbols(messages, code.gf.q, "message symbols", ndim=2)
    if c.ndim != 2 or c.shape[1] != code.k:
        raise ValueError("each message must have k=%d symbols" % code.k)
    fa = field_arrays(code.gf)
    return fa.vec_mat_logs(fa.logs(c), code.log_powers).tolist()


def encode(code: RSCode, message) -> list:
    """Evaluate the message polynomial (coefficients, ascending) at all nodes."""
    return evaluate(code, [message])[0]


def root_logs(code: RSCode, zero) -> np.ndarray:
    """s x n int64: entry (i, j) the log of prod (x_j - x_z) over the nodes
    x_z with zero[i, z], where j is no root of row i (at a root the product
    is 0 and the entry is no log of it).  One integer product of the zero
    mask with the node-difference logs per block of at most
    arrays.BLOCK_ELEMENTS of them, so no n x n table exists."""
    fa, order = field_arrays(code.gf), code.gf.q - 1
    x = _node_tables(code.gf, tuple(code.nodes))[0]
    zero = np.asarray(zero, dtype=bool)
    out = np.empty((len(zero), code.n), dtype=np.int64)
    for cols in _row_blocks(code.n, code.n):
        out[:, cols] = np.matmul(zero, fa.log_sub(x[cols, None], x).T, dtype=np.int64)
    return np.remainder(out, order, out=out)


def interpolation_table(code: RSCode) -> np.ndarray:
    """k x k int32 logs, read-only: row j the coefficients of the Lagrange
    basis polynomial of node j over the first k nodes (``_lagrange_logs``).
    Kept per field and k-node prefix in ``_interpolation_tables``, since a
    design builds many codes on one."""
    key = (code.gf, tuple(code.nodes[:code.k]))
    table = _interpolation_tables.get(key)
    if table is None:
        x = _node_tables(code.gf, tuple(code.nodes))[0][:code.k]
        table = _lagrange_logs(code.gf, x, _node_product(field_arrays(code.gf), x))
        table.flags.writeable = False
        _interpolation_tables.put(key, table)
    return table


class _TableCache:
    """Read-only tables by key, least recently used first out, at most
    INTERPOLATION_CACHE_BYTES in all, each table counted with its key's node
    tuple by sys.getsizeof; a table over that bound alone is not kept.  A
    lock serializes every read and update, so threads building codes at
    once cannot tear the byte count."""

    def __init__(self):
        self.entries: OrderedDict = OrderedDict()  # key -> (table, bytes)
        self.bytes = 0
        self.lock = threading.Lock()

    def get(self, key):
        with self.lock:
            entry = self.entries.get(key)
            if entry is None:
                return None
            self.entries.move_to_end(key)
            return entry[0]

    def put(self, key, table) -> None:
        size = sys.getsizeof(table) + sys.getsizeof(key[1])
        with self.lock:
            if key in self.entries or size > INTERPOLATION_CACHE_BYTES:
                return
            while self.bytes + size > INTERPOLATION_CACHE_BYTES:
                self.bytes -= self.entries.popitem(last=False)[1][1]
            self.entries[key] = table, size
            self.bytes += size


_interpolation_tables = _TableCache()


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
    message is g / (Gamma v), v the Bezout coefficient of h.  Both loops run
    one Python step per quotient term, each one gather off a view of the exp
    table and one in-place ``FieldArrays.sub`` (see the module docstring).
    Raises DecodingError when fewer than k symbols are left, the division is
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

    fa, order, lagrange = field_arrays(gf), gf.q - 1, code.lagrange
    y = word.astype(fa.dtype)
    if f:
        # log Gamma(x_j) at the unerased nodes; Gamma interpolates those
        # values and is zero at the erased nodes
        x = _node_tables(gf, tuple(code.nodes))[0]
        log_gamma = fa.log_sub(x[kept, None], x[erased]).sum(axis=1) % order
        gamma = _combine(fa, log_gamma, kept, lagrange)[:f + 1]
    else:
        log_gamma = np.zeros(n, dtype=np.int32)
    nonzero = y[kept] != 0
    h = _combine(fa, (fa.logs(y[kept[nonzero]]) + log_gamma[nonzero]) % order,
                 kept[nonzero], lagrange)

    # a row holds r in [0, n] and v in [n + 1, 2n + 1], so one slice update
    # subtracts c x^s times one row from the other in both halves at once
    a0, a1 = np.zeros((2, 2 * n + 2), dtype=fa.dtype)
    a0[:n + 1] = code.g0
    a1[:n] = h
    a1[n + 1] = 1
    d0, d1, dv1 = n, _degree(a1, n), 0  # deg r0, deg r1, deg v1
    log, exp = fa.log, fa.exp
    while 2 * (d1 - f) >= n - f + k:
        width = n + 2 + dv1
        log_a1 = fa.logs(a1[:width]).astype(np.intp)
        inv_lead = order - int(log_a1[d1])
        dv1 += d0 - d1  # the degree of v0 - quotient * v1
        while d0 >= d1:  # one quotient term at a time
            shift = d0 - d1
            row = a0[shift:shift + width]
            # row 0 -= c x^shift row 1, c = lead 0 / lead 1: exp[c:] taken
            # at log_a1 is exp[c + log_a1], c times row 1
            fa.sub(row, exp[(int(log[a0[d0]]) + inv_lead) % order:].take(log_a1), out=row)
            d0 = _degree(a0, d0 - 1)
        a0, a1, d0, d1 = a1, a0, d1, d0
    r1, v1 = a1[:d1 + 1], a1[n + 1:n + 2 + dv1]

    divisor = _poly_mul(fa, gamma, v1) if f else v1
    message = np.zeros(k, dtype=fa.dtype)
    if d1 >= 0:
        dw = len(divisor) - 1
        if not 0 <= d1 - dw < k:
            raise DecodingError("no codeword lies within the decoding radius")
        # divide by divisor / lead, which is monic: r1[i] is then the next
        # quotient term, and it stays in place; that quotient is lead times
        # the message.  A zero term needs no branch: exp[zero_log:] is zero
        # wherever log_w reaches
        inv_lead = order - log[divisor[dw]]
        log_w = fa.logs(fa.elements(fa.logs(divisor[:dw]) + inv_lead)).astype(np.intp)
        for i in range(d1, dw - 1, -1):
            row = r1[i - dw:i]
            fa.sub(row, exp[log[r1[i]]:].take(log_w), out=row)
        if r1[:dw].any():
            raise DecodingError("no codeword lies within the decoding radius")
        message[:d1 - dw + 1] = fa.elements(fa.logs(r1[dw:]) + inv_lead)

    values = _combine(fa, fa.logs(message), np.arange(k), code.log_powers)
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


def _lagrange_logs(gf: GF, x, g0) -> np.ndarray:
    """len(x) x len(x) int32 logs: row j the coefficients of the Lagrange
    basis polynomial L_j = g0 / ((X - x_j) g0'(x_j)), g0 = prod (X - x_j)
    over x, built in row blocks, so no square int64 temporary exists."""
    fa, n, order = field_arrays(gf), len(x), gf.q - 1
    # quotients[i, j] is coefficient i of g0 / (X - x_j): synthetic
    # division for every node at once
    quotients = np.empty((n, n), dtype=fa.dtype)
    quotients[n - 1] = 1
    for i in range(n - 1, 0, -1):
        quotients[i - 1] = fa.add(g0[i], fa.mul(x, quotients[i]))
    lagrange = np.empty((n, n), dtype=np.int32)
    for rows in _row_blocks(n, n):
        # log g0'(x_j) = sum over i != j of log (x_j - x_i)
        logs = fa.log_sub(x[rows, None], x)
        np.fill_diagonal(logs[:, rows], 0)
        scale = fa.inv(fa.elements(logs.sum(axis=1) % order))
        lagrange[rows] = fa.logs(fa.mul(quotients[:, rows].T, scale[:, None]))
    return lagrange


def _row_blocks(count: int, width: int):
    step = max(1, arrays.BLOCK_ELEMENTS // width)
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def _combine(fa: FieldArrays, log_coeffs, rows, table) -> np.ndarray:
    """sum over r of c_r * table[rows[r]], with c_r and the table given as
    logs (the log of a nonzero c_r below q - 1): one gather per block of rows."""
    out = np.zeros(table.shape[1], dtype=fa.dtype)
    for block in _row_blocks(len(rows), table.shape[1]):
        out = fa.add(out, fa.vec_mat_logs(log_coeffs[block], table.take(rows[block], axis=0)))
    return out


def _poly_mul(fa: FieldArrays, a, b) -> np.ndarray:
    """a * b for coefficient arrays along the last axis, one product per row
    when a and b have equal leading axes: the outer product of a and b,
    written with row i shifted i places to the right and summed down the
    columns."""
    batch, la, lb = a.shape[:-1], a.shape[-1], b.shape[-1]
    flat = np.zeros(batch + (la * (la + lb + 1),), dtype=fa.dtype)
    flat.reshape(batch + (la, la + lb + 1))[..., :lb] = fa.elements(
        fa.logs(a)[..., None] + fa.logs(b)[..., None, :])
    shifted = flat[..., :la * (la + lb)].reshape(batch + (la, la + lb))
    return fa.sum(shifted, axis=-2)[..., :la + lb - 1]


def _node_product(fa: FieldArrays, x) -> np.ndarray:
    """The coefficients, ascending, of the monic prod (X - x_j) over the
    elements x.  A product tree: the leaves, the factors (-x_j, 1) padded
    with (1, 0) to a power of two, are multiplied in adjacent pairs, one
    ``_poly_mul`` per level."""
    n = len(x)
    level = np.zeros((1 << max(n - 1, 0).bit_length(), 2), dtype=fa.dtype)
    level[:n, 0], level[:n, 1], level[n:, 0] = fa.neg(x), 1, 1
    while len(level) > 1:
        level = _poly_mul(fa, level[0::2], level[1::2])
    return level[0, :n + 1]


@functools.lru_cache(maxsize=64)
def _node_tables(gf: GF, nodes: tuple[int, ...]):
    """The nodes as field elements and their logs in int64 (for r log x_j).
    Kept per node set, since a design builds many codes on one; at most 12
    bytes a node, read-only, as every caller shares them."""
    fa = field_arrays(gf)
    x = np.array(nodes, dtype=fa.dtype)
    tables = x, fa.logs(x).astype(np.int64)
    for a in tables:
        a.flags.writeable = False
    return tables


def _degree(a, d: int) -> int:
    """Index of the last nonzero entry of a[:d + 1], or -1."""
    while d >= 0 and not a[d]:
        d -= 1
    return d
