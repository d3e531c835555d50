"""Reed-Solomon codes in the evaluation view.

A codeword is the vector of evaluations of a message polynomial of degree
less than k at n distinct field elements (the defining set).  One decoder,
the key-equation decoder of Sugiyama, Kasahara, Hirasawa and Namekawa
(1975), corrects errors and erasures together: e errors and f erasures
whenever 2e + f <= n - k.  It runs on numpy field arrays (``arrays``)
against ``RSCode.decode_tables``, built on a code's first decode: the node
powers x_j^t for t < n - k and the column multipliers v_j as int32 logs
(about 4 n (n - k) bytes).  The n - k syndromes are one
``FieldArrays.vec_mat_logs``; erasures enter as the factor prod (x - x_e),
and only the coefficients of its product with the syndromes that the Euclid
steps read are taken, one more ``vec_mat_logs`` against a window that
slides along the syndromes' logs.  Each quotient term of the Euclid steps
costs one gather and one in-place update: the scaled row is
``exp[c:].take(log_row)``, which is ``elements(c + log_row)`` without the
sum, on a log row cast to intp once per step (``take`` converts int32
indices on every call), and ``FieldArrays.sub`` writes the difference into
the row's slice through ``out=``.  The locator's roots are one more
``vec_mat_logs``.  Those steps are ``_locate``.  One read-and-check
step, ``_message``, ends every decode: it reads the corrected codeword at
chosen nodes P (the received symbol where the locator and the erasures
leave a node alone, and elsewhere the value interpolated through the first
k nodes that are left alone), multiplies those values by a map R into the
message m, and keeps m only if m times the generator lies within
floor((N - k) / 2) of the N unerased symbols.  ``decode`` runs it on the
code's own parts: the first k nodes, the interpolation table and the node
powers.  A subcode's decoder (``verify.subcode_decode``) runs it on the
subcode's information positions, its map and the logs of its G.  The
code's node powers (``RSCode.log_powers``) serve the generator,
``evaluate`` (encode and the code-file load check) and ``decode``'s check.
The constructions build a subcode from its values instead.  ``root_logs``
gives, for every row at once, the logs of the product of (x_j - x_z) over
the row's roots z: one integer product of the row masks with the node set's
difference table, or, above n = 128, with node differences taken a block
of columns at a time.  ``RSCode.interpolation`` turns values at the first k
nodes into coefficients with one ``FieldArrays.vec_mat_logs``: it is the
Lagrange basis of those nodes, built by synthetic division, read-only.
One rule keeps a node set's tables across codes: they are kept for the 64
sets used last (``_KEPT_SETS``), a table only when it fits one
arrays.BLOCK_ELEMENTS block, and a table that does not is kept by its code
alone.  A node set is checked and tabled once, on its first code
(``_node_tables``): ``arrays.symbols`` checks it, and its nodes, their logs
and, when n^2 <= BLOCK_ELEMENTS (n <= 128), the n x n int32 logs of the
node differences are kept.  A field and k-node prefix keep their
interpolation table when k^2 <= BLOCK_ELEMENTS (``_interpolation``).  That
is at most 12 bytes a node and 64 KiB a table, 4 MiB of each kind of table
in all.  The tables are keyed by value, where True == 1, so ``RSCode``
keeps only exact ints, which it checked, in place of the caller's nodes
and k.  Each ``RSCode`` keeps the tables of the set it checked
(``RSCode.node_tables``), and its node powers, its decode tables,
``root_logs`` and ``_locate`` read them off the code, with no second key
lookup.  ``_poly_mul`` is the one polynomial product, batched over leading
axes; ``_node_product``, a product tree of it, builds the node products
that the interpolation table and the erasure factor start from.
Beyond ``vec_mat_logs``, which bounds its own temporaries, only the table builds
(``log_powers``, ``decode_tables``, ``root_logs`` and ``_lagrange_logs``),
the node weights prod (x_j - x_i) (``_log_weights``) and the decoder's
interpolation block by hand, by ``arrays.BLOCK_ELEMENTS``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import arrays
from .arrays import FieldArrays, field_arrays, symbols
from .errors import DecodingError, GuardExceededError
from .field import _INT, GF, _as_int

# bytes a code's decode tables may take: 4 n (n - k) of int32 node powers,
# 4 n of multiplier logs and the 4 k^2 of the interpolation table, which a
# decode may read, though decode_tables does not hold it
TABLE_BYTES_GUARD = 256 << 20
# node sets whose tables are kept across codes, the ones used last
_KEPT_SETS = 64


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
        nodes = tuple(self.nodes)
        # _node_tables checks a node set once and keeps it by value, where
        # True == 1 and 1.0 == 1, so only exact ints reach it as they are;
        # _as_int reads a bool, a float or a string as None, which it refuses
        if not set(map(type, nodes)) <= _INT:
            nodes = tuple(map(_as_int, nodes))
        tables = _node_tables(self.gf, nodes)
        k = _as_int(self.k)  # an integer before it sizes a table
        if k is None or not 1 <= k <= n:
            raise ValueError("k must lie in [1, %d] and be an integer, got %r" % (n, self.k))
        # the checked nodes and k in place of the caller's: a list, an array
        # or numpy integers give the code a tuple of ints gives, hashable,
        # and a later change to the caller's object reaches no table
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "k", k)
        # the checked node set's tables, kept on the code so that its table
        # builds and its decoder look no key up again; not a field, so
        # equality, hashing and repr ignore them
        self.__dict__["node_tables"] = tables

    @property
    def n(self) -> int:
        return len(self.nodes)

    @functools.cached_property
    def log_powers(self) -> np.ndarray:
        """k x n int32 logs of x_j^r, 0^0 = 1; not a field, so equality and hashing ignore it."""
        fa, order = field_arrays(self.gf), self.gf.q - 1
        log_x = self.node_tables.log_x
        powers = np.empty((self.k, self.n), dtype=np.int32)
        for rows in _row_blocks(self.k, self.n):  # r log x_j in int64, a block at a time
            np.remainder(np.multiply.outer(np.arange(rows.start, rows.stop), log_x), order,
                         out=powers[rows])
        if 0 in self.nodes:
            powers[1:, self.nodes.index(0)] = fa.zero_log
        return powers

    @functools.cached_property
    def decode_tables(self) -> DecodeTables:
        """The tables ``decode`` reads, built on its first call a block of
        arrays.BLOCK_ELEMENTS at a time; not a field, so equality and hashing
        ignore them.  Raises GuardExceededError before allocating when they
        exceed TABLE_BYTES_GUARD."""
        n, k = self.n, self.k
        needed = 4 * (n * (n - k) + n + k * k)
        if needed > TABLE_BYTES_GUARD:
            raise GuardExceededError(
                "decode tables for n=%d need %d bytes, over the guard of %d"
                % (n, needed, TABLE_BYTES_GUARD))
        fa, order = field_arrays(self.gf), self.gf.q - 1
        x, log_x, _ = self.node_tables
        powers = np.empty((n, n - k), dtype=np.int32)
        for rows in _row_blocks(n, n):
            np.remainder(np.multiply.outer(log_x[rows], np.arange(n - k)), order,
                         out=powers[rows])
        if 0 in self.nodes:
            powers[self.nodes.index(0), 1:] = fa.zero_log
        log_v = (-_log_weights(fa, x) % order).astype(np.int32)
        return DecodeTables(powers, log_v)

    @functools.cached_property
    def interpolation(self) -> np.ndarray:
        """k x k int32 logs, read-only: row j the coefficients of the
        Lagrange basis polynomial of node j over the first k nodes
        (``_lagrange_logs``); not a field, so equality and hashing ignore
        it.  Shared by every code on the same field and first k nodes while
        k^2 <= arrays.BLOCK_ELEMENTS (``_interpolation``), since a design
        builds many codes on one; a larger table is this code's alone."""
        prefix = self.nodes[:self.k]
        if self.k ** 2 <= arrays.BLOCK_ELEMENTS:
            return _interpolation(self.gf, prefix)
        return _interpolation.__wrapped__(self.gf, prefix)


class DecodeTables(NamedTuple):
    """A code's decode tables (``RSCode.decode_tables``), as int32 logs."""

    powers: np.ndarray  # n x (n - k): x_j^t for t < n - k, 0^0 = 1
    log_v: np.ndarray  # n, below q - 1: v_j = 1 / prod over i != j of (x_j - x_i)


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
    """s x n int32 for the s x n bool mask zero: entry (i, j) a log of
    prod (x_j - x_z) over the nodes x_z with zero[i, z], where j is no root
    of row i (at a root the product is 0 and the entry is no log of it).
    One integer product of the mask with the node-difference logs: the
    code's n x n table when its node set has one (n^2 <=
    arrays.BLOCK_ELEMENTS, ``_node_tables``), unreduced sums of at most 128
    of its entries, which int32 holds; otherwise differences taken a block
    of at most arrays.BLOCK_ELEMENTS at a time, each block's sums taken in
    int64 and reduced modulo q - 1."""
    tables = code.node_tables
    if tables.log_diff is not None:
        return zero @ tables.log_diff  # bool times int32 is int32
    fa, x, order = field_arrays(code.gf), tables.x, code.gf.q - 1
    out = np.empty((len(zero), code.n), dtype=np.int32)
    for cols in _row_blocks(code.n, code.n):
        out[:, cols] = np.matmul(zero, fa.log_sub(x[cols, None], x).T, dtype=np.int64) % order
    return out


def decode(code: RSCode, received, erasures=()):
    """Correct e errors and f erasures whenever 2e + f <= n - k, by the
    key equation (Sugiyama, Kasahara, Hirasawa and Namekawa, 1975).

    Returns (message coefficients, error positions among the unerased
    symbols).  Erased symbols read 0.  ``_locate`` finds the symbols the
    errors leave alone, and ``_message`` reads the codeword at the first k
    nodes from them and turns those k values into the message with the
    interpolation table.  Raises DecodingError when fewer than k symbols
    are left, when the error locator does not have as many roots as its
    degree, all at unerased nodes, or when the re-encoded message disagrees
    with the N = n - f unerased symbols in more than floor((N - k) / 2)
    places.
    """
    message, errors = _message(code, _locate(code, received, erasures), np.arange(code.k),
                               code.interpolation, code.log_powers)
    return message.tolist(), errors.tolist()


class _Word(NamedTuple):
    """A received word as ``_locate`` leaves it."""

    x: np.ndarray  # the nodes as field elements
    keep: np.ndarray  # bool, n: the unerased symbols
    known: np.ndarray  # bool, n: the unerased symbols at no root of the locator
    y: np.ndarray  # the symbols, erased ones read 0
    log_y: np.ndarray  # their logs


def _locate(code: RSCode, received, erasures) -> _Word:
    """The received word with its errors located, for ``decode`` and for a
    subcode's decoder.

    The syndromes S_t = sum_j v_j y_j x_j^t, t < n - k, v_j = 1 / prod over
    i != j of (x_j - x_i), vanish on every codeword: sum_j v_j p(x_j) is
    the x^(n-1) coefficient of the polynomial that takes p's values at the
    nodes.  With sigma = prod (x - x_j) over the e error nodes, Gamma the
    same over the f erased ones and S* the reversed syndromes,
    sigma Gamma S* agrees modulo x^(n-k) with a polynomial of degree below
    e + f.  So B, the M = n - k - f coefficients of Gamma S* from x^f on,
    times sigma agrees modulo x^M with one of degree below e.  A partial
    extended Euclid run on (x^M, B) stops at the first remainder of degree
    below M / 2, and its Bezout coefficient of B is sigma up to a constant
    whenever 2e <= M.  Each step is one gather off a view of the exp table
    and one in-place ``FieldArrays.sub`` (see the module docstring).
    Raises DecodingError when fewer than k symbols are left or when sigma
    does not have deg sigma roots, all at unerased nodes.
    """
    gf = code.gf
    n, k = code.n, code.k
    if len(received) != n:
        raise ValueError("received length %d != n=%d" % (len(received), n))
    word = symbols(received, gf.q, "received symbols")
    keep = np.ones(n, dtype=bool)
    keep[symbols(list(erasures), n, "erasure positions")] = False
    f = n - int(np.count_nonzero(keep))
    if n - f < k:
        raise DecodingError("only %d unerased symbols, need %d" % (n - f, k))

    fa, tables = field_arrays(gf), code.decode_tables
    x = code.node_tables.x
    y = np.where(keep, word, 0).astype(fa.dtype)
    log_y = fa.logs(y)
    m = n - k - f
    known = keep
    if m:
        # v_j y_j is one gather, so its log is below q - 1 or zero_log
        b = fa.vec_mat_logs(fa.logs(fa.elements(tables.log_v + log_y)), tables.powers)[::-1]
        if f:
            # coefficient f + j of Gamma S* is the sum over i <= f of
            # Gamma_i b_(f + j - i): Gamma against the (f + 1) x m window
            # W[i, j] = b_(f + j - i), a view of b's logs with no copy
            log_b = fa.logs(b)
            step = log_b.itemsize
            window = np.ndarray((f + 1, m), log_b.dtype, log_b, f * step, (-step, step))
            b = fa.vec_mat_logs(fa.logs(_node_product(fa, x[~keep])), window)
        sigma = _locator(fa, b, m)
        if len(sigma) > 1:
            known = keep.copy()
            known[_roots(fa, tables.powers, sigma, keep)] = False
    return _Word(x, keep, known, y, log_y)


def _message(code: RSCode, word: _Word, positions, log_R, log_gen):
    """(m, error positions) for a word ``_locate`` left: m = c_P R, c the
    corrected codeword read at the node indices ``positions`` (P) and R
    the logs ``log_R`` (None meaning I), kept only when m times the
    generator whose logs are ``log_gen`` differs from y in at most
    floor((N - k) / 2) of the N unerased places, which it returns.

    c_P is y where the node is known, and elsewhere
    sum over j in K of y_j L_j, L_j the Lagrange basis of K, the first k
    known nodes: log L_j(x_b) = sum over i != j of log (x_b - x_i) -
    log (x_j - x_i), taken a block of rows at a time.  Raises
    DecodingError when m's codeword lies outside that radius."""
    fa, order, k, x = field_arrays(code.gf), code.gf.q - 1, code.k, word.x
    log_c = word.log_y[positions]
    bad = np.flatnonzero(~word.known[positions])
    if len(bad):
        kk = np.flatnonzero(word.known)[:k]
        xk, log_yk = x[kk], word.log_y[kk, None]
        log_w = _log_weights(fa, xk)
        for rows in _row_blocks(len(bad), k):
            numerators = fa.log_sub(x[positions[bad[rows]], None], xk)
            log_l = numerators.sum(axis=1, keepdims=True) - numerators - log_w
            log_c[bad[rows]] = fa.logs(fa.vec_mat_logs(log_l % order, log_yk)[:, 0])
    m = fa.elements(log_c) if log_R is None else fa.vec_mat_logs(log_c, log_R)
    errors = np.flatnonzero(word.keep & (fa.vec_mat_logs(fa.logs(m), log_gen) != word.y))
    if len(errors) > (int(np.count_nonzero(word.keep)) - k) // 2:
        raise DecodingError("no codeword lies within the decoding radius")
    return m, errors


def _locator(fa: FieldArrays, b, m: int) -> np.ndarray:
    """The Bezout coefficient of b, ascending, at the first remainder of a
    partial extended Euclid run on (x^m, b) whose degree is below m / 2."""
    # a row holds r in [0, m] and v in [m + 1, 2m + 1], so one slice update
    # subtracts c x^s times one row from the other in both halves at once
    a0, a1 = np.zeros((2, 2 * m + 2), dtype=fa.dtype)
    a0[m] = 1
    a1[:m] = b
    a1[m + 1] = 1
    d0, d1, dv1 = m, _degree(a1, m), 0  # deg r0, deg r1, deg v1
    order, log, exp = fa.q - 1, fa.log, fa.exp
    while 2 * d1 >= m:
        width = m + 2 + dv1
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
    return a1[m + 1:m + 2 + dv1]


def _roots(fa: FieldArrays, powers, sigma, keep) -> np.ndarray:
    """The node indices where sigma (ascending, len(sigma) <= the powers'
    width) vanishes.  Raises DecodingError unless there are deg sigma of
    them, all at nodes that ``keep`` marks unerased."""
    values = fa.vec_mat_logs(fa.logs(sigma), powers[:, :len(sigma)].T)
    roots = np.flatnonzero(values == 0)
    if len(roots) != len(sigma) - 1 or not keep[roots].all():
        raise DecodingError("no codeword lies within the decoding radius")
    return roots


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
    scale = fa.elements(-_log_weights(fa, x) % order)  # 1 / g0'(x_j)
    lagrange = np.empty((n, n), dtype=np.int32)
    for rows in _row_blocks(n, n):
        lagrange[rows] = fa.logs(fa.mul(quotients[:, rows].T, scale[rows, None]))
    return lagrange


def _log_weights(fa: FieldArrays, x) -> np.ndarray:
    """int64: entry j the log of prod over i != j of (x_j - x_i) for the
    distinct elements x, unreduced (a sum of logs below q - 1), from node
    differences taken a block of rows at a time.  Row j's one zero
    difference, at i = j, adds zero_log to its sum, and is taken off."""
    out = np.empty(len(x), dtype=np.int64)
    for rows in _row_blocks(len(x), len(x)):
        out[rows] = fa.log_sub(x[rows, None], x).sum(axis=1)
    return np.subtract(out, fa.zero_log, out=out)


def _row_blocks(count: int, width: int):
    step = max(1, arrays.BLOCK_ELEMENTS // width)
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


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


class _NodeTables(NamedTuple):
    """A node set's tables (``_node_tables``), read-only."""

    x: np.ndarray  # the nodes as field elements
    log_x: np.ndarray  # their logs in int64 (for r log x_j)
    # int32, entry (z, j) the log of x_j - x_z (zero_log at z = j); None
    # unless the table fits one block, n^2 <= arrays.BLOCK_ELEMENTS
    log_diff: np.ndarray | None


@functools.lru_cache(maxsize=_KEPT_SETS)
def _interpolation(gf: GF, prefix: tuple[int, ...]) -> np.ndarray:
    """The interpolation table of the checked nodes ``prefix``
    (``RSCode.interpolation``), read-only."""
    fa = field_arrays(gf)
    x = np.array(prefix, dtype=fa.dtype)
    table = _lagrange_logs(gf, x, _node_product(fa, x))
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=_KEPT_SETS)
def _node_tables(gf: GF, nodes: tuple[int, ...]) -> _NodeTables:
    """The node set's tables, built on its first code, which is where the
    set is checked: every node a symbol of gf and none twice.  A set that
    fails is not kept; the byte bound is in the module docstring."""
    fa = field_arrays(gf)
    x = symbols(nodes, gf.q, "defining set").astype(fa.dtype)
    if len(set(nodes)) != len(nodes):
        raise ValueError("defining set elements must be distinct")
    log_diff = fa.log_sub(x, x[:, None]) if len(x) ** 2 <= arrays.BLOCK_ELEMENTS else None
    tables = _NodeTables(x, fa.logs(x).astype(np.int64), log_diff)
    for a in tables:
        if a is not None:
            a.flags.writeable = False
    return tables


def _degree(a, d: int) -> int:
    """Index of the last nonzero entry of a[:d + 1], or -1."""
    while d >= 0 and not a[d]:
        d -= 1
    return d
