"""Ground-truth oracles and the end-to-end decoder for constructed codes.

The distance oracle (distance of a linear code = minimum nonzero codeword
weight) encodes one message per scalar class: the (q^s - 1)/(q - 1) messages
whose first nonzero symbol is 1.  It builds them in vectorized blocks from
per-row tables of x . G[i], with no digit arithmetic, and its field
arithmetic comes from ``arrays``.  Its guard still counts all q^s messages.
Encoding, fast read and decoding run on field arrays against the spec's
table set (``CodeSpec._tables``): the logs of G, of T and of a right inverse
R of T, each built on first use.  Decoding runs the RS layer first, then
takes m = u . R and keeps m only if m . T = u.  For a systematic spec R is
the RS generator's matched columns, the node powers x_{M_i}^r, so no
elimination runs; other specs invert T's pivot columns once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import rs
from .arrays import field_arrays, symbols
from .construct import CodeSpec, systematic_columns_ok, validity_check
from .errors import DecodingError, GuardExceededError
from .field import GF
from .linalg import rank

ENUM_GUARD = 1 << 24
BLOCK = 1 << 16


@dataclass
class DistanceReport:
    distance: int
    witness_message: tuple[int, ...]
    method: str = "exhaustive"
    weight_histogram: dict | None = None


def min_distance_exhaustive(G, gf: GF, guard: int = ENUM_GUARD,
                            with_histogram: bool = False) -> DistanceReport:
    """Minimum weight over all nonzero codewords, with the lexicographically
    smallest witness message.  Messages encoding the zero codeword (possible
    when the generator is rank-deficient) do not count.

    Every nonzero scalar multiple of a message has the same weight, so only
    the (q^s - 1)/(q - 1) messages whose first nonzero symbol is 1 are
    encoded, and histogram counts are scaled by q - 1.  The lex-smallest
    message of each scalar class is that one, so the witness is unchanged.
    The guard still counts all q^s messages.
    """
    if len(G) == 0 or len(G[0]) == 0 or any(len(r) != len(G[0]) for r in G):
        raise ValueError("generator must be a non-empty rectangular matrix")
    Gm = symbols(G, gf.q, "generator entries", ndim=2)
    s, n = Gm.shape
    q = gf.q
    total = q ** s
    if total > guard:
        raise GuardExceededError(
            "enumeration of %d codewords exceeds the guard %d" % (total, guard))

    # tables[i][:, x] is the row x . G[i] as a column
    fa = field_arrays(gf)
    tables, add, neg = fa.mul(np.arange(q), Gm[:, :, None]), fa.add, fa.neg

    # Codewords are columns.  span[:, i] encodes message i over the last r
    # rows (q^r <= BLOCK), in message order, so its messages whose first
    # nonzero symbol is 1 are the columns q^k .. 2 q^k - 1 for each k < r.
    # lead1 holds those, then G[s-1-r] + span: every such message whose
    # leading 1 lies in the last r + 1 rows, in lex order.
    r = 0
    while r < s - 1 and q ** (r + 1) <= BLOCK:
        r += 1
    span = np.zeros((n, 1), dtype=tables.dtype)
    for i in range(s - 1, s - 1 - r, -1):
        span = add(tables[i][:, :, None], span[:, None]).reshape(n, -1)
    lead1 = np.concatenate([span[:, q ** k:2 * q ** k] for k in range(r)]
                           + [add(tables[s - 1 - r][:, 1:2], span)], axis=1)
    weight_dtype = np.min_scalar_type(n + 1)

    def digits(j, width):
        return tuple(int(d) for d in np.unravel_index(j, (q,) * width))

    def lead1_message(j):
        k = 0  # lead1 holds q^k messages with their leading 1 at row s-1-k
        while j >= q ** k:
            j -= q ** k
            k += 1
        return (0,) * (s - 1 - k) + (1,) + digits(j, k)

    def blocks():
        """(weights, column -> message) for each block, in lex order of the
        messages: lead1, then a leading 1 further left, one block per choice
        of the digits between it and the span's rows."""
        yield (lead1 != 0).sum(axis=0, dtype=weight_dtype), lead1_message
        for lead in range(s - 2 - r, -1, -1):
            for middle in itertools.product(range(q), repeat=s - 1 - r - lead):
                prefix = tables[lead][:, 1]
                for i, x in enumerate(middle, lead + 1):
                    prefix = add(prefix, tables[i][:, x])
                head = (0,) * lead + (1,) + middle
                # prefix + span[:, j] is nonzero exactly where span[:, j] != -prefix
                yield ((span != neg(prefix)[:, None]).sum(axis=0, dtype=weight_dtype),
                       lambda j, head=head: head + digits(j, r))

    hist = np.zeros(n + 1, dtype=np.int64)
    best_w, best_msg = n + 1, None
    for w, message in blocks():  # ties keep the earlier (lex smaller) witness
        if with_histogram:
            hist += np.bincount(w, minlength=n + 1)
        w[w == 0] = n + 1  # zero codewords never count
        j = int(np.argmin(w))
        if w[j] < best_w:
            best_w, best_msg = int(w[j]), message(j)

    if best_w > n:
        raise ValueError("generator spans only the zero codeword")
    return DistanceReport(
        distance=best_w, witness_message=best_msg,
        weight_histogram={w: int(c) * (q - 1) for w, c in enumerate(hist) if c}
        if with_histogram else None)


def rank_over_field(mat, gf: GF) -> int:
    """Row rank by Gaussian elimination over the field."""
    symbols(mat, gf.q, "matrix entries", ndim=2)
    return rank(gf, mat)


def _encode(spec: CodeSpec, message: np.ndarray) -> np.ndarray:
    tables = spec._tables
    return tables.fa.vec_mat_logs(tables.fa.log[message], tables.log_G)


def subcode_encode(spec: CodeSpec, message) -> list:
    """m . G; systematic specs place message symbols at the matched columns."""
    if len(message) != spec.s:
        raise ValueError("message length %d != s=%d" % (len(message), spec.s))
    return _encode(spec, symbols(message, spec.gf.q, "message symbols")).tolist()


def subcode_decode(spec: CodeSpec, received, erasures=()) -> list:
    """Recover the message: RS-decode to the transform image u, then solve
    m . T = u as m = u . R, R a right inverse of T.

    e symbol errors and f erased positions are corrected together whenever
    2e + f <= n - k.  Every symbol must lie in [0, q), but the values at
    erased positions are otherwise ignored.  Raises DecodingError when T has
    rank below s or u lies outside T's row space.
    """
    if spec.rs is None:
        raise ValueError("spec carries no defining set; cannot decode")
    u, _ = rs.decode(spec.rs, received, erasures)
    tables = spec._tables
    fa, log_R = tables.fa, tables.log_R
    u = np.array(u, dtype=fa.dtype)
    m = fa.vec_mat_logs(fa.log[u], log_R)
    if not np.array_equal(fa.vec_mat_logs(fa.log[m], tables.log_T), u):
        raise DecodingError(
            "decoded word lies outside the code (likely corruption beyond radius)")
    return m.tolist()


def systematic_fast_read(spec: CodeSpec, received):
    """(message read off the matched positions, clean flag).

    The flag is True iff re-encoding reproduces the received word exactly; on
    False the caller should fall back to subcode_decode.
    """
    if spec.matching is None:
        raise ValueError("spec is not systematic")
    if len(received) != spec.n:
        raise ValueError("received length %d != n=%d" % (len(received), spec.n))
    word = symbols(received, spec.gf.q, "received symbols")
    message = word[list(spec.matching)]
    return message.tolist(), bool(np.array_equal(_encode(spec, message), word))


def verification_report(spec: CodeSpec, g, guard: int = ENUM_GUARD) -> dict:
    """Exhaustive audit of a spec against its graph (CLI `verify` payload)."""
    report = min_distance_exhaustive(spec.G, spec.gf, guard)
    systematic = spec.matching is not None and systematic_columns_ok(spec.G, spec.matching)
    return {
        "distance": report.distance,
        "witness_message": list(report.witness_message),
        "rank_G": rank(spec.gf, spec.G),
        "rank_T": rank(spec.gf, spec.T),
        "valid_pattern": validity_check(g, spec.G),
        "systematic": systematic,
    }
