"""Ground-truth oracles and the end-to-end decoder for constructed codes.

The distance oracle enumerates every message (distance of a linear code =
minimum nonzero codeword weight) in vectorized blocks; only the step that
turns a block of messages into codewords depends on the kind of field.
Decoding runs the RS layer first and then solves m . T = u against a cached
pivot factorization of T.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import rs
from .construct import CodeSpec, systematic_columns_ok, validity_check
from .errors import DecodingError, GuardExceededError
from .field import GF
from .linalg import invert, rank, rref, vec_mat

ENUM_GUARD = 1 << 24
BLOCK = 1 << 16


@dataclass
class DistanceReport:
    distance: int
    witness_message: tuple[int, ...]
    method: str = "exhaustive"
    weight_histogram: dict | None = None


def _message_block(q: int, s: int, start: int, stop: int) -> np.ndarray:
    """Messages start..stop-1 as base-q digit rows, first symbol most significant."""
    idx = np.arange(start, stop, dtype=np.int64)
    digits = np.empty((len(idx), s), dtype=np.int64)
    for pos in range(s):
        div = q ** (s - 1 - pos)
        digits[:, pos] = idx // div
        idx = idx % div
    return digits


def _block_encoder(Gm: np.ndarray, gf: GF):
    """Function taking a block of message rows (base-q digits) to m . G.
    GF(2^m) XORs one gather per row of G from that row's (q x n) table of
    products x * G[i][j], built once here from the log/antilog tables."""
    if gf.m == 1:
        return lambda digits: (digits @ Gm) % gf.p
    log = np.array((0,) + gf.log_table)
    exp = np.array(gf.antilog_table * 2)
    x = np.arange(gf.q)[:, None]
    tables = [np.where((x > 0) & (row > 0), exp[log[x] + log[row]], 0) for row in Gm]
    return lambda digits: reduce(np.bitwise_xor, (t[c] for t, c in zip(tables, digits.T)))


def min_distance_exhaustive(G, gf: GF, guard: int = ENUM_GUARD,
                            with_histogram: bool = False) -> DistanceReport:
    """Minimum weight over all nonzero codewords, with the lexicographically
    smallest witness message.  Messages encoding the zero codeword (possible
    when the generator is rank-deficient) do not count."""
    if len(G) == 0 or len(G[0]) == 0 or any(len(r) != len(G[0]) for r in G):
        raise ValueError("generator must be a non-empty rectangular matrix")
    Gm = np.array(G, dtype=np.int64)
    if Gm.min() < 0 or Gm.max() >= gf.q:
        raise ValueError("generator entries must lie in [0, %d)" % gf.q)
    s, n = Gm.shape
    q = gf.q
    total = q ** s
    if total > guard:
        raise GuardExceededError(
            "enumeration of %d codewords exceeds the guard %d" % (total, guard))

    encode = _block_encoder(Gm, gf)
    hist = np.zeros(n + 1, dtype=np.int64)
    best_w, best_msg = n + 1, None
    # blocks go in message order and ties keep the earlier (lex smaller) witness
    for start in range(0, total, BLOCK):
        digits = _message_block(q, s, start, min(start + BLOCK, total))
        w = np.count_nonzero(encode(digits), axis=1)
        if with_histogram:
            hist += np.bincount(w[1:] if start == 0 else w, minlength=n + 1)
        w = np.where(w == 0, n + 1, w)  # zero codewords never count
        i = int(np.argmin(w))
        if w[i] < best_w:
            best_w = int(w[i])
            best_msg = tuple(int(x) for x in digits[i])

    if best_w > n:
        raise ValueError("generator spans only the zero codeword")
    return DistanceReport(
        distance=best_w, witness_message=best_msg,
        weight_histogram={w: int(c) for w, c in enumerate(hist) if c}
        if with_histogram else None)


def rank_over_field(mat, gf: GF) -> int:
    """Row rank by Gaussian elimination over the field."""
    return rank(gf, mat)


def subcode_encode(spec: CodeSpec, message) -> list:
    """m . G; systematic specs place message symbols at the matched columns."""
    if len(message) != spec.s:
        raise ValueError("message length %d != s=%d" % (len(message), spec.s))
    if any(not 0 <= v < spec.gf.q for v in message):
        raise ValueError("message symbols must lie in [0, %d)" % spec.gf.q)
    return vec_mat(spec.gf, message, spec.G)


class _TransformSolver:
    """Solves m . T = u through a cached invertible column submatrix of T."""

    def __init__(self, gf: GF, T):
        s = len(T)
        _, pivots = rref(gf, T)
        if len(pivots) < s:
            raise DecodingError(
                "transform matrix has rank %d < s=%d; decoding is ambiguous"
                % (len(pivots), s))
        self.gf = gf
        self.T = T
        self.pivots = pivots
        self.b_inv = invert(gf, [[T[i][c] for c in pivots] for i in range(s)])

    def solve(self, u):
        m = vec_mat(self.gf, [u[c] for c in self.pivots], self.b_inv)
        if vec_mat(self.gf, m, self.T) != list(u):
            raise DecodingError(
                "decoded word lies outside the code (likely corruption beyond radius)")
        return m


def _solver(spec: CodeSpec) -> _TransformSolver:
    if spec._solver is None:
        spec._solver = _TransformSolver(spec.gf, spec.T)
    return spec._solver


def subcode_decode(spec: CodeSpec, received, erasures=()) -> list:
    """Recover the message: RS-decode to the transform image u, then invert T.

    e symbol errors and f erased positions are corrected together whenever
    2e + f <= n - k.  Every symbol must lie in [0, q), but the values at
    erased positions are otherwise ignored.
    """
    if spec.rs is None:
        raise ValueError("spec carries no defining set; cannot decode")
    u, _ = rs.decode(spec.rs, received, erasures)
    return _solver(spec).solve(u)


def systematic_fast_read(spec: CodeSpec, received):
    """(message read off the matched positions, clean flag).

    The flag is True iff re-encoding reproduces the received word exactly; on
    False the caller should fall back to subcode_decode.
    """
    if spec.matching is None:
        raise ValueError("spec is not systematic")
    if len(received) != spec.n:
        raise ValueError("received length %d != n=%d" % (len(received), spec.n))
    message = [received[j] for j in spec.matching]
    return message, subcode_encode(spec, message) == list(received)


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
