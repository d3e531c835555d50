"""Ground-truth oracles, the verdict on a code, and the end-to-end decoder.

The distance oracle (distance of a linear code = minimum nonzero codeword
weight) encodes one message per scalar class: the (q^s - 1)/(q - 1) messages
whose first nonzero symbol is 1.  It weighs them in blocks from per-row
tables of x . G[i], with no digit arithmetic, and its field arithmetic
comes from ``arrays``.  The span of the last rows, the lower ones, is built
once; a block is one broadcast comparison of it with a run of targets, -c
for the codewords c of messages over the other rows, since c + lower[:, j]
is nonzero exactly where lower[:, j] differs from -c.  That comparison, n
bools for each of the block's at most max(BLOCK, 2q) messages, is the
largest temporary a block allocates: no span of all the messages, no sum
of one and no concatenation of one is built.  Its guard still counts all
q^s messages.
It also counts the messages that encode to zero, which gives the rank of G,
so ``verification_report`` runs no elimination on a consistent spec, whose
T has G's rank, and one, for T's rank, on any other.  ``min_distance_exhaustive``
is its boundary: it checks G's shape and symbols, takes G's logs, and
returns a ``DistanceReport``, an exact ``bounds.Bound`` that carries the
rank too.  The enumeration itself, ``_min_distance``, runs on int32 logs,
and ``verification_report`` hands it the spec's ``CodeSpec.log_G``, which
a construction stores as it built it.
``verdict`` judges a spec by its ``verification_report``; it owns every
rule the CLI's ``verify`` applies.
Encoding, fast read and decoding run on field arrays against the spec's
own tables: ``CodeSpec.log_G``, the logs of G, and ``CodeSpec.log_R``, the
decode table, built on the first decode.  Decoding is one pass from the word
to the message: the RS layer's syndromes, locator and roots
(``rs._locate``), then its read-and-check step (``rs._message``) on the
spec's parts: the corrected codeword at the spec's information positions
P alone, m = those values times R, and one check that m . G lies within
the decoding radius of the unerased symbols.  For a systematic spec P is
the matched columns and R is I, so no elimination runs; any other spec
runs one, of [G | I_s], whose pivots are P and whose I_s block is R.  No
RS message is formed.  Every elimination here is ``linalg``'s, on field
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rs
from .arrays import field_arrays, symbols
from .bounds import Bound
from .construct import CodeSpec, validity_check
from .errors import DecodingError, GuardExceededError
from .field import GF
from .linalg import rank

ENUM_GUARD = 1 << 24
BLOCK = 1 << 16


@dataclass(frozen=True)
class DistanceReport(Bound):
    """The distance as an exact ``Bound`` whose witness is a message, with
    G's rank and, on request, the weight histogram."""

    rank: int
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

    The rank of G comes from the same enumeration: the kernel of m -> m . G
    has q^(s - rank) - 1 nonzero messages, q - 1 per counted message that
    encodes to zero.
    """
    if len(G) == 0 or len(G[0]) == 0 or any(len(r) != len(G[0]) for r in G):
        raise ValueError("generator must be a non-empty rectangular matrix")
    log_G = field_arrays(gf).logs(symbols(G, gf.q, "generator entries", ndim=2))
    value, witness, rank_G, hist = _min_distance(log_G, gf, guard, with_histogram)
    return DistanceReport(value, value, witness, "exhaustive", rank_G, hist)


def _min_distance(log_G, gf: GF, guard: int, with_histogram: bool):
    """(distance, witness, rank, histogram or None) of the generator whose
    int32 logs are log_G (s x n, as ``FieldArrays.logs`` gives them), for
    ``min_distance_exhaustive``, which checks G, and for
    ``verification_report``, which reads a spec's ``log_G``."""
    s, n = log_G.shape
    q = gf.q
    total = q ** s
    if total > guard:
        raise GuardExceededError(
            "enumeration of %d codewords exceeds the guard %d" % (total, guard))

    # tables[i][:, x] is the row x . G[i] as a column; fa.log[:q] holds the
    # logs of the elements 0 .. q - 1
    fa = field_arrays(gf)
    tables = fa.elements(fa.log[:q] + log_G[:, :, None])
    add, sub, m1 = fa.add, fa.sub, gf.neg(1)

    # Codewords are columns.  The last l rows are the lower ones: lower[:, j]
    # encodes message j over them, in message order, so its messages whose
    # first nonzero symbol is 1 are the columns q^k .. 2 q^k - 1 for k < l.
    # The first u = s - l rows, the upper ones, give the targets: -c for the
    # codeword c of each upper message whose first nonzero symbol is 1, in
    # lex order, after -0 when l > 0.  c + lower[:, j] is nonzero where
    # lower[:, j] differs from -c, so one broadcast comparison of lower with
    # a run of targets weighs a block of messages.  Target 0 keeps only the
    # lower messages whose first nonzero symbol is 1, every other target
    # every lower message: in all, each message whose first nonzero symbol
    # is 1, once, in lex order.
    # Two upper rows cost one subtraction of n x q elements and waste about
    # a q-th of the comparisons, on target 0's other lower messages, so
    # l = s - 2 as far as q^(l + 1) <= BLOCK allows.  One lower row is its
    # own table, so at s = 2 one upper row costs no arithmetic and q - 1
    # wasted columns: l = 1.  At s = 1, l = 0 and lower is the zero word.
    ell = min(s - 1, 1)
    while ell < s - 2 and q ** (ell + 2) <= BLOCK:
        ell += 1
    u, first = s - ell, int(ell > 0)  # first: the count of targets 0
    lower = tables[s - 1][:, :q if ell else 1]
    for i in range(s - 2, u - 1, -1):
        lower = add(tables[i][:, :, None], lower[:, None]).reshape(n, -1)
    # The targets whose leading 1 lies in row i are -(G[i] + span) =
    # -G[i] - span, span the codewords of rows i + 1 .. u - 1 in message
    # order, and -G[i] is column m1 = -1 of tables[i] (m1 = 1 over GF(2^m)),
    # so row u - 1 gives -0 and -G[u - 1], its columns 0 and m1.
    targets = tables[u - 1][:, 0:m1 + 1:m1][:, 1 - first:]
    span = tables[u - 1]
    for i in range(u - 2, -1, -1):
        targets = np.concatenate([targets, sub(tables[i][:, m1:m1 + 1], span)], axis=1)
        if i:
            span = add(tables[i][:, :, None], span[:, None]).reshape(n, -1)
    targets = targets[:, :, None]
    lower = lower[:, None]
    # targets per block, at least two, so that the first holds a message
    step = max(2, BLOCK // lower.shape[2])
    weight_dtype = np.min_scalar_type(n)

    hist = np.zeros(n + 1, dtype=np.int64) if with_histogram else None
    best, best_j, zeros, offset = n + 1, None, 0, 0  # best: the least weight so far
    for start in range(0, targets.shape[1], step):
        # w: the weights of a block's messages, in lex order
        w = (lower != targets[:, start:start + step]).sum(axis=0, dtype=weight_dtype)
        w = w.reshape(-1)
        if not start and first:
            # target 0 keeps the lower messages whose first nonzero symbol
            # is 1.  At l = 1 that is (0, ..., 0, 1) alone, and its multiple
            # (0, ..., 0, q - 1), which weighs as much, sits just before the
            # next target's messages
            if ell == 1:
                w = w[q - 1:]
            else:
                w = np.concatenate([w[q ** k:2 * q ** k] for k in range(ell)] + [w[q ** ell:]])
        if with_histogram:
            hist += np.bincount(w, minlength=n + 1)
        j = int(w.argmin())  # ties keep the earlier (lex smaller) witness
        if not w[j]:  # some messages encode to zero: count them, search the rest
            nonzero = np.flatnonzero(w)
            zeros += len(w) - len(nonzero)
            if len(nonzero):
                j = int(nonzero[w.take(nonzero).argmin()])
        least = int(w[j])
        if 0 < least < best:
            best, best_j = least, offset + j
        offset += len(w)

    if best_j is None:
        raise ValueError("generator spans only the zero codeword")
    kernel, rank_G = (q - 1) * zeros + 1, s  # kernel = q^(s - rank)
    while kernel > 1:
        kernel //= q
        rank_G -= 1
    # best_j counts the messages whose first nonzero symbol is 1 in lex
    # order: q^k of them have it at row s-1-k, their digits after it j's
    # base-q digits
    j, k = best_j, 0
    while j >= q ** k:
        j -= q ** k
        k += 1
    digits = []
    for _ in range(k):
        j, d = divmod(j, q)
        digits.append(d)
    witness = (0,) * (s - 1 - k) + (1,) + tuple(reversed(digits))
    return best, witness, rank_G, (
        {w: int(c) * (q - 1) for w, c in enumerate(hist) if c} if with_histogram else None)


def rank_over_field(mat, gf: GF) -> int:
    """Row rank by Gaussian elimination over the field."""
    symbols(mat, gf.q, "matrix entries", ndim=2)
    return rank(gf, mat)


def _encode(spec: CodeSpec, message: np.ndarray) -> np.ndarray:
    fa = field_arrays(spec.gf)
    return fa.vec_mat_logs(fa.logs(message), spec.log_G)


def subcode_encode(spec: CodeSpec, message) -> list:
    """m . G; systematic specs place message symbols at the matched columns."""
    if len(message) != spec.s:
        raise ValueError("message length %d != s=%d" % (len(message), spec.s))
    return _encode(spec, symbols(message, spec.gf.q, "message symbols")).tolist()


def subcode_decode(spec: CodeSpec, received, erasures=()) -> list:
    """Recover the message in one pass from the word: locate the errors in
    the RS layer, read the corrected codeword c at the information
    positions P alone, and take m = c_P R (``CodeSpec.log_R``).

    e symbol errors and f erased positions are corrected together whenever
    2e + f <= n - k.  Every symbol must lie in [0, q), but the values at
    erased positions are otherwise ignored.  m is kept only if m . G
    differs from the N = n - f unerased symbols in at most
    floor((N - k) / 2) places: that radius holds one RS codeword at most,
    so m . G is then the word ``rs.decode`` corrects to.  Raises
    DecodingError as ``rs.decode`` does, then when G has rank below s, then
    when the corrected word lies outside the code; a refusal for G's rank
    or by the final check runs the RS code's own check on the word already
    located, to tell these apart.
    """
    code = spec.rs
    if code is None:
        raise ValueError("spec carries no defining set; cannot decode")
    word = rs._locate(code, received, erasures)
    try:
        positions, log_R = spec.log_R  # refused when G has rank below s
        try:
            return rs._message(code, word, positions, log_R, spec.log_G)[0].tolist()
        except DecodingError:
            raise DecodingError("decoded word lies outside the code "
                                "(likely corruption beyond radius)") from None
    except DecodingError:  # the RS layer's refusal comes first
        rs._message(code, word, np.arange(code.k), code.interpolation, code.log_powers)
        raise


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
    """Exhaustive audit of a spec against its graph (CLI `verify` payload).

    rank_G is read off the distance enumeration.  When G = T . M with M of
    full row rank, as a ``consistent`` spec guarantees, rank_T = rank_G;
    a spec that is not marked consistent runs one elimination, on T.
    """
    distance, witness, rank_G, _ = _min_distance(spec.log_G, spec.gf, guard, False)
    return {
        "distance": distance,
        "witness_message": list(witness),
        "rank_G": rank_G,
        "rank_T": rank_G if spec.consistent else rank(spec.gf, spec.T),
        "valid_pattern": validity_check(g, spec.G),
        "systematic": spec.systematic,
    }


def verdict(spec: CodeSpec, report: dict) -> list[str]:
    """The problems ``verification_report``'s ``report`` finds in spec, none
    for a code that keeps its graph's zero pattern, has an identity at its
    matched columns and the distance it claims: exactly, or at least."""
    claimed, d = spec.claimed_distance, report["distance"]
    high = claimed if spec.distance_exact else spec.n
    problems = []
    if not report["valid_pattern"]:
        problems.append("generator violates the adjacency zero pattern")
    if spec.matching is not None and not report["systematic"]:
        problems.append("matched columns do not form an identity")
    if not claimed <= d <= high:
        problems.append("distance %d outside the claimed [%d, %d]" % (d, claimed, high))
    return problems
