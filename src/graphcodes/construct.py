"""Builders for generator matrices valid for a constraint graph.

All constructions extract the code as a subcode of an [n, k] Reed-Solomon
code: per message row i, a transformation polynomial vanishing on the nodes
where the row must be zero supplies row i of the generator as its vector of
evaluations.  Stacking the coefficient vectors gives the transform matrix T
with G = T . G_RS.  The polynomial modes build every row from its values, all
rows at once on field arrays: row i of G is zero at the row's roots and
elsewhere the product of (x_j - x_z) over them (``rs.root_logs``), divided by
that product at the matched node when there is a matching.  T is then G's
first k columns times the Lagrange basis of the first k nodes
(``RSCode.interpolation``), one ``FieldArrays.vec_mat_logs``; the table is
kept across constructions for the 64 node sets used last when it fits one
``arrays.BLOCK_ELEMENTS`` block, as a node set's other tables are.  So no
construction runs a product tree or ``rs.evaluate``, and the load check of a
code file, G against ``rs.evaluate`` of T, checks G by a route independent
of the one that built it.

Modes:

* ``generic``        zeros taken straight from the adjacency matrix, rows
                     left monic; the dimension may fall below s.
* ``systematic-dmin`` achieves the subset bound d_min when the count of
                     fully connected columns allows it, by keeping enough of
                     them out of the matching.
* ``systematic-dsys`` achieves the systematic ceiling d_sys via the matching
                     that minimizes the worst row-zero count.
* ``mds-nullspace``  the ``systematic-dsys`` code at a chosen dimension k,
                     built by the same polynomial route.

Every spec with an RS layer comes from ``_subcode``, and ``_subcode`` alone
decides whether a dimension k fits: row i of T has degree below k, so a
code exists exactly when every row has fewer than k zeros.  The library's
general-MDS path, ``mds_nullspace_construct``, builds each row from any MDS
generator instead, as a spec with no RS layer: a left-nullspace combination
of the columns that must vanish, mixed and scaled on field arrays, each
basis times the generator one ``vec_mat_logs``, taken a block of the
generator's rows at a time when it is large.  Its k is the generator's row
count, and its row loop makes the same zero-count check once.  Over an RS
generator the two agree: the zero columns Z of the Vandermonde generator
have the monic prod_{j in Z} (X - x_j) as their first canonical
left-nullspace vector, and its codeword is nonzero off Z.

A ``CodeSpec`` keeps two tables for the audit, encode, fast read and
decode: ``log_G``, the int32 logs of G, and ``log_R``, the decode table:
the information positions P where the decoder reads a corrected codeword
c, and the logs of R with m = c_P R.  ``_subcode`` builds G as its logs
and stores them on the spec it returns, so ``verify`` takes them as built;
any other spec builds its ``log_G`` from G on first use.  ``log_R`` is
built on the first decode.  A systematic spec reads its matched columns,
where R is I.  The one elimination left here, of [G | I_s], builds P and R
for a spec that is not systematic.  So encode, decode and the audit read
G; T is left to the code file, its load check and the audit of a spec
that is not marked ``consistent``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import not_
from typing import NamedTuple

import numpy as np

from .arrays import field_arrays, symbols
from .bounds import MODES, Bound, d_min_bound, fully_connected_columns, k_sys_search
from .errors import DecodingError, InconsistentCodeError, InfeasibleError
from .field import GF, _as_int
from .graph import ConstraintGraph, _hall_matching, _matched_rows, check_matching
from .linalg import left_nullspace_basis, rref
from .rs import RSCode, default_defining_set, evaluate, root_logs


class MessageMap(NamedTuple):
    """A spec's decode table (``CodeSpec.log_R``)."""

    positions: np.ndarray  # P: the node indices m is read at
    logs: np.ndarray | None  # |P| x s int32 logs of R, G[:, P] R = I; None when R is I


@dataclass(eq=False)
class CodeSpec:
    """A constructed code: field, RS layer, transform T, generator G = T.G_RS.

    ``consistent`` marks a spec whose G is known to be T times an MDS
    generator, so that T has G's rank.  Only ``_subcode``,
    ``mds_nullspace_construct`` and ``from_dict``, once G has matched
    T . G_RS, set it; the constructor takes no such argument, so a spec
    built by hand or by ``dataclasses.replace`` is unmarked, and its audit
    reads rank_T off its own T.

    ``log_G``, G as int32 logs on field arrays (``arrays``), is stored by
    the construction that built G, and built from G on first use on any
    other spec (one read by ``from_dict``, one built by hand, or one that
    ``dataclasses.replace`` gave a new G).  ``log_R``, the decode table, is
    built on the first decode.  They are not fields, so they never enter
    repr or ``to_dict``, and the spec compares by identity.  Both are kept
    for the spec's life, so its G is changed only through
    ``dataclasses.replace``, which gives a spec that builds its own: a G
    changed in place, or assigned anew, would leave the audit, encode and
    decode on the old one's tables.
    """

    gf: GF
    rs: RSCode | None
    T: list
    G: list
    mode: str
    matching: tuple[int, ...] | None
    claimed_distance: int
    distance_exact: bool
    consistent: bool = field(default=False, init=False, repr=False)

    @property
    def s(self) -> int:
        return len(self.G)

    @property
    def n(self) -> int:
        return len(self.G[0])

    @property
    def k(self) -> int:
        return len(self.T[0])

    @property
    def systematic(self) -> bool:
        """A matching is set and its columns of G form a permuted identity."""
        return self.matching is not None and systematic_columns_ok(self.G, self.matching)

    @functools.cached_property
    def log_G(self) -> np.ndarray:
        """G (s x n) as int32 logs: stored by the construction that built
        them, and on any other spec built from G on first use, once its
        entries pass ``arrays.symbols``.  Read-only either way."""
        log_G = field_arrays(self.gf).logs(symbols(self.G, self.gf.q, "G entries", ndim=2))
        log_G.flags.writeable = False
        return log_G

    @functools.cached_property
    def log_R(self) -> MessageMap:
        """Where the decoder reads m off a corrected codeword c, built on
        the first decode: m = c_P R, P the information positions and
        G[:, P] R = I, so every codeword m G gives back its m.

        A systematic spec holds a unit column of G per row at its matched
        columns: P is those and R is I, so nothing is built.  Otherwise one
        elimination of [G | I_s] gives both: P is G's pivot columns, s of
        them while G has rank s, and the rows E of the I_s block satisfy
        E . G[:, P] = I, so R is E.  A G of rank below s is refused with
        the same text on every decode after one elimination: the text is
        kept on the spec, as a cached property keeps no raised error.
        """
        refusal = self.__dict__.get("_log_R_refusal")
        if refusal is not None:
            raise DecodingError(refusal)
        if self.systematic:
            return MessageMap(np.array(self.matching), None)
        fa, s, n = field_arrays(self.gf), self.s, self.n
        rows, pivots = rref(self.gf, np.hstack((fa.elements(self.log_G),
                                                np.eye(s, dtype=fa.dtype))))
        rank = sum(c < n for c in pivots)
        if rank < s:
            refusal = self.__dict__["_log_R_refusal"] = (
                "transform matrix has rank %d < s=%d; decoding is ambiguous" % (rank, s))
            raise DecodingError(refusal)
        return MessageMap(np.array(pivots), fa.logs(rows)[:, n:])

    def to_dict(self) -> dict:
        if self.rs is None:
            raise ValueError("cannot serialize a spec without a defining set")
        return {
            "field": self.gf.to_dict(),
            "defining_set": list(self.rs.nodes),  # RSCode keeps them as ints
            "k": self.rs.k,
            "T": [list(r) for r in self.T],
            "G": [list(r) for r in self.G],
            "mode": self.mode,
            "matching": list(self.matching) if self.matching is not None else None,
            # a numpy k given to a construction makes n - k + 1 numpy, which
            # json cannot write
            "claimed_distance": int(self.claimed_distance),
            "distance_exact": self.distance_exact,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CodeSpec":
        gf = GF.from_dict(d["field"])
        rs = RSCode(gf, tuple(d["defining_set"]), d["k"])
        T = [list(r) for r in d["T"]]
        G = [list(r) for r in d["G"]]
        if len(T) != len(G):
            raise ValueError("T and G row counts differ")
        if any(len(r) != rs.k for r in T):
            raise ValueError("T rows must have k columns")
        if any(len(r) != rs.n for r in G):
            raise ValueError("G rows must have n columns")
        symbols(T, gf.q, "T entries", ndim=2)
        symbols(G, gf.q, "G entries", ndim=2)
        # numpy reads a JSON true among integers as 1, so symbols cannot see
        # it; RSCode refuses one in the defining set
        for what, rows in (("T entries", T), ("G entries", G)):
            if any(isinstance(v, bool) for row in rows for v in row):
                raise ValueError("%s must lie in [0, %d)" % (what, gf.q))
        mode = d["mode"]
        if mode not in MODES:
            raise ValueError("unknown mode %r" % (mode,))
        # integers of any type, stored as Python ints; a bool is refused
        matching = d.get("matching")
        if matching is not None:
            cols = (tuple(map(_as_int, matching))
                    if isinstance(matching, (list, tuple)) and len(matching) == len(G) else None)
            if (cols is None or not all(c is not None and 0 <= c < rs.n for c in cols)
                    or len(set(cols)) != len(cols)):
                raise ValueError("matching must be %d distinct columns in [0, %d)"
                                 % (len(G), rs.n))
            matching = cols
        claimed = _as_int(d["claimed_distance"])
        if claimed is None or not 1 <= claimed <= rs.n:
            raise ValueError("claimed_distance must be an integer in [1, %d]" % rs.n)
        if not isinstance(d["distance_exact"], bool):
            raise ValueError("distance_exact must be true or false")
        spec = cls(gf=gf, rs=rs, T=T, G=G, mode=mode, matching=matching,
                   claimed_distance=claimed, distance_exact=d["distance_exact"])
        # the constructions never take G from evaluate: this check is independent
        bad = [i for i, row in enumerate(evaluate(rs, T)) if row != G[i]]
        if bad:
            raise InconsistentCodeError("G differs from T . G_RS in rows %s" % bad, spec)
        spec.consistent = True
        return spec

    @classmethod
    def load(cls, path) -> "CodeSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _defining_set(g: ConstraintGraph, gf: GF, nodes):
    if nodes is None:
        return default_defining_set(gf, g.n)
    nodes = tuple(nodes)
    if len(nodes) != g.n:
        raise ValueError("defining set must have %d elements" % g.n)
    return nodes


def _subcode(rs: RSCode, rows, mode: str, matching, claimed_distance: int,
             distance_exact: bool) -> CodeSpec:
    """The subcode of rs whose row i vanishes where rows[i] is zero, built
    from its values: G[i, j] is prod (x_j - x_z) over the row's zeros z,
    divided by that product at node matching[i] when a matching is given,
    and 0 at the zeros.  Row i of T holds that product's coefficients, read
    off G[i]'s first k values by interpolation, as its degree, the row's
    zero count, lies below k; so G = T . G_RS.

    The one check that the rows fit the RS dimension: a row with k or more
    zeros raises ``InfeasibleError``.  ``rows`` are tuples of the ints 0
    and 1, as ``ConstraintGraph.adjacency`` and ``matched_adjacency`` give
    them."""
    counts = [row.count(0) for row in rows]
    if max(counts) >= rs.k:
        i = next(i for i, c in enumerate(counts) if c >= rs.k)
        raise InfeasibleError(
            "row %d needs %d zeros but the RS dimension is only %d" % (i, counts[i], rs.k))
    fa, zero = field_arrays(rs.gf), ~np.array(rows, dtype=bool)
    log_G = root_logs(rs, zero)
    if matching is not None:  # row i's matched node is no root: its entry is a log
        log_G -= log_G.take(matching, axis=1).diagonal()[:, None]
    log_G %= rs.gf.q - 1
    np.putmask(log_G, zero, fa.zero_log)  # now exactly fa.logs(G)
    T = fa.vec_mat_logs(log_G[:, :rs.k], rs.interpolation)
    spec = CodeSpec(gf=rs.gf, rs=rs, T=T.tolist(),
                    G=fa.elements(log_G).tolist(), mode=mode, matching=matching,
                    claimed_distance=claimed_distance, distance_exact=distance_exact)
    spec.consistent = True
    log_G.flags.writeable = False
    spec.__dict__["log_G"] = log_G  # where the cached property keeps it
    return spec


def generic_subcode(g: ConstraintGraph, gf: GF, nodes=None, k=None,
                    max_exact_s=None) -> CodeSpec:
    """Subcode with zeros taken directly from the adjacency matrix.

    Rows are left monic; equal zero patterns give equal rows, so the rank can
    drop below s.  Claimed distance n - k + 1 is the RS floor, not exact.
    Defaults k to n - d_min + 1, the largest dimension whose floor matches
    the subset bound, which ``d_min_bound(g, max_exact_s)`` computes.
    ``RSCode`` refuses a k outside [1, n], and ``_subcode`` one at or below
    the largest row zero count.
    """
    nodes = _defining_set(g, gf, nodes)
    if k is None:
        # the bound collapses to <= 0 on Hall-violating graphs; distance of a
        # real code is always >= 1, so cap the default at the full dimension
        k = g.n - max(d_min_bound(g, max_exact_s).value, 1) + 1
    return _subcode(RSCode(gf, nodes, k), g.adjacency, "generic", None,
                    claimed_distance=g.n - k + 1, distance_exact=False)


def systematic_dmin(g: ConstraintGraph, gf: GF, nodes=None,
                    max_exact_s=None) -> CodeSpec:
    """Systematic code achieving the subset bound d_min.

    Feasible when k_min >= r_M, i.e. at least d_min - 1 fully connected
    columns exist.  Keeps d_min - 1 of them (the highest-indexed ones) out of
    the matching so that every matched-adjacency row retains at least d_min
    ones, then runs the usual RS-subcode extraction at k = n - d_min + 1.
    The matching is the Hall matching (``graph.find_matching``'s search) of
    g's row masks with those columns cleared; it exists because every row
    set's surplus is at least d_min - 1.
    ``max_exact_s`` raises the limit of the d_min walk (``d_min_bound``).
    """
    nodes = _defining_set(g, gf, nodes)
    d_min = d_min_bound(g, max_exact_s).value
    k = g.n - d_min + 1
    full_cols = fully_connected_columns(g)
    a = len(full_cols)
    r_m = g.n - a
    if k < r_m:
        raise InfeasibleError(
            "systematic construction at the subset bound needs k_min >= r_M: %d < %d"
            % (k, r_m))

    reserved = sum(1 << j for j in full_cols[a - (d_min - 1):])
    matching = _hall_matching(tuple(m & ~reserved for m in g._masks))
    return _subcode(RSCode(gf, nodes, k), _matched_rows(g, matching),
                    "systematic-dmin", matching, claimed_distance=d_min, distance_exact=True)


def systematic_dsys(g: ConstraintGraph, gf: GF, nodes=None,
                    max_exact_s=None) -> CodeSpec:
    """Systematic code achieving the systematic ceiling d_sys.

    Uses the matching minimizing the worst row-zero count; above the exact
    search's limit (``k_sys_search(g, max_exact_s)``) the heuristic's
    matching is used instead (``bounds._k_sys_heuristic``: the Hall matching,
    improved one row move at a time) and the claimed distance (still a valid
    lower bound) is flagged inexact.
    """
    return _matched_subcode(g, gf, nodes, None, "systematic-dsys", max_exact_s)


def _matched_subcode(g: ConstraintGraph, gf: GF, nodes, k, mode: str,
                     max_exact_s) -> CodeSpec:
    """The subcode of the [n, k] RS code (k None meaning k_sys) on the
    matching that minimizes the worst row-zero count, with the claimed
    distance n - k + 1 (``_claim_exact``).  The matched rows have k_sys - 1
    zeros at most, so ``_subcode`` refuses exactly the k below k_sys."""
    nodes = _defining_set(g, gf, nodes)
    k_sys = k_sys_search(g, max_exact_s)
    k = k_sys.value if k is None else k
    # the witness is a matching of g that the search found: no second check
    return _subcode(RSCode(gf, nodes, k), _matched_rows(g, k_sys.witness),
                    mode, k_sys.witness, claimed_distance=g.n - k + 1,
                    distance_exact=_claim_exact(k_sys, k))


def _claim_exact(k_sys: Bound, k: int) -> bool:
    """Whether a systematic code's claimed distance n - k + 1 is exact: it
    is when the k_sys search was and k is its value."""
    return k_sys.exact and k == k_sys.value


def _pick_covering_combination(fa, basis, log_gen, outside):
    """Left-nullspace element whose codeword vanishes exactly off ``outside``.

    Starts from the first basis vector and greedily mixes in further basis
    codewords to clear spurious zeros, choosing at each step the smallest
    scalar that fixes the target position without reintroducing a zero at an
    already-nonzero one.  Falls back to the current best effort if some
    position cannot be fixed (possible only at the very edge q == n).
    """
    basis_rows = fa.vec_mat_logs(fa.logs(basis), log_gen)
    h, row = basis[0], basis_rows[0]
    for j in np.flatnonzero(outside):
        if row[j]:
            continue
        for b, b_row in zip(basis, basis_rows):
            if not b_row[j]:
                continue
            # c clears position m exactly when c = -row[m] / b_row[m]
            both = outside & (row != 0) & (b_row != 0)
            forbidden = np.zeros(fa.q, dtype=bool)
            forbidden[0] = True
            forbidden[fa.neg(fa.mul(row[both], fa.inv(b_row[both])))] = True
            c = np.argmin(forbidden)
            if forbidden[c]:
                continue
            h, row = fa.add(h, fa.mul(c, b)), fa.add(row, fa.mul(c, b_row))
            break
        else:
            break
    return h, row


def mds_nullspace_construct(g: ConstraintGraph, gf: GF, mds_generator,
                            systematic: bool = True, matching=None,
                            max_exact_s=None) -> CodeSpec:
    """Build the code from an arbitrary [n, k] MDS generator matrix.

    The rows that must vanish come from the matched adjacency in systematic
    mode, on ``k_sys_search(g, max_exact_s)``'s matching unless ``matching``
    is given, and from the raw adjacency otherwise.  Row i of the output is
    h_i . mds_generator where h_i lies in the left nullspace of the columns
    that row i must zero out; non-MDS input is detected lazily through a
    wrong nullspace dimension.  k is the generator's row count, and the one
    check that the rows fit it is the zero count below.  The spec has no RS
    layer (``rs`` None): RS callers use ``rs_nullspace_construct``.
    """
    gen = symbols(mds_generator, gf.q, "generator entries", ndim=2)
    k, n = gen.shape
    if n != g.n:
        raise ValueError("generator has %d columns but the graph has %d" % (n, g.n))
    exact = False
    if systematic:
        k_sys = k_sys_search(g, max_exact_s)
        exact = _claim_exact(k_sys, k)
        matching = check_matching(g, k_sys.witness if matching is None else matching)
        rows = _matched_rows(g, matching)
    else:
        matching, rows = None, g.adjacency
    zero = np.asarray(rows) == 0
    if (zero.sum(axis=1) > k - 1).any():
        raise InfeasibleError(
            "a row needs more zeros than the MDS dimension %d allows" % k)
    fa = field_arrays(gf)
    log_gen = fa.logs(gen)
    T, G = [], []
    for i, zs in enumerate(zero):
        if zs.any():
            basis = np.array(left_nullspace_basis(gf, gen[:, zs]), dtype=fa.dtype)
        else:
            basis = np.eye(k, dtype=fa.dtype)  # no constraint: whole row space
        if len(basis) != k - zs.sum():
            raise ValueError("nullspace dimension is off; generator is not MDS")
        h, row = _pick_covering_combination(fa, basis, log_gen, ~zs)
        if matching is not None:
            pivot = row[matching[i]]
            if not pivot:
                raise ValueError("could not hit the systematic pivot; generator is not MDS")
            scale = fa.inv(pivot)
            h, row = fa.mul(h, scale), fa.mul(row, scale)
        T.append(h)
        G.append(row)
    spec = CodeSpec(gf=gf, rs=None, T=np.array(T).tolist(), G=np.array(G).tolist(),
                    mode="mds-nullspace", matching=matching, claimed_distance=n - k + 1,
                    distance_exact=exact)
    spec.consistent = True
    return spec


def rs_nullspace_construct(g: ConstraintGraph, gf: GF, k: int | None = None, nodes=None,
                           max_exact_s=None) -> CodeSpec:
    """The ``mds-nullspace`` code on the [n, k] RS code, k defaulting to k_sys:
    the ``systematic-dsys`` matching and subcode at dimension k."""
    return _matched_subcode(g, gf, nodes, k, "mds-nullspace", max_exact_s)


def validity_check(g: ConstraintGraph, G) -> bool:
    """True iff every structural zero of the adjacency matrix is zero in G."""
    if len(G) != g.s or set(map(len, G)) != {g.n}:
        raise ValueError("generator shape %dx%d does not match graph %dx%d"
                         % (len(G), len(G[0]) if G else 0, g.s, g.n))
    # compress picks the entries at the adjacency's zeros, all rows in one pass
    return not any(compress(chain.from_iterable(G), map(not_, chain.from_iterable(g.adjacency))))


def systematic_columns_ok(G, matching) -> bool:
    """True iff columns matching[i] of G form a permuted identity."""
    for i, c in enumerate(matching):
        for r in range(len(G)):
            want = 1 if r == i else 0
            if G[r][c] != want:
                return False
    return True
