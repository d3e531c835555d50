"""Builders for generator matrices valid for a constraint graph.

All constructions extract the code as a subcode of an [n, k] Reed-Solomon
code: per message row i, a transformation polynomial vanishing on the nodes
where the row must be zero supplies row i of the generator as its vector of
evaluations.  Stacking the coefficient vectors gives the transform matrix T
with G = T . G_RS.

Modes:

* ``generic``        zeros taken straight from the adjacency matrix, rows
                     left monic; the dimension may fall below s.
* ``systematic-dmin`` achieves the subset bound d_min when the count of
                     fully connected columns allows it, by keeping enough of
                     them out of the matching.
* ``systematic-dsys`` achieves the systematic ceiling d_sys via the matching
                     that minimizes the worst row-zero count.
* ``mds-nullspace``  same codes built from any MDS generator instead of
                     polynomial evaluation: each row is a left-nullspace
                     combination of the columns that must vanish.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .arrays import field_arrays, symbols
from .bounds import MATCHING_GUARD, best_matching, d_min_bound, fully_connected_columns
from .errors import DecodingError, InconsistentCodeError, InfeasibleError
from .field import GF
from .graph import (ConstraintGraph, SUBSET_GUARD, check_matching,
                    find_matching, matched_adjacency, row_zero_stats)
from .linalg import identity_matrix, invert, left_nullspace_basis, rref, vec_mat
from .polys import poly_eval, poly_from_roots, poly_scale
from .rs import RSCode, default_defining_set, evaluate, generator_matrix

MODES = ("generic", "systematic-dmin", "systematic-dsys", "mds-nullspace")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(eq=False)
class CodeSpec:
    """A constructed code: field, RS layer, transform T, generator G = T.G_RS."""

    gf: GF
    rs: RSCode | None
    T: list
    G: list
    mode: str
    matching: tuple[int, ...] | None
    claimed_distance: int
    distance_exact: bool

    @property
    def s(self) -> int:
        return len(self.G)

    @property
    def n(self) -> int:
        return len(self.G[0])

    @property
    def k(self) -> int:
        return len(self.T[0])

    @functools.cached_property
    def _tables(self) -> "SpecTables":
        """Array tables for encode, fast read and decode, each built on its
        first use; not a field, so it never enters repr or to_dict."""
        return SpecTables(self)

    def to_dict(self) -> dict:
        if self.rs is None:
            raise ValueError("cannot serialize a spec without a defining set")
        return {
            "field": self.gf.to_dict(),
            "defining_set": list(self.rs.nodes),
            "k": self.rs.k,
            "T": [list(r) for r in self.T],
            "G": [list(r) for r in self.G],
            "mode": self.mode,
            "matching": list(self.matching) if self.matching is not None else None,
            "claimed_distance": self.claimed_distance,
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
        mode = d["mode"]
        if mode not in MODES:
            raise ValueError("unknown mode %r" % (mode,))
        matching = d.get("matching")
        if matching is not None and not (
                isinstance(matching, (list, tuple)) and len(matching) == len(G)
                and all(_is_int(c) and 0 <= c < rs.n for c in matching)
                and len(set(matching)) == len(matching)):
            raise ValueError("matching must be %d distinct columns in [0, %d)"
                             % (len(G), rs.n))
        if not (_is_int(d["claimed_distance"]) and 1 <= d["claimed_distance"] <= rs.n):
            raise ValueError("claimed_distance must be an integer in [1, %d]" % rs.n)
        if not isinstance(d["distance_exact"], bool):
            raise ValueError("distance_exact must be true or false")
        spec = cls(gf=gf, rs=rs, T=T, G=G, mode=mode,
                   matching=tuple(matching) if matching is not None else None,
                   claimed_distance=d["claimed_distance"],
                   distance_exact=d["distance_exact"])
        bad = [i for i, row in enumerate(evaluate(rs, T)) if row != G[i]]
        if bad:
            raise InconsistentCodeError("G differs from T . G_RS in rows %s" % bad, spec)
        return spec

    @classmethod
    def load(cls, path) -> "CodeSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


class SpecTables:
    """One spec's matrices as int32 logs on field arrays (``arrays``).

    ``log_G`` (s x n) is built on the first encode or fast read.
    ``log_T`` (s x k) and ``log_R``, the logs of a k x s right inverse R of T
    (T R = I), are built on the first decode only, so that m = u R solves
    m T = u.  For a systematic spec, G = T V with V the RS generator and the
    matched columns of G unit columns, so T V_M = I: R is V_M, the matched
    columns of the code's node-power table, and no elimination runs.
    Otherwise R holds the inverse of T's pivot columns in their rows and
    zeros elsewhere.
    """

    def __init__(self, spec: CodeSpec):
        # the spec's parts, not the spec: the spec holds this object
        self.fa = field_arrays(spec.gf)
        self._gf, self._rs, self._T, self._G = spec.gf, spec.rs, spec.T, spec.G
        self._matching = spec.matching

    @functools.cached_property
    def log_G(self) -> np.ndarray:
        return self.fa.log[np.array(self._G)]

    @functools.cached_property
    def log_T(self) -> np.ndarray:
        return self.fa.log[np.array(self._T)]

    @functools.cached_property
    def log_R(self) -> np.ndarray:
        fa, T = self.fa, self._T
        s, k = len(T), len(T[0])
        if self._matching is not None and systematic_columns_ok(self._G, self._matching):
            return self._rs.log_powers[:, list(self._matching)]
        _, pivots = rref(self._gf, T)
        if len(pivots) < s:
            raise DecodingError(
                "transform matrix has rank %d < s=%d; decoding is ambiguous"
                % (len(pivots), s))
        log_R = np.full((k, s), fa.zero_log, dtype=np.int32)
        log_R[pivots] = fa.log[np.array(invert(self._gf, [[row[c] for c in pivots] for row in T]))]
        return log_R


def _check_field_and_nodes(g: ConstraintGraph, gf: GF, nodes):
    if gf.q < g.n:
        raise ValueError("field order %d is below the code length %d" % (gf.q, g.n))
    if nodes is None:
        return default_defining_set(gf, g.n)
    nodes = tuple(nodes)
    if len(nodes) != g.n:
        raise ValueError("defining set must have %d elements" % g.n)
    return nodes


def _zero_sets(rows):
    return [tuple(j for j, v in enumerate(r) if v == 0) for r in rows]


def _subcode(rs: RSCode, rows, mode: str, matching, claimed_distance: int,
             distance_exact: bool) -> CodeSpec:
    """The subcode of rs whose row i vanishes where rows[i] is zero: T holds
    the vanishing polynomials' coefficients (padded to k), each scaled to 1
    at node matching[i] when a matching is given, and G = T . G_RS."""
    gf, T = rs.gf, []
    for i, zs in enumerate(_zero_sets(rows)):
        t = poly_from_roots(gf, [rs.nodes[j] for j in zs])
        if len(t) > rs.k:
            raise InfeasibleError(
                "row %d needs %d zeros but the RS dimension is only %d" % (i, len(zs), rs.k))
        if matching is not None:
            pivot = poly_eval(gf, t, rs.nodes[matching[i]])
            t = poly_scale(gf, t, gf.inv(pivot))
        T.append(t + [0] * (rs.k - len(t)))
    return CodeSpec(gf=gf, rs=rs, T=T, G=evaluate(rs, T), mode=mode, matching=matching,
                    claimed_distance=claimed_distance, distance_exact=distance_exact)


def generic_subcode(g: ConstraintGraph, gf: GF, nodes=None, k=None,
                    subset_guard: int = SUBSET_GUARD) -> CodeSpec:
    """Subcode with zeros taken directly from the adjacency matrix.

    Rows are left monic; equal zero patterns give equal rows, so the rank can
    drop below s.  Claimed distance n - k + 1 is the RS floor, not exact.
    Defaults k to n - d_min + 1, the largest dimension whose floor matches
    the subset bound.
    """
    nodes = _check_field_and_nodes(g, gf, nodes)
    max_zeros = row_zero_stats(g)[0]
    if k is None:
        # the bound collapses to <= 0 on Hall-violating graphs; distance of a
        # real code is always >= 1, so cap the default at the full dimension
        k = g.n - max(d_min_bound(g, subset_guard)[0], 1) + 1
    if not max_zeros < k <= g.n:
        raise ValueError(
            "need RS dimension in (%d, %d], got k=%d" % (max_zeros, g.n, k))
    return _subcode(RSCode(gf, nodes, k), g.adjacency, "generic", None,
                    claimed_distance=g.n - k + 1, distance_exact=False)


def systematic_dmin(g: ConstraintGraph, gf: GF, nodes=None,
                    subset_guard: int = SUBSET_GUARD) -> CodeSpec:
    """Systematic code achieving the subset bound d_min.

    Feasible when k_min >= r_M, i.e. at least d_min - 1 fully connected
    columns exist.  Keeps d_min - 1 of them (the highest-indexed ones) out of
    the matching so that every matched-adjacency row retains at least d_min
    ones, then runs the usual RS-subcode extraction at k = n - d_min + 1.
    """
    nodes = _check_field_and_nodes(g, gf, nodes)
    d_min, _ = d_min_bound(g, subset_guard)
    k = g.n - d_min + 1
    full_cols = fully_connected_columns(g)
    a = len(full_cols)
    r_m = g.n - a
    if k < r_m:
        raise InfeasibleError(
            "systematic construction at the subset bound needs k_min >= r_M: %d < %d"
            % (k, r_m))

    keep = a - (d_min - 1)
    reserved = set(full_cols[keep:])  # stay outside the matching
    cols = [j for j in range(g.n) if j not in reserved]
    sub = ConstraintGraph.from_rows([[row[j] for j in cols] for row in g.adjacency])
    sub_matching = find_matching(sub)
    matching = tuple(cols[c] for c in sub_matching)

    matched = matched_adjacency(g, matching)
    assert row_zero_stats(matched)[0] <= g.n - d_min
    return _subcode(RSCode(gf, nodes, k), matched.rows, "systematic-dmin", matching,
                    claimed_distance=d_min, distance_exact=True)


def systematic_dsys(g: ConstraintGraph, gf: GF, nodes=None,
                    matching_guard: int = MATCHING_GUARD,
                    subset_guard: int = SUBSET_GUARD) -> CodeSpec:
    """Systematic code achieving the systematic ceiling d_sys.

    Uses the matching minimizing the worst row-zero count; above the exact
    search guard the greedy matching is used instead and the claimed distance
    (still a valid lower bound) is flagged inexact.
    """
    nodes = _check_field_and_nodes(g, gf, nodes)
    k, matching, exact = best_matching(g, matching_guard, subset_guard)
    return _subcode(RSCode(gf, nodes, k), matched_adjacency(g, matching).rows,
                    "systematic-dsys", matching,
                    claimed_distance=g.n - k + 1, distance_exact=exact)


def _pick_covering_combination(gf: GF, basis, gen, zero_cols):
    """Left-nullspace element whose codeword vanishes exactly on zero_cols.

    Starts from the first basis vector and greedily mixes in further basis
    codewords to clear spurious zeros, choosing at each step the smallest
    scalar that fixes the target position without reintroducing a zero at an
    already-nonzero one.  Falls back to the current best effort if some
    position cannot be fixed (possible only at the very edge q == n).
    """
    n = len(gen[0])
    outside = [j for j in range(n) if j not in zero_cols]
    basis_rows = [vec_mat(gf, b, gen) for b in basis]
    h, row = list(basis[0]), basis_rows[0]
    for j in outside:
        if row[j] != 0:
            continue
        fixed = False
        for b, b_row in zip(basis, basis_rows):
            if b_row[j] == 0:
                continue
            forbidden = {0}
            for j2 in outside:
                if j2 != j and row[j2] != 0 and b_row[j2] != 0:
                    forbidden.add(gf.neg(gf.div(row[j2], b_row[j2])))
            c = next((v for v in range(1, gf.q) if v not in forbidden), None)
            if c is None:
                continue
            h = [gf.add(hv, gf.mul(c, bv)) for hv, bv in zip(h, b)]
            row = [gf.add(rv, gf.mul(c, bv)) for rv, bv in zip(row, b_row)]
            fixed = True
            break
        if not fixed:
            break
    return h, row


def mds_nullspace_construct(g: ConstraintGraph, gf: GF, mds_generator,
                            target_distance: int | None = None,
                            systematic: bool = True, matching=None, nodes=None,
                            matching_guard: int = MATCHING_GUARD,
                            subset_guard: int = SUBSET_GUARD) -> CodeSpec:
    """Build the code from an arbitrary [n, k] MDS generator matrix.

    Row i of the output is h_i . mds_generator where h_i lies in the left
    nullspace of the columns that row i must zero out (from the matched
    adjacency in systematic mode, the raw adjacency otherwise).  Non-MDS
    input is detected lazily through a wrong nullspace dimension.  ``nodes``
    optionally records the defining set when the generator came from an RS
    code, which keeps the constructed code decodable.
    """
    symbols(mds_generator, gf.q, "generator entries", ndim=2)
    target_distance = _mds_target_distance(g, mds_generator, target_distance)
    search = best_matching(g, matching_guard, subset_guard) if systematic else None
    return _mds_nullspace(g, gf, mds_generator, target_distance, search, matching, nodes)


def rs_nullspace_construct(g: ConstraintGraph, gf: GF, k: int | None = None, nodes=None,
                           matching_guard: int = MATCHING_GUARD,
                           subset_guard: int = SUBSET_GUARD) -> CodeSpec:
    """The systematic ``mds-nullspace`` code on the [n, k] RS generator,
    k defaulting to k_sys.  One matching search gives k_sys, the matching
    and whether the claimed distance is exact."""
    nodes = _check_field_and_nodes(g, gf, nodes)
    search = best_matching(g, matching_guard, subset_guard)
    k_sys = search[0]
    k = k_sys if k is None else k
    if k < k_sys:
        raise InfeasibleError(
            "k=%d is below the systematic minimum %d for this graph" % (k, k_sys))
    generator = generator_matrix(RSCode(gf, nodes, k))
    target_distance = _mds_target_distance(g, generator, g.n - k + 1)
    return _mds_nullspace(g, gf, generator, target_distance, search, None, nodes)


def _mds_target_distance(g: ConstraintGraph, mds_generator, target_distance):
    k = len(mds_generator)
    n = len(mds_generator[0])
    if n != g.n:
        raise ValueError("generator has %d columns but the graph has %d" % (n, g.n))
    if target_distance is None:
        return n - k + 1
    if k != n - target_distance + 1:
        raise ValueError("target distance %d needs an [%d, %d] MDS generator"
                         % (target_distance, n, n - target_distance + 1))
    return target_distance


def _mds_nullspace(g: ConstraintGraph, gf: GF, mds_generator, target_distance: int,
                   search, matching, nodes) -> CodeSpec:
    """``search`` is best_matching's (k_sys, matching, exact) for a
    systematic code and None otherwise."""
    k = len(mds_generator)
    n = len(mds_generator[0])
    exact = False
    if search is not None:
        k_sys, best, found_exact = search
        if matching is None:
            if k < k_sys:
                raise InfeasibleError(
                    "dimension %d cannot host a systematic code (needs >= %d)"
                    % (k, k_sys))
            matching = best
        else:
            matching = check_matching(g, matching)
        exact = found_exact and target_distance == n - k_sys + 1
        rows = matched_adjacency(g, matching).rows
    else:
        matching = None
        rows = g.adjacency

    zero_sets = _zero_sets(rows)
    if any(len(zs) > k - 1 for zs in zero_sets):
        raise InfeasibleError(
            "a row needs more zeros than the MDS dimension %d allows" % k)

    T = []
    G = []
    for i, zs in enumerate(zero_sets):
        if zs:
            cols = [[grow[j] for j in zs] for grow in mds_generator]
            basis = left_nullspace_basis(gf, cols)
        else:
            basis = identity_matrix(k)  # no constraint: whole row space
        if len(basis) != k - len(zs):
            raise ValueError("nullspace dimension is off; generator is not MDS")
        h, row = _pick_covering_combination(gf, basis, mds_generator, set(zs))
        if search is not None:
            pivot = row[matching[i]]
            if pivot == 0:
                raise ValueError("could not hit the systematic pivot; generator is not MDS")
            scale = gf.inv(pivot)
            h = [gf.mul(scale, v) for v in h]
            row = [gf.mul(scale, v) for v in row]
        T.append(h)
        G.append(row)

    rs = RSCode(gf, tuple(nodes), k) if nodes is not None else None
    return CodeSpec(gf=gf, rs=rs, T=T, G=G, mode="mds-nullspace",
                    matching=matching, claimed_distance=target_distance,
                    distance_exact=exact)


def validity_check(g: ConstraintGraph, G) -> bool:
    """True iff every structural zero of the adjacency matrix is zero in G."""
    if len(G) != g.s or any(len(r) != g.n for r in G):
        raise ValueError("generator shape %dx%d does not match graph %dx%d"
                         % (len(G), len(G[0]) if G else 0, g.s, g.n))
    return all(a or v == 0
               for arow, grow in zip(g.adjacency, G)
               for a, v in zip(arow, grow))


def systematic_columns_ok(G, matching) -> bool:
    """True iff columns matching[i] of G form a permuted identity."""
    for i, c in enumerate(matching):
        for r in range(len(G)):
            want = 1 if r == i else 0
            if G[r][c] != want:
                return False
    return True
