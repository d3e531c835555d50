"""Distance bounds derived from the constraint graph.

Two quantities drive everything downstream:

* ``d_min``: over every nonempty row subset, the neighborhood size minus the
  subset size plus one, minimized (``graph.min_surplus`` plus one).  No code
  valid for the graph (with a full q^s message space) can beat it.
* ``k_sys``: over every row-covering matching, the maximum number of zeros in
  any row of the matched adjacency matrix plus one, minimized.  It caps what
  a systematic linear code can achieve at distance ``d_sys = n - k_sys + 1``.

Row i of the matched adjacency keeps its own matched column and loses every
other one, so a matching's score depends only on its set of matched columns,
never on which row holds which column.  Both ``k_sys`` searches work on that
set: the exact search visits each column set once, remembering at most
EXPLORED_CAP of them, and the fallback scores a move of one row by the rows
it raises and lowers.  The exact search runs on the graph's row masks: one
int holds every row's zero count, a field of n + 2 bits each, and another
holds every row mask in the same fields, so taking column c adds the
column's rows, (packed >> c) & ones, to all counts in one addition, and one
more addition and one AND test every count against the best k so far.  It
builds no support tuples and no per-column row lists.

Both searches are exponential by nature, so each runs exhaustively only up
to a row count: SUBSET_GUARD rows for the ``d_min`` walk, MATCHING_GUARD
for the exact ``k_sys`` search.  Every entry takes one argument,
``max_exact_s``, that raises both limits and never lowers either
(``graph.exact_limit``).  Above its limit ``d_min_bound`` raises, while
``k_sys_search`` alone falls back to ``_k_sys_heuristic``, the Hall
matching improved one row move at a time, an upper bound flagged inexact.
Each graph runs each search at most once and keeps the result; the limits
are still checked on every call, ahead of the stored result.

Every search returns a ``Bound``: the interval [floor, value] that holds
the minimum, its witness and the method that found it.  ``verify``'s
distance report is one too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from operator import and_

from .graph import (ConstraintGraph, _greedy_matching, bits_mask, check_matching,
                    check_subset_limit, exact_limit, find_matching, min_surplus)

MATCHING_GUARD = 12
# Column sets the exact k_sys search remembers.  Past the cap it stops
# remembering and may search a set again: it costs time, never the answer.
EXPLORED_CAP = 1 << 16
# The construction modes ``construct`` builds.  They are held here, with no
# numpy behind them, so the CLI can offer them without loading ``construct``.
MODES = ("generic", "systematic-dmin", "systematic-dsys", "mds-nullspace")


@dataclass(frozen=True)
class Bound:
    """What a search proved about a minimum: it lies in [floor, value].

    ``value`` is reached by ``witness``, so it is the upper end; ``floor`` is
    the proven lower end, None when the search proves none.  ``method``
    names the search: "exhaustive" searches prove their value, so they are
    ``exact``, and the "heuristic" proves no floor.
    """

    value: int
    floor: int | None
    witness: tuple
    method: str

    @property
    def exact(self) -> bool:
        return self.floor == self.value


@dataclass
class BoundsReport:
    """The two searches' bounds and what follows from them; r_M = n - a for
    the a fully connected columns, and Theorem 2 needs k_min >= r_M.  The
    derived values are properties; ``witness_subset`` alone is assignable,
    and an assignment replaces the d_min bound's witness."""

    n: int
    d_min_bound: Bound
    k_sys_bound: Bound
    a: int

    @property
    def d_min(self) -> int:
        return self.d_min_bound.value

    @property
    def witness_subset(self) -> tuple:
        return self.d_min_bound.witness

    @witness_subset.setter
    def witness_subset(self, witness) -> None:
        self.d_min_bound = replace(self.d_min_bound, witness=tuple(witness))

    @property
    def k_min(self) -> int:
        return self.n - self.d_min + 1

    @property
    def k_sys(self) -> int:
        return self.k_sys_bound.value

    @property
    def witness_matching(self) -> tuple:
        return self.k_sys_bound.witness

    @property
    def search_exact(self) -> bool:
        return self.k_sys_bound.exact

    @property
    def d_sys(self) -> int:
        return self.n - self.k_sys + 1

    @property
    def r_m(self) -> int:
        return self.n - self.a

    @property
    def thm2_feasible(self) -> bool:
        return self.k_min >= self.r_m

    def to_dict(self) -> dict:
        return {
            "d_min": self.d_min,
            "k_min": self.k_min,
            "d_sys": self.d_sys,
            "k_sys": self.k_sys,
            "exact": self.search_exact,
            "witness_subset": list(self.witness_subset),
            "witness_matching": list(self.witness_matching),
            "a": self.a,
            "r_M": self.r_m,
            "thm2_feasible": self.thm2_feasible,
        }


def d_min_bound(g: ConstraintGraph, max_exact_s=None) -> Bound:
    """d_min, exact, its witness the lexicographically smallest minimizing
    subset.  Exhaustive over all nonempty row subsets, so
    ``check_subset_limit`` refuses s above ``exact_limit(max_exact_s,
    SUBSET_GUARD)``."""
    check_subset_limit(g, max_exact_s, "bound")
    return g._solve("d_min", lambda: _d_min_exhaustive(g))


def _d_min_exhaustive(g: ConstraintGraph) -> Bound:
    surplus, witness = min_surplus(g)
    return Bound(surplus + 1, surplus + 1, witness, "exhaustive")


def matching_k(g: ConstraintGraph, matching) -> int:
    """Max row zeros + 1 of the matched adjacency: row i loses the others' matched columns."""
    matched = sum(1 << c for c in check_matching(g, matching))
    return _leaf_k(g._masks, g.n, matched)


def _leaf_k(masks, n: int, matched: int) -> int:
    """k of a matching whose columns are the mask matched: n minus the
    fewest columns a row keeps."""
    return n - min([(m & ~matched).bit_count() for m in masks])


def _k_sys_exact(g: ConstraintGraph, k_floor: int) -> Bound:
    masks, s, n = g._masks, g.s, g.n
    # The search's first leaf is the greedy matching, each row in turn on
    # its first free column (the Hall matching's first pass): no prune
    # fires on the way down, as a row's count reaches n only once every
    # column of it is taken, and nothing is explored yet.  When that leaf meets the k_min floor the search stops
    # there, so it is the answer, read with none of the search's set-up.
    # Otherwise the search starts from it: a leaf must beat the best so
    # far, so no other leaf is taken before it, and a node it prunes on its
    # way down holds no better leaf and is pruned again on any later visit.
    incumbent = n + 1, None
    greedy, taken = _greedy_matching(masks)
    if None not in greedy:
        k = _leaf_k(masks, n, taken)
        if k == k_floor:
            return Bound(k, k, tuple(greedy), "exhaustive")
        incumbent = k, tuple(greedy)
    # Row r's zero count and row r's mask each sit in bits [w r, w (r + 1))
    # of one int, so (packed >> c) & ones marks the rows adjacent to column
    # c.  A field holds at most n < 2^(w - 2), so adding 2^(w-1) - 1 - b to
    # every count sets a field's top bit exactly where its count exceeds b.
    w = n + 2
    ones = ((1 << w * s) - 1) // ((1 << w) - 1)
    top = ones << w - 1
    packed = zeros = 0
    for m in reversed(masks):
        packed = packed << w | m
        zeros = zeros << w | n - m.bit_count()
    assign = [0] * s
    # k, matching, and the lift that flags a count of k - 1 or more: a leaf
    # must beat k, so every row keeps at most k - 2 zeros
    best: list = [*incumbent, top - ones * (incumbent[0] - 1)]
    # Once rows 0..i-1 hold the columns of U, the zero counts depend on U
    # alone, so a second visit to U, after its subtree was searched, cannot
    # beat the best found since.
    explored: set = set()

    def dfs(i: int, used: int, zeros: int) -> bool:
        """Search rows i.. on; True once the k_min floor is reached."""
        own = 1 << w * i  # row i keeps its own column
        free = masks[i] & ~used
        while free:
            bit = free & -free
            free ^= bit
            nxt = used | bit
            if nxt in explored:
                continue
            c = bit.bit_length() - 1
            nxt_zeros = zeros + (packed >> c & ones) - own
            # zeros only grow as the matching extends, so this is a lower bound
            if nxt_zeros + best[2] & top:
                continue
            assign[i] = c
            if i + 1 < s:
                if len(explored) < EXPLORED_CAP:
                    explored.add(nxt)
                if dfs(i + 1, nxt, nxt_zeros):
                    return True
            else:  # a reached leaf always improves, so it never recurs
                k = _leaf_k(masks, n, nxt)
                best[:] = k, tuple(assign), top - ones * (k - 1)
                if k == k_floor:
                    return True
        return False

    dfs(0, 0, zeros)
    return Bound(best[0], best[0], best[1], "exhaustive")


def _k_sys_heuristic(g: ConstraintGraph, start) -> Bound:
    s = g.s
    # rows[c]: the bitmask of the rows adjacent to column c
    rows = list(map(bits_mask, zip(*g.adjacency)))
    match = list(start)
    matched = sum(1 << c for c in match)
    # counts[r]: columns of row r left to it by the matching; k = n - min(counts)
    counts = [(g.row_mask(r) & ~matched).bit_count() for r in range(s)]
    improved = True
    while improved:
        improved = False
        low = min(counts)
        at_low = sum(1 << r for r in range(s) if counts[r] == low)
        at_next = sum(1 << r for r in range(s) if counts[r] == low + 1)
        for i in range(s):
            # Moving row i from column a to c adds one to each row adjacent
            # to a but not to c and takes one from each row adjacent to c but
            # not to a.  The minimum rises iff every row at it gains and no
            # row just above it loses.
            a = match[i]
            if at_low & ~rows[a]:
                continue
            blocked = at_low | at_next & ~rows[a]
            for c in g.support(i):
                if matched >> c & 1 or rows[c] & blocked:
                    continue
                gain, lose = rows[a] & ~rows[c], rows[c] & ~rows[a]
                for r in range(s):
                    counts[r] += (gain >> r & 1) - (lose >> r & 1)
                matched ^= 1 << a | 1 << c
                match[i] = c
                improved = True
                break
            if improved:
                break
    return Bound(g.n - min(counts), None, tuple(match), "heuristic")


def k_sys_search(g: ConstraintGraph, max_exact_s=None) -> Bound:
    """k_sys and its witness matching: the exact search up to s =
    ``exact_limit(max_exact_s, MATCHING_GUARD)``, the heuristic above it.

    A matching is scored by its set of matched columns alone.  The exact
    search assigns rows in order, depth-first, each row's free columns in
    order off its mask, visiting each set of columns taken by the rows so
    far once; it prunes any partial assignment whose packed zero counts
    already rule out an improvement and stops once the k_min floor is
    reached.  Its first leaf, each row on its first free column, is read
    before any of its set-up: at the floor it is the answer, and otherwise
    the search starts from it.  The heuristic improves the Hall matching by
    moving one row at a time to a free column, taking the first move that
    lowers k; a swap of two rows' columns keeps the column set, so none is
    tried.  Its result is an upper bound with no floor, so it is never
    ``exact``, even where it meets k_min or s: "exact" marks the exact search.
    """
    start = find_matching(g)  # raises NoMatchingError with a Hall witness
    if g.s > exact_limit(max_exact_s, MATCHING_GUARD):
        return g._solve("k_sys heuristic", lambda: _k_sys_heuristic(g, start))
    # the subset limit is never below the matching limit, so d_min_bound
    # cannot raise; a stored search needs no k_min floor
    return g._solve("k_sys exact", lambda: _k_sys_exact(
        g, g.n - d_min_bound(g, max_exact_s).value + 1))


def fully_connected_columns(g: ConstraintGraph):
    """Columns adjacent to every message row."""
    common = reduce(and_, g._masks)
    return [j for j in range(g.n) if common >> j & 1]


def bounds_report(g: ConstraintGraph, max_exact_s=None) -> BoundsReport:
    """Aggregate report; ``k_sys`` is the heuristic's above its limit."""
    return BoundsReport(g.n, d_min_bound(g, max_exact_s), k_sys_search(g, max_exact_s),
                        reduce(and_, g._masks).bit_count())
