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
it raises and lowers.

Both searches are exponential by nature, so each runs exhaustively only up
to a row count: SUBSET_GUARD rows for the ``d_min`` walk, MATCHING_GUARD
for the exact ``k_sys`` search.  Every entry takes one argument,
``max_exact_s``, that raises both limits and never lowers either
(``graph.exact_limit``).  Above its limit ``d_min_bound`` raises, while
``k_sys_search`` alone picks the greedy fallback, an upper bound flagged
inexact.  Each graph runs each search at most once and keeps the result;
the limits are still checked on every call, ahead of the stored result.

Every search returns a ``Bound``: the interval [floor, value] that holds
the minimum, its witness and the method that found it.  ``verify``'s
distance report is one too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from itertools import compress
from operator import and_

from .graph import (ConstraintGraph, bits_mask, check_matching, check_subset_limit,
                    exact_limit, find_matching, min_surplus)

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
    return g.n - min((g.row_mask(i) & ~matched).bit_count() for i in range(g.s))


def _column_rows(g: ConstraintGraph) -> list[tuple[int, ...]]:
    """For each column, the rows adjacent to it, in order."""
    return [tuple(compress(range(g.s), col)) for col in zip(*g.adjacency)]


def _k_sys_exact(g: ConstraintGraph, k_floor: int) -> Bound:
    s, n = g.s, g.n
    supports = [g.support(i) for i in range(s)]
    col_rows = _column_rows(g)
    cur_zeros = [n - len(supports[i]) for i in range(s)]
    assign = [0] * s
    best: list = [None, None]  # k, matching
    # Once rows 0..i-1 hold the columns of U, the zero counts depend on U
    # alone, so a second visit to U, after its subtree was searched, cannot
    # beat the best found since.
    explored: set = set()

    def dfs(i: int, used: int):
        if best[0] == k_floor:
            return
        if i == s:
            k_here = max(cur_zeros) + 1
            if best[0] is None or k_here < best[0]:
                best[0] = k_here
                best[1] = tuple(assign)
            return
        for c in supports[i]:
            if used >> c & 1:
                continue
            nxt = used | 1 << c
            if nxt in explored:
                continue
            for r in col_rows[c]:
                cur_zeros[r] += 1
            cur_zeros[i] -= 1  # row i keeps its own column
            # zeros only grow as the matching extends, so this is a lower bound
            if best[0] is None or max(cur_zeros) + 1 < best[0]:
                # a reached leaf always improves, so it never recurs
                if i + 1 < s and len(explored) < EXPLORED_CAP:
                    explored.add(nxt)
                assign[i] = c
                dfs(i + 1, nxt)
            for r in col_rows[c]:
                cur_zeros[r] -= 1
            cur_zeros[i] += 1

    dfs(0, 0)
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
    search assigns rows in order, depth-first, visiting each set of columns
    taken by the rows so far once; it prunes any partial assignment whose
    zero counts already rule out an improvement and stops early once the
    k_min floor is reached.  The heuristic improves the Hall matching by
    moving one row at a time to a free column, taking the first move that
    lowers k; a swap of two rows' columns keeps the column set, so none is
    tried.  Its result is an upper bound with no floor, so it is never
    ``exact``, even where it meets k_min or s: "exact" marks the exact search.
    """
    start = find_matching(g)  # raises NoMatchingError with a Hall witness
    if g.s > exact_limit(max_exact_s, MATCHING_GUARD):
        return g._solve("k_sys heuristic", lambda: _k_sys_heuristic(g, start))
    # the subset limit is never below the matching limit, so this cannot raise
    k_floor = g.n - d_min_bound(g, max_exact_s).value + 1
    return g._solve("k_sys exact", lambda: _k_sys_exact(g, k_floor))


def fully_connected_columns(g: ConstraintGraph):
    """Columns adjacent to every message row."""
    common = reduce(and_, map(g.row_mask, range(g.s)))
    return [j for j in range(g.n) if common >> j & 1]


def bounds_report(g: ConstraintGraph, max_exact_s=None) -> BoundsReport:
    """Aggregate report; ``k_sys`` is the heuristic's above its limit."""
    return BoundsReport(g.n, d_min_bound(g, max_exact_s), k_sys_search(g, max_exact_s),
                        len(fully_connected_columns(g)))
