"""Bipartite encoding-constraint graphs.

The graph has s message vertices (rows) and n code vertices (columns),
stored as an s x n binary adjacency matrix: entry (i, j) is 1 iff code
symbol j may depend on message symbol i.  Rows and columns with no edges
are rejected: an unseen message symbol cannot be encoded, and a code symbol
depending on nothing has no defined semantics here.  ``min_surplus`` is the
one walk over row subsets: it yields the ``d_min`` bound and Hall violators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import GuardExceededError, NoMatchingError
from .field import _as_int, _is_int

SUBSET_GUARD = 20


def exact_limit(max_exact_s, default: int) -> int:
    """The largest s a search runs exhaustively: ``max_exact_s`` raises the
    search's default limit and never lowers it (None keeps the default)."""
    return default if max_exact_s is None else max(max_exact_s, default)


def check_subset_limit(g: ConstraintGraph, max_exact_s, what: str) -> None:
    """Raise GuardExceededError if a 2^s subset walk on g is over its limit."""
    limit = exact_limit(max_exact_s, SUBSET_GUARD)
    if g.s > limit:
        raise GuardExceededError(
            "%s enumerates 2^s subsets; s=%d exceeds the guard %d" % (what, g.s, limit))


def _bit(v) -> int:
    """An adjacency entry as the int 0 or 1.  Python and numpy integers pass;
    a bool, a float or a string raises ValueError."""
    if _as_int(v) in (0, 1):
        return int(v)
    raise ValueError("adjacency entries must be 0 or 1, got %r" % (v,))


@dataclass(frozen=True)
class ConstraintGraph:
    """Validated s x n binary adjacency matrix, s <= n, held as tuples of the
    ints 0 and 1 whatever integer type the entries came in."""

    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(map(_bit, r)) for r in self.adjacency)
        object.__setattr__(self, "adjacency", rows)
        if not rows or not rows[0]:
            raise ValueError("adjacency matrix must be non-empty")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("ragged adjacency rows")
        s = len(rows)
        if s > n:
            raise ValueError("more message symbols than code symbols (s=%d > n=%d)" % (s, n))
        for i, r in enumerate(rows):
            if 1 not in r:
                raise ValueError("message row %d has no edges" % i)
        for j in range(n):
            if all(r[j] == 0 for r in rows):
                raise ValueError("code column %d has no edges" % j)
        masks = tuple(sum(bit << j for j, bit in enumerate(r)) for r in rows)
        object.__setattr__(self, "_masks", masks)
        # completed searches, by name; not a field, so equality, hashing and
        # repr ignore it
        object.__setattr__(self, "_solved", {})

    @property
    def s(self) -> int:
        return len(self.adjacency)

    @property
    def n(self) -> int:
        return len(self.adjacency[0])

    def row_mask(self, i: int) -> int:
        return self._masks[i]

    def support(self, i: int) -> tuple[int, ...]:
        return tuple(j for j, v in enumerate(self.adjacency[i]) if v)

    def _solve(self, name: str, search):
        """search(), run on the first call for this name only.  A search that
        raises stores nothing, so the next call runs it again.  Callers check
        their guards before calling this."""
        try:
            return self._solved[name]
        except KeyError:
            result = self._solved[name] = search()
            return result

    @classmethod
    def from_rows(cls, rows) -> "ConstraintGraph":
        return cls(rows)

    @classmethod
    def from_dict(cls, d: dict) -> "ConstraintGraph":
        g = cls.from_rows(d["adjacency"])
        for key, size, what in (("s", g.s, "rows"), ("n", g.n, "columns")):
            if key in d and not (_is_int(d[key]) and d[key] == size):
                raise ValueError("declared %s=%r does not match %d adjacency %s"
                                 % (key, d[key], size, what))
        return g

    def to_dict(self) -> dict:
        return {"s": self.s, "n": self.n,
                "adjacency": [list(r) for r in self.adjacency]}

    @classmethod
    def load(cls, path) -> "ConstraintGraph":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class MatchedAdjacency:
    """Adjacency matrix after deleting non-matching edges into matched columns."""

    rows: tuple[tuple[int, ...], ...]
    matching: tuple[int, ...]


def load_graph(rows) -> ConstraintGraph:
    """Validate a row-list description into a ConstraintGraph."""
    return ConstraintGraph.from_rows(rows)


def neighborhood_size(g: ConstraintGraph, subset) -> int:
    """Number of code symbols adjacent to any of the given message rows."""
    mask = 0
    for i in subset:
        if not 0 <= i < g.s:
            raise IndexError("row index %r out of range" % (i,))
        mask |= g.row_mask(i)
    return mask.bit_count()


def min_surplus(g: ConstraintGraph, stop=None):
    """(|N(S)| - |S|, S) minimized over nonempty row sets S, S the
    lexicographically smallest minimizer; with ``stop``, the first S whose
    surplus is at most ``stop``.  Walks the sets depth first in lexicographic
    order, keeps a set only when it strictly beats the best so far, and skips
    a branch that cannot: r more rows lower the surplus by at most r."""
    masks, s = g._masks, g.s
    best = [g.n, None]  # every nonempty set has a surplus below n

    def walk(prefix: tuple, union: int, start: int) -> bool:
        for i in range(start, s):
            subset, u = prefix + (i,), union | masks[i]
            val = u.bit_count() - len(subset)
            if val < best[0]:
                best[:] = val, subset
                if stop is not None and val <= stop:
                    return True
            if val - (s - 1 - i) < best[0] and walk(subset, u, i + 1):
                return True
        return False

    walk((), 0, 0)
    return tuple(best)


def hall_check(g: ConstraintGraph, max_exact_s=None):
    """(True, None) if every row subset has a neighborhood at least as large,
    else (False, lexicographically smallest violating subset).  By Hall's
    theorem that holds exactly when a matching covers every row, so the
    subset walk runs only when ``find_matching`` finds none, and only that
    walk is limited: to s <= ``exact_limit(max_exact_s, SUBSET_GUARD)``."""
    try:
        find_matching(g)
        return True, None
    except NoMatchingError:
        pass
    check_subset_limit(g, max_exact_s, "Hall check")
    return False, min_surplus(g, stop=-1)[1]


def _augment(g: ConstraintGraph, i: int, owner: dict, match: list, seen: set) -> bool:
    for c in g.support(i):
        if c in seen:
            continue
        seen.add(c)
        if c not in owner or _augment(g, owner[c], owner, match, seen):
            owner[c] = i
            match[i] = c
            return True
    return False


def find_matching(g: ConstraintGraph) -> tuple[int, ...]:
    """Matching covering every row, scanning rows in order and preferring the
    smallest admissible column; raises NoMatchingError with a Hall witness.
    Found once per graph."""
    return g._solve("matching", lambda: _hall_matching(g))


def _hall_matching(g: ConstraintGraph) -> tuple[int, ...]:
    owner: dict[int, int] = {}
    match: list = [None] * g.s
    for i in range(g.s):
        for c in g.support(i):
            if c not in owner:
                owner[c] = i
                match[i] = c
                break
    for i in range(g.s):
        if match[i] is not None:
            continue
        seen: set = set()
        if not _augment(g, i, owner, match, seen):
            witness = tuple(sorted({i} | {owner[c] for c in seen}))
            raise NoMatchingError(
                "rows %s share only %d neighboring columns" % (list(witness), len(seen)),
                witness=witness)
    return tuple(match)


def check_matching(g: ConstraintGraph, matching) -> tuple[int, ...]:
    """Validate a row -> column assignment as a covering matching of g."""
    matching = tuple(matching)
    if len(matching) != g.s:
        raise ValueError("matching must assign all %d rows" % g.s)
    if len(set(matching)) != g.s:
        raise ValueError("matching columns are not distinct")
    for i, c in enumerate(matching):
        if not 0 <= c < g.n or g.adjacency[i][c] != 1:
            raise ValueError("matched pair (%d, %r) is not an edge" % (i, c))
    return matching


def matched_adjacency(g: ConstraintGraph, matching) -> MatchedAdjacency:
    """Zero out every matched column except at its own matched row."""
    matching = check_matching(g, matching)
    rows = [list(r) for r in g.adjacency]
    for i, c in enumerate(matching):
        for r in range(g.s):
            if r != i:
                rows[r][c] = 0
    return MatchedAdjacency(tuple(tuple(r) for r in rows), matching)


def _rows_of(obj):
    if isinstance(obj, ConstraintGraph):
        return obj.adjacency
    if isinstance(obj, MatchedAdjacency):
        return obj.rows
    return obj


def row_zero_stats(obj):
    """(max zeros in any row, per-row zero counts) of an adjacency-like matrix."""
    rows = _rows_of(obj)
    counts = [len(r) - sum(r) for r in rows]
    return max(counts), counts
