"""Bipartite encoding-constraint graphs.

The graph has s message vertices (rows) and n code vertices (columns),
stored as an s x n binary adjacency matrix: entry (i, j) is 1 iff code
symbol j may depend on message symbol i.  Rows and columns with no edges
are rejected: an unseen message symbol cannot be encoded, and a code symbol
depending on nothing has no defined semantics here.  ``min_surplus`` is the
one walk over row subsets: it yields the ``d_min`` bound and Hall violators.

A graph is read a row at a time.  A row of Python ints 0 and 1 is taken
whole, as is a numpy integer row of them (through ``tolist``, so this module
imports no numpy); any other row is checked entry by entry (``_bit``), so
the first bad entry in row-major order is the one named.  Row masks,
supports and column sets are then read whole, each in one pass of C-level
builtins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import or_

from .errors import GuardExceededError, NoMatchingError
from .field import _INT, _as_int

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


_BITS = frozenset((0, 1))


def _row(r) -> tuple[int, ...]:
    """An adjacency row as a tuple of the ints 0 and 1.  A row of Python ints
    0 and 1 is taken whole (the exact type keeps a bool out), and so is a
    numpy integer array of them, read through ``tolist``; any other row goes
    through ``_bit`` entry by entry, on the entries as given."""
    ints = getattr(getattr(r, "dtype", None), "kind", None) in ("i", "u")
    try:
        row = tuple(r.tolist() if ints else r)
    except TypeError:
        raise ValueError("an adjacency row must be a list of entries, got %r" % (r,)) from None
    if set(map(type, row)) <= _INT and set(row) <= _BITS:
        return row
    return tuple(map(_bit, r if ints else row))


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def bits_mask(bits) -> int:
    """The bitmask of a nonempty sequence of ints 0 and 1: bit j is bits[j]."""
    return int(bytes(bits[::-1]).translate(_DIGITS), 2)


@dataclass(frozen=True)
class ConstraintGraph:
    """Validated s x n binary adjacency matrix, s <= n, held as tuples of the
    ints 0 and 1 whatever integer type the entries came in; ``s`` and ``n``
    are plain attributes, set once the rows are read."""

    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:
            rows = iter(self.adjacency)
        except TypeError:
            raise ValueError("adjacency must be a list of rows, got %r"
                             % (self.adjacency,)) from None
        rows = tuple(map(_row, rows))
        object.__setattr__(self, "adjacency", rows)
        if not rows or not rows[0]:
            raise ValueError("adjacency matrix must be non-empty")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("ragged adjacency rows")
        s = len(rows)
        if s > n:
            raise ValueError("more message symbols than code symbols (s=%d > n=%d)" % (s, n))
        masks = tuple(map(bits_mask, rows))
        if 0 in masks:
            raise ValueError("message row %d has no edges" % masks.index(0))
        bare = ~reduce(or_, masks) & (1 << n) - 1
        if bare:
            raise ValueError("code column %d has no edges" % ((bare & -bare).bit_length() - 1))
        # the sizes, the row masks and the completed searches, by name, are
        # not fields, so equality, hashing and repr ignore them
        self.__dict__.update(s=s, n=n, _masks=masks, _solved={})

    def row_mask(self, i: int) -> int:
        return self._masks[i]

    def support(self, i: int) -> tuple[int, ...]:
        return tuple(compress(range(self.n), self.adjacency[i]))

    def _solve(self, name: str, search):
        """search(), run on the first call for this name only.  A search that
        raises stores nothing, so the next call runs it again.  Callers check
        their guards before calling this."""
        result = self._solved.get(name)
        if result is None:  # no search returns None
            result = self._solved[name] = search()
        return result

    @classmethod
    def from_rows(cls, rows) -> "ConstraintGraph":
        return cls(rows)

    @classmethod
    def from_dict(cls, d: dict) -> "ConstraintGraph":
        g = cls.from_rows(d["adjacency"])
        for key, size, what in (("s", g.s, "rows"), ("n", g.n, "columns")):
            if key in d and _as_int(d[key]) != size:
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


def _augment(masks, i: int, owner: dict, match: list, seen: list) -> bool:
    """Kuhn's augmenting path from row i over its columns in order; seen[0]
    is the mask of the columns tried, so its lowest clear bit in row i's mask
    is the next column."""
    while True:
        free = masks[i] & ~seen[0]
        if not free:
            return False
        bit = free & -free
        seen[0] |= bit
        c = bit.bit_length() - 1
        if c not in owner or _augment(masks, owner[c], owner, match, seen):
            owner[c] = i
            match[i] = c
            return True


def find_matching(g: ConstraintGraph) -> tuple[int, ...]:
    """Matching covering every row, scanning rows in order and preferring the
    smallest admissible column; raises NoMatchingError with a Hall witness.
    Found once per graph."""
    return g._solve("matching", lambda: _hall_matching(g))


def _greedy_matching(masks) -> tuple[list, int]:
    """Each row in turn on its first free column: the rows' columns, None
    for a row left with no free column, and the mask of the columns taken."""
    match, taken = [], 0
    for m in masks:
        free = m & ~taken
        bit = free & -free
        taken |= bit
        match.append(bit.bit_length() - 1 if free else None)
    return match, taken


def _hall_matching(g: ConstraintGraph) -> tuple[int, ...]:
    masks = g._masks
    match, _ = _greedy_matching(masks)  # then the rows left are augmented
    owner = {c: i for i, c in enumerate(match) if c is not None}
    for i in range(g.s):
        if match[i] is not None:
            continue
        seen = [0]
        if not _augment(masks, i, owner, match, seen):
            cols = [c for c in owner if seen[0] >> c & 1]
            witness = tuple(sorted({i} | {owner[c] for c in cols}))
            raise NoMatchingError(
                "rows %s share only %d neighboring columns" % (list(witness), len(cols)),
                witness=witness)
    return tuple(match)


def check_matching(g: ConstraintGraph, matching) -> tuple[int, ...]:
    """Validate a row -> column assignment as a covering matching of g, its
    columns returned as Python ints.  A column is read as an adjacency entry
    is: a Python or numpy integer passes, a bool, a float or a string raises
    ValueError."""
    matching = tuple(matching)
    if len(matching) != g.s:
        raise ValueError("matching must assign all %d rows" % g.s)
    cols = matching if set(map(type, matching)) <= _INT else tuple(map(_as_int, matching))
    if None in cols:
        i = cols.index(None)
        raise ValueError("matched pair (%d, %r) is not an edge: a column is an integer"
                         % (i, matching[i]))
    if len(set(cols)) != g.s:
        raise ValueError("matching columns are not distinct")
    n = g.n
    for i, (c, row) in enumerate(zip(cols, g.adjacency)):
        if not 0 <= c < n or row[c] != 1:
            raise ValueError("matched pair (%d, %r) is not an edge" % (i, c))
    return cols


def matched_adjacency(g: ConstraintGraph, matching) -> tuple[tuple[int, ...], ...]:
    """The adjacency rows, each matched column zeroed except at its own row."""
    return _matched_rows(g, check_matching(g, matching))


def _matched_rows(g: ConstraintGraph, matching: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """``matched_adjacency`` of a matching known to be one of g's, as
    ``check_matching`` returns it or a search of g found it."""
    rows = []
    for own, row in zip(matching, g.adjacency):
        row = list(row)
        for c in matching:
            row[c] = 0
        row[own] = 1  # an edge, as check_matching ensures
        rows.append(tuple(row))
    return tuple(rows)


def row_zero_stats(obj):
    """(max zeros in any row, per-row zero counts) of a graph or a matrix."""
    rows = obj.adjacency if isinstance(obj, ConstraintGraph) else obj
    counts = [len(r) - sum(r) for r in rows]
    return max(counts), counts
