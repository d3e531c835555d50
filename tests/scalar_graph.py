"""The per-entry graph constructor: the reference for
``graphcodes.graph.ConstraintGraph``, which reads a graph a row at a time,
and per-entry references for the counts the searches take off row masks.

Every entry is read through ``_bit`` on its own, every mask is a Python sum
over the entries, and every row and column check walks the entries.  The
counts (``neighborhood_size``, ``row_zero_stats``, ``matching_k``) walk the
adjacency rows and share no code with ``graph`` or ``bounds``.  Tests
compare the row reader and the searches with this code, never with
themselves.
"""

from __future__ import annotations

from graphcodes.graph import _bit


def scalar_rows(adjacency):
    """(rows, masks) of a valid adjacency, rows as tuples of the ints 0 and 1;
    raises ValueError, with the graph's own messages, on an invalid one."""
    rows = tuple(tuple(map(_bit, r)) for r in adjacency)
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
    return rows, masks


def scalar_support(rows, i: int):
    return tuple(j for j, v in enumerate(rows[i]) if v)


def scalar_column_masks(rows):
    return [sum(1 << r for r in range(len(rows)) if rows[r][c]) for c in range(len(rows[0]))]


def scalar_fully_connected_columns(rows):
    return [j for j in range(len(rows[0])) if all(r[j] for r in rows)]


def neighborhood_size(rows, subset) -> int:
    """Number of columns adjacent to any of the rows ``subset``; IndexError
    names a row outside the adjacency."""
    columns = set()
    for i in subset:
        if not 0 <= i < len(rows):
            raise IndexError("row index %r out of range" % (i,))
        columns.update(scalar_support(rows, i))
    return len(columns)


def row_zero_stats(rows):
    """(max zeros in any row, per-row zero counts) of a 0/1 matrix."""
    counts = [sum(1 for v in r if v == 0) for r in rows]
    return max(counts), counts


def matching_k(rows, matching) -> int:
    """Max row zeros + 1 of the matched adjacency, built entry by entry:
    row i keeps its own matched column and loses every other matched one."""
    matched = set(matching)
    return max(sum(1 for j, v in enumerate(r)
                   if v == 0 or (j in matched and j != matching[i]))
               for i, r in enumerate(rows)) + 1
