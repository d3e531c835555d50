"""The per-entry graph constructor: the reference for
``graphcodes.graph.ConstraintGraph``, which reads a graph a row at a time.

Every entry is read through ``_bit`` on its own, every mask is a Python sum
over the entries, and every row and column check walks the entries.  Tests
compare the row reader with this code, never with itself.
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
