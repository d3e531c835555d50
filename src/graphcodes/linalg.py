"""Gaussian elimination over a GF context, on field arrays (``arrays``).

Matrices come in as lists of row lists or element arrays and go out as lists
of row lists of Python ints.  One row reduction, ``_rref``, serves ``rref``,
``rank``, ``solve`` and ``left_nullspace_basis``: per pivot, one gather
turns the pivot column into the factors over the pivot, and every other row
is cleared at once by one outer-product gather and one ``sub``; the pivot
rows are scaled to a leading 1 once, at the end.  ``vec_mat``
and ``matmul`` are one ``vec_mat_logs`` each.  The scalar elimination that
this replaced is kept in the tests as the reference.
"""

from __future__ import annotations

import numpy as np

from .arrays import field_arrays


def _rref(fa, mat):
    """(reduced row echelon form of mat as a new element array, pivot columns).

    The pivot of column c is its nonzero entry of least log at or below the
    row the next pivot goes to, swapped up into that row; any nonzero entry
    serves, as the reduced form is unique.  Its column's logs, read once,
    give the pivot and, shifted by the pivot's inverse and gathered back to
    logs, the factors a[j, c] / a[r, c] that clear column c off every other
    row: one outer-product gather and one ``sub``.  The pivot rows are
    scaled to a leading 1 at the end, all at once.
    """
    a = np.array(mat, dtype=fa.dtype)
    nr, nc = a.shape
    order, zero_log = fa.q - 1, fa.zero_log
    pivots, inverses = [], []  # the pivot columns, and the logs of 1 / pivot
    for c in range(nc):
        r = len(pivots)
        if r == nr:
            break
        log_col = fa.logs(a[:, c])
        p = r + int(log_col[r:].argmin())
        if log_col[p] == zero_log:
            continue
        if p != r:
            a[[r, p]] = a[[p, r]]
            log_col[[r, p]] = log_col[[p, r]]
        inverses.append(order - int(log_col[r]))
        # a sum of two logs below q - 1, or zero_log plus one: an element
        factors = fa.logs(fa.elements(log_col + inverses[-1]))
        factors[r] = zero_log  # the pivot row stays
        a = fa.sub(a, fa.elements(factors[:, None] + fa.logs(a[r])))
        pivots.append(c)
    if pivots:  # later pivots leave each pivot's own column alone
        a[:len(pivots)] = fa.elements(fa.logs(a[:len(pivots)]) + np.array(inverses)[:, None])
    return a, pivots


def vec_mat(gf, v, mat):
    """Row vector times matrix: (v . mat) with len(v) == rows(mat)."""
    fa = field_arrays(gf)
    return fa.vec_mat_logs(fa.logs(v), fa.logs(mat)).tolist()


def matmul(gf, a, b):
    fa = field_arrays(gf)
    return fa.vec_mat_logs(fa.logs(a), fa.logs(b)).tolist()


def rref(gf, mat):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    if not len(mat):
        return [], []
    rows, pivots = _rref(field_arrays(gf), mat)
    return rows.tolist(), pivots


def rank(gf, mat) -> int:
    if not len(mat):
        return 0
    return len(_rref(field_arrays(gf), mat)[1])


def solve(gf, a, b):
    """One solution x of a x = b (free variables zero), or None if inconsistent."""
    fa = field_arrays(gf)
    rows, pivots = _rref(fa, np.column_stack((a, b)))
    n = rows.shape[1] - 1
    if pivots and pivots[-1] == n:
        return None
    x = np.zeros(n, dtype=fa.dtype)
    x[pivots] = rows[:len(pivots), n]
    return x.tolist()


def left_nullspace_basis(gf, a):
    """Canonical basis of {h : h a = 0}, one vector per free column of the
    transpose: 1 there, and minus that column of the reduced transpose at
    the pivots."""
    fa = field_arrays(gf)
    rows, pivots = _rref(fa, np.transpose(a))
    free = np.setdiff1d(np.arange(rows.shape[1]), pivots)
    basis = np.zeros((len(free), rows.shape[1]), dtype=fa.dtype)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = fa.neg(rows[:len(pivots), free]).T
    return basis.tolist()
