"""Gaussian elimination over a GF context, on field arrays (``arrays``).

Matrices come in as lists of row lists or element arrays and go out as lists
of row lists of Python ints.  One row reduction, ``_rref``, serves ``rref``,
``rank``, ``solve`` and ``left_nullspace_basis``: per pivot, the pivot row is
scaled by one product with the pivot's inverse, and every other row is
cleared at once by one outer-product gather and one ``sub``.  ``vec_mat``
and ``matmul`` are one ``vec_mat_logs`` each.  The scalar elimination that
this replaced is kept in the tests as the reference.
"""

from __future__ import annotations

import numpy as np

from .arrays import field_arrays


def _rref(fa, mat):
    """(reduced row echelon form of mat as a new element array, pivot columns).

    The pivot of column c is its first nonzero entry at or below the row
    the next pivot goes to, swapped up into that row.
    """
    a = np.array(mat, dtype=fa.dtype)
    nr, nc = a.shape
    pivots = []
    for c in range(nc):
        r = len(pivots)
        if r == nr:
            break
        below = np.flatnonzero(a[r:, c])
        if not below.size:
            continue
        if below[0]:
            a[[r, r + below[0]]] = a[[r + below[0], r]]
        a[r] = fa.mul(a[r], fa.inv(a[r, c]))
        factors = a[:, c].copy()
        factors[r] = 0
        a = fa.sub(a, fa.elements(fa.logs(factors)[:, None] + fa.logs(a[r])))
        pivots.append(c)
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
