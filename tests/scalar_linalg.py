"""Scalar Gaussian elimination over a GF context: the reference for
``graphcodes.linalg``, which runs on field arrays.

Matrices are lists of row lists, and every operation is one ``gf`` call on
one pair of field elements.  Tests compare the array kernel with this code,
never with itself.
"""

from __future__ import annotations


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def identity_matrix(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def vec_mat(gf, v, mat):
    """Row vector times matrix: (v . mat) with len(v) == rows(mat)."""
    ncols = len(mat[0])
    out = [0] * ncols
    for vi, row in zip(v, mat):
        if vi == 0:
            continue
        for j, rj in enumerate(row):
            if rj:
                out[j] = gf.add(out[j], gf.mul(vi, rj))
    return out


def matmul(gf, a, b):
    return [vec_mat(gf, row, b) for row in a]


def rref(gf, mat):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in mat]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = gf.inv(rows[r][c])
        if inv != 1:
            rows[r] = [gf.mul(inv, v) for v in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                pivrow = rows[r]
                rows[i] = [gf.sub(v, gf.mul(f, w)) for v, w in zip(rows[i], pivrow)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


def rank(gf, mat) -> int:
    if not mat:
        return 0
    return len(rref(gf, mat)[1])


def solve(gf, a, b):
    """One solution x of a x = b (free variables zero), or None if inconsistent."""
    n = len(a[0])
    aug = [list(row) + [rhs] for row, rhs in zip(a, b)]
    rows, pivots = rref(gf, aug)
    if n in pivots:
        return None
    x = [0] * n
    for r, c in enumerate(pivots):
        x[c] = rows[r][n]
    return x


def nullspace_basis(gf, a):
    """Canonical basis of {x : a x = 0}, one vector per free column."""
    n = len(a[0])
    rows, pivots = rref(gf, a)
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [0] * n
        v[free] = 1
        for r, c in enumerate(pivots):
            v[c] = gf.neg(rows[r][free])
        basis.append(v)
    return basis


def left_nullspace_basis(gf, a):
    """Basis of {h : h a = 0}."""
    return nullspace_basis(gf, transpose(a))


def invert(gf, a):
    """Inverse of a square matrix; raises ValueError if singular."""
    n = len(a)
    aug = [list(row) + ident for row, ident in zip(a, identity_matrix(n))]
    rows, pivots = rref(gf, aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows]
