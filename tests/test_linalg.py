import random

import pytest
from hypothesis import example, given, settings, strategies as st

import scalar_linalg as ref
from graphcodes.field import GF
from graphcodes.linalg import (left_nullspace_basis, matmul, rank, rref, solve,
                               vec_mat)


def _random_matrix(rng, gf, rows, cols):
    return [[rng.randrange(gf.q) for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("gf", [GF(7), GF(2, 3)], ids=["GF7", "GF8"])
def test_rref_and_rank(gf):
    ident = ref.identity_matrix(4)
    rows, pivots = rref(gf, ident)
    assert rows == ident and pivots == [0, 1, 2, 3]
    dup = [[1, 2 % gf.q, 3 % gf.q], [1, 2 % gf.q, 3 % gf.q]]
    assert rank(gf, dup) == 1
    assert rank(gf, [[0, 0], [0, 0]]) == 0


@pytest.mark.parametrize("gf", [GF(7), GF(2, 4)], ids=["GF7", "GF16"])
def test_solve_consistent_and_inconsistent(gf):
    rng = random.Random(23)
    for _ in range(40):
        a = _random_matrix(rng, gf, rng.randint(1, 5), rng.randint(1, 5))
        x = [rng.randrange(gf.q) for _ in range(len(a[0]))]
        b = ref.vec_mat(gf, x, ref.transpose(a))  # b = a . x
        got = solve(gf, a, b)
        assert got is not None and got == ref.solve(gf, a, b)
        assert ref.vec_mat(gf, got, ref.transpose(a)) == b
    # x + y = 1 and x + y = 2 cannot both hold
    assert solve(gf, [[1, 1], [1, 1]], [1, 2 % gf.q]) is None


@pytest.mark.parametrize("gf", [GF(11), GF(2, 3)], ids=["GF11", "GF8"])
def test_nullspace(gf):
    rng = random.Random(29)
    for _ in range(40):
        a = _random_matrix(rng, gf, rng.randint(1, 4), rng.randint(1, 5))
        # {x : a x = 0} is the left nullspace of the transpose
        basis = left_nullspace_basis(gf, ref.transpose(a))
        assert basis == ref.nullspace_basis(gf, a)
        assert len(basis) == len(a[0]) - ref.rank(gf, a)
        for v in basis:
            assert ref.vec_mat(gf, v, ref.transpose(a)) == [0] * len(a)
        for h in left_nullspace_basis(gf, a):
            assert ref.vec_mat(gf, h, a) == [0] * len(a[0])


def test_invert_roundtrip():
    # one elimination of [A | I] leaves inv(A) in the I block when A is
    # invertible, and a pivot in that block when it is not
    gf = GF(13)
    rng = random.Random(31)
    found = 0
    while found < 20:
        a = _random_matrix(rng, gf, 4, 4)
        rows, pivots = rref(gf, [r + i for r, i in zip(a, ref.identity_matrix(4))])
        if ref.rank(gf, a) < 4:
            assert pivots != [0, 1, 2, 3]
            continue
        found += 1
        assert pivots == [0, 1, 2, 3]
        inverse = [row[4:] for row in rows]
        assert inverse == ref.invert(gf, a)
        assert ref.matmul(gf, a, inverse) == ref.identity_matrix(4)


def test_matmul_identity():
    gf = GF(7)
    a = [[1, 2, 3], [4, 5, 6]]
    assert matmul(gf, a, ref.identity_matrix(3)) == a
    assert vec_mat(gf, [1, 1], a) == [5, 0, 2]


KERNEL_FIELDS = {(p, m): GF(p, m)
                 for p, m in ((2, 1), (7, 1), (31, 1), (2, 4), (2, 8), (65521, 1))}


@st.composite
def kernel_cases(draw):
    """(field, a, b, c): a is r x n, zero, random or with rows that combine
    earlier ones; b has r entries and c is n x 3."""
    p, m = draw(st.sampled_from(sorted(KERNEL_FIELDS)))
    gf = KERNEL_FIELDS[p, m]
    r, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(0, gf.q - 1))
    kind = draw(st.sampled_from(("zero", "random", "deficient")))
    if kind == "zero":
        a = [[0] * n for _ in range(r)]
    else:
        a = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(r)]
    if kind == "deficient":
        for i in range(1, r):  # row i a combination of rows before it
            if draw(st.booleans()):
                x, y = draw(entry), draw(entry)
                a[i] = [gf.add(gf.mul(x, u), gf.mul(y, v))
                        for u, v in zip(a[draw(st.integers(0, i - 1))], a[0])]
    b = draw(st.lists(entry, min_size=r, max_size=r))
    c = [draw(st.lists(entry, min_size=3, max_size=3)) for _ in range(n)]
    return gf, a, b, c


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(kernel_cases())
@example((KERNEL_FIELDS[2, 1], [[1]], [1], [[1, 0, 1]]))
@example((KERNEL_FIELDS[65521, 1], [[0]], [5], [[7, 0, 65520]]))
@example((KERNEL_FIELDS[7, 1], [[0, 0, 0], [0, 0, 0]], [0, 3], [[1, 2, 3]] * 3))
@example((KERNEL_FIELDS[2, 8], [[3, 5, 7, 0, 1, 255], [6, 10, 14, 0, 2, 229]], [1, 2],
          [[1, 1, 1]] * 6))
@example((KERNEL_FIELDS[31, 1], [[1, 2], [2, 4], [3, 6], [0, 0], [5, 1]], [1, 2, 3, 0, 4],
          [[1, 0, 0], [0, 1, 0]]))
def test_array_kernel_matches_the_scalar_reference(case):
    gf, a, b, c = case
    assert rref(gf, a) == ref.rref(gf, a)
    assert rank(gf, a) == ref.rank(gf, a)
    assert solve(gf, a, b) == ref.solve(gf, a, b)
    assert left_nullspace_basis(gf, a) == ref.left_nullspace_basis(gf, a)
    assert matmul(gf, a, c) == ref.matmul(gf, a, c)
    assert vec_mat(gf, b, a) == ref.vec_mat(gf, b, a)
