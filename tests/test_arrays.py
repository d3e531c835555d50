"""Parity of the field-array kernel with the scalar field, op by op.

Every pair of elements is checked, so a GF(p) reduction that is wrong for
any operand, at either end of the dtype, fails here.  GF(127) is the last
prime whose 2q - 2 fits uint8 (252) and GF(131) the first that needs uint16.
"""

import itertools
import random

import numpy as np
import pytest

from graphcodes import arrays, rs
from graphcodes.arrays import field_arrays
from graphcodes.field import GF
from graphcodes.polys import poly_mul

KERNEL_FIELDS = [(2, 1), (3, 1), (31, 1), (127, 1), (131, 1), (2, 4), (2, 8)]


def _all_pairs(fa):
    a, b = np.divmod(np.arange(fa.q * fa.q), fa.q)
    return a.astype(fa.dtype), b.astype(fa.dtype)


@pytest.mark.parametrize("p, m", KERNEL_FIELDS)
def test_binary_ops_match_the_scalar_field_on_every_pair(p, m):
    gf = GF(p, m)
    fa = field_arrays(gf)
    a, b = _all_pairs(fa)
    pairs = list(zip(a.tolist(), b.tolist()))
    for name in ("add", "sub", "mul"):
        got = getattr(fa, name)(a, b)
        op = getattr(gf, name)
        assert got.dtype == fa.dtype, name
        assert got.tolist() == [op(x, y) for x, y in pairs], name


@pytest.mark.parametrize("p, m", KERNEL_FIELDS)
def test_log_sub_is_the_log_of_the_difference_on_every_pair(p, m):
    # one ufunc and one gather, a == b giving zero_log; as a 1-D pair list
    # and broadcast as a column against a row
    gf = GF(p, m)
    fa = field_arrays(gf)
    a, b = _all_pairs(fa)
    want = [fa.zero_log if x == y else gf.log_table[gf.sub(x, y) - 1]
            for x, y in zip(a.tolist(), b.tolist())]
    got = fa.log_sub(a, b)
    assert got.dtype == np.int32 and got.tolist() == want
    column = np.arange(fa.q, dtype=fa.dtype)
    assert fa.log_sub(column[:, None], column).ravel().tolist() == want


@pytest.mark.parametrize("p, m", KERNEL_FIELDS)
def test_unary_ops_match_the_scalar_field_on_every_element(p, m):
    gf = GF(p, m)
    fa = field_arrays(gf)
    a = np.arange(fa.q, dtype=fa.dtype)
    neg = fa.neg(a)
    assert neg.dtype == fa.dtype
    assert neg.tolist() == [gf.neg(x) for x in range(fa.q)]
    inv = fa.inv(a[1:])
    assert inv.dtype == fa.dtype
    assert inv.tolist() == [gf.inv(x) for x in range(1, fa.q)]


@pytest.mark.parametrize("p, m", KERNEL_FIELDS)
def test_scalar_and_zero_dim_operands(p, m):
    # the pytest configuration turns any numpy overflow warning into an error
    gf = GF(p, m)
    fa = field_arrays(gf)
    q = fa.q
    rng = random.Random(q)
    edges = sorted({0, 1, q // 2, q - 2, q - 1})
    pairs = list(itertools.product(edges, repeat=2))
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(50)]
    # numpy scalars and 0-d arrays keep the dtype; Python ints give the values
    forms = ((fa.dtype.type, True), (lambda v: np.array(v, dtype=fa.dtype), True),
             (int, False))
    for make, keeps_dtype in forms:
        for x, y in pairs:
            for name, args, want in [("add", (x, y), gf.add(x, y)),
                                     ("sub", (x, y), gf.sub(x, y)),
                                     ("mul", (x, y), gf.mul(x, y)),
                                     ("neg", (x,), gf.neg(x))]:
                got = getattr(fa, name)(*map(make, args))
                assert np.ndim(got) == 0 and int(got) == want, (name, args)
                assert not keeps_dtype or got.dtype == fa.dtype, (name, args)
            if x:
                assert int(fa.inv(make(x))) == gf.inv(x), ("inv", x)


@pytest.mark.parametrize("p, m", KERNEL_FIELDS)
def test_sum_matches_a_scalar_fold_along_either_axis(p, m):
    gf = GF(p, m)
    fa = field_arrays(gf)
    rng = np.random.default_rng(fa.q)
    mat = rng.integers(0, fa.q, size=(300, 7)).astype(fa.dtype)
    rows = mat.tolist()

    def fold(values):
        acc = 0
        for v in values:
            acc = gf.add(acc, v)
        return acc

    down = fa.sum(mat, axis=0)
    across = fa.sum(mat, axis=1)
    assert down.dtype == across.dtype == fa.dtype
    assert down.tolist() == [fold(col) for col in zip(*rows)]
    assert across.tolist() == [fold(row) for row in rows]


# -- the gather kernel: logs, elements and the helpers built on them ---------

GATHER_FIELDS = [(7, 1), (31, 1), (2, 4), (2, 6)]


def _random_elements(fa, rng, shape):
    """Random elements with about a fifth of the entries zero."""
    a = rng.integers(0, fa.q, size=shape)
    a[rng.random(shape) < 0.2] = 0
    return a.astype(fa.dtype)


def _scalar_vec_mat(gf, v, mat):
    out = [0] * len(mat[0])
    for c, row in zip(v, mat):
        for j, x in enumerate(row):
            out[j] = gf.add(out[j], gf.mul(c, x))
    return out


@pytest.mark.parametrize("p, m", GATHER_FIELDS)
def test_vec_mat_logs_matches_a_scalar_product(p, m):
    gf = GF(p, m)
    fa = field_arrays(gf)
    rng = np.random.default_rng(fa.q)
    mat = _random_elements(fa, rng, (6, 9))
    vs = _random_elements(fa, rng, (5, 6))
    vs[0] = 0
    want = [_scalar_vec_mat(gf, v, mat.tolist()) for v in vs.tolist()]
    log_mat = fa.logs(mat)
    got = fa.vec_mat_logs(fa.logs(vs), log_mat)
    assert got.dtype == fa.dtype and got.shape == (5, 9)
    assert got.tolist() == want
    for v, row in zip(vs, want):
        one = fa.vec_mat_logs(fa.logs(v), log_mat)
        assert one.dtype == fa.dtype and one.shape == (9,)
        assert one.tolist() == row


@pytest.mark.parametrize("p, m", GATHER_FIELDS)
@pytest.mark.parametrize("block", [1, 7, 16, None])
def test_combine_matches_a_scalar_sum_across_row_blocks(monkeypatch, p, m, block):
    # BLOCK_ELEMENTS = 1, 7 and 16 split the 9-column table into blocks of
    # one row; None keeps the default, one block
    if block is not None:
        monkeypatch.setattr(arrays, "BLOCK_ELEMENTS", block)
    gf = GF(p, m)
    fa = field_arrays(gf)
    rng = np.random.default_rng(fa.q + 1)
    table = _random_elements(fa, rng, (8, 9))
    coeffs = _random_elements(fa, rng, 8)
    coeffs[1:3] = [0, 1]
    # vec_mat_logs blocks its own gather, on a 2-D v and a 1-D one; on the
    # table's first 3 columns, 7 and 16 make blocks of 2 and 5 rows of a 1-D v
    vs = _random_elements(fa, rng, (3, 8))
    vs[0] = coeffs
    for cols in (9, 3):
        mat = table[:, :cols]
        got = fa.vec_mat_logs(fa.logs(vs), fa.logs(mat))
        assert got.dtype == fa.dtype
        assert got.tolist() == [_scalar_vec_mat(gf, v, mat.tolist()) for v in vs.tolist()]
        one = fa.vec_mat_logs(fa.logs(coeffs), fa.logs(mat))
        assert one.dtype == fa.dtype and one.tolist() == got[0].tolist()


@pytest.mark.parametrize("p, m", GATHER_FIELDS)
def test_vec_mat_logs_is_the_same_product_at_every_block_size(monkeypatch, p, m):
    # 40 rows of v against a 12 x 9 matrix: 4320 elements gathered whole;
    # below that bound the rows of M are split, and once one row of M
    # against all of v is over it (360 elements) the rows of v as well
    gf = GF(p, m)
    fa = field_arrays(gf)
    rng = np.random.default_rng(fa.q + 2)
    vs = _random_elements(fa, rng, (40, 12))
    vs[3] = 0
    mat = _random_elements(fa, rng, (12, 9))
    want = [_scalar_vec_mat(gf, v, mat.tolist()) for v in vs.tolist()]
    log_vs, log_mat = fa.logs(vs), fa.logs(mat)
    for block in (1, 5, 9, 100, 359, 360, 1000, 4319, 4320):
        monkeypatch.setattr(arrays, "BLOCK_ELEMENTS", block)
        got = fa.vec_mat_logs(log_vs, log_mat)
        assert got.dtype == fa.dtype and got.shape == (40, 9), block
        assert got.tolist() == want, block
        assert fa.vec_mat_logs(log_vs[7], log_mat).tolist() == want[7], block


@pytest.mark.parametrize("p, m", GATHER_FIELDS)
def test_poly_mul_matches_the_scalar_reference(p, m):
    gf = GF(p, m)
    fa = field_arrays(gf)
    rng = np.random.default_rng(fa.q + 2)
    for la, lb in [(1, 1), (1, 5), (4, 1), (3, 6), (7, 7), (12, 3)]:
        a = _random_elements(fa, rng, la)
        b = _random_elements(fa, rng, lb)
        a[-1] = b[-1] = 1  # nonzero leads, as in the decoder
        got = rs._poly_mul(fa, a, b)
        assert got.dtype == fa.dtype
        assert got.tolist() == poly_mul(gf, a.tolist(), b.tolist()), (la, lb)
    # batched: one product per pair of rows on two leading axes
    a = _random_elements(fa, rng, (2, 3, 4))
    b = _random_elements(fa, rng, (2, 3, 5))
    got = rs._poly_mul(fa, a, b)
    assert got.dtype == fa.dtype and got.shape == (2, 3, 8)
    assert got.tolist() == [[poly_mul(gf, x, y) for x, y in zip(ra, rb)]
                            for ra, rb in zip(a.tolist(), b.tolist())]


def _operand_forms(a):
    """a 2-D array, a row, a 2-D view, a 0-d array and a numpy scalar."""
    return [a, a[1], a[1:2, 2:3], np.array(a[2, 1]), a[2, 1]]


@pytest.mark.parametrize("p, m", KERNEL_FIELDS)
def test_gathers_keep_dtype_and_shape(p, m):
    gf = GF(p, m)
    fa = field_arrays(gf)
    base = _random_elements(fa, np.random.default_rng(fa.q + 3), (3, 4))
    base[0, 0] = base[2, 1] = 0
    nonzero = np.where(base == 0, 1, base).astype(fa.dtype)
    for a, b in zip(_operand_forms(base), _operand_forms(nonzero)):
        logs = fa.logs(a)
        assert logs.dtype == np.int32 and np.shape(logs) == np.shape(a)
        back = fa.elements(logs)
        assert back.dtype == fa.dtype and np.shape(back) == np.shape(a)
        assert np.array_equal(back, a)
        for got in (fa.mul(a, b), fa.inv(b)):
            assert got.dtype == fa.dtype and np.shape(got) == np.shape(a)
    assert fa.logs(base[0, 0]) == fa.zero_log
    assert fa.elements(2 * fa.zero_log) == 0


@pytest.mark.parametrize("p, m", [(7, 1), (31, 1), (2, 4), (2, 8)])
def test_add_and_sub_refuse_the_same_operands_over_both_field_kinds(p, m):
    # every ufunc runs in fa.dtype, so a signed integer operand is refused
    # over GF(p) and GF(2^m) alike, on either side and as an array or scalar
    fa = field_arrays(GF(p, m))
    a = np.arange(5, dtype=fa.dtype)
    for name in ("add", "sub"):
        op = getattr(fa, name)
        for bad in (a.astype(np.int64), a.astype(np.int32), np.int64(3)):
            with pytest.raises(TypeError, match="Cannot cast ufunc"):
                op(a, bad)
            with pytest.raises(TypeError, match="Cannot cast ufunc"):
                op(bad, a)
        for good in (a, a[::-1].copy(), fa.dtype.type(3), 3):
            assert op(a, good).dtype == fa.dtype


@pytest.mark.parametrize("q", [7, 127, 128, 129, 255, 256, 2 ** 15, 2 ** 15 + 1, 2 ** 16])
@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16])
def test_symbols_refuses_every_negative_and_every_entry_from_q_up(dtype, q):
    # a negative entry would index a log table from its end; over GF(2^8) an
    # int8 -1 read as unsigned is 255 < 256, so it must not pass as one
    info = np.iinfo(dtype)
    for v in {0, 1, q - 1, q, info.max, -1, -2, info.min}:
        if not info.min <= v <= info.max:
            continue
        for arr in (np.array([0, v, 0], dtype=dtype), np.array([v, 0, v, 0], dtype=dtype)[::2]):
            if 0 <= v < q:
                assert arrays.symbols(arr, q, "entries") is arr
            else:
                with pytest.raises(ValueError, match=r"entries must lie in \[0, %d\)" % q):
                    arrays.symbols(arr, q, "entries")


@pytest.mark.parametrize("block", [1, 64, None])
def test_vec_mat_logs_sums_the_largest_products_exactly(monkeypatch, block):
    # over GF(65521) each product (p - 1)^2 is near 2^32, and 3000 of them
    # are summed in int64 across blocks of M's rows before the one mod p
    if block is not None:
        monkeypatch.setattr(arrays, "BLOCK_ELEMENTS", block)
    fa = field_arrays(GF(65521))
    rows = 3000
    log_v = fa.logs(np.full((2, rows), 65520))
    log_mat = fa.logs(np.full((rows, 3), 65520))
    got = fa.vec_mat_logs(log_v, log_mat)
    assert got.dtype == fa.dtype and got.tolist() == [[rows] * 3] * 2
    assert fa.vec_mat_logs(log_v[0], log_mat).tolist() == [rows] * 3
