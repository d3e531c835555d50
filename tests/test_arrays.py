"""Parity of the field-array kernel with the scalar field, op by op.

Every pair of elements is checked, so a GF(p) reduction that is wrong for
any operand, at either end of the dtype, fails here.  GF(127) is the last
prime whose 2q - 2 fits uint8 (252) and GF(131) the first that needs uint16.
"""

import itertools
import random

import numpy as np
import pytest

from graphcodes.arrays import field_arrays
from graphcodes.field import GF

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
