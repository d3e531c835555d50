"""Field arithmetic on numpy arrays of field elements.

One table set per field, built on first use and shared by every caller.  A
product is one gather with no mask: ``log[0]`` is 2(q - 1), beyond every
nonzero log, and ``exp`` is alpha^i up to that index and zero from it on, so
``exp[log[a] + log[b]]`` is a * b for all a, b, zeros included.  Every array
lookup in the two tables, here and in the callers, is one ``ndarray.take``
(``logs`` and ``elements``): numpy's fancy indexing costs 1.4x as much for
the same gather at 31 entries and 2.8x at 65,536.  A lookup of one numpy
scalar stays a subscript, where ``take`` costs 0.44 us against 0.06.  A row
scaled by the constant of log c (below q - 1, or ``zero_log`` for zero) is
``exp[c:].take(log_row)``, a gather off a view that needs no
``c + log_row`` temporary, on intp logs: ``take`` converts int32 indices on
every call (1.3 us against 0.9 at 300 entries).  ``sub`` takes ``out=``, so
a caller can update a row slice in place.  ``vec_mat_logs`` is the one
vector-matrix product, one algorithm per kind of field.  Over GF(p) it is
an integer matmul of the elements, reduced mod p once: it gathers no
products, and at the sizes of a small code's transform rows it costs about
two thirds of a gather and a sum.  Over GF(2^m), which has no matmul for
its XOR sum, it gathers the products and sums them, and it owns the bound
on that gather: a product that gathers more than BLOCK_ELEMENTS elements is
summed a block of the matrix's rows at a time, and of the vectors too when
they are many.
Elements are held in the smallest unsigned dtype that holds 2q - 2, so a
sum a + b and a difference a - b + p of two elements never wrap.  That
makes GF(p) reduction a
comparison, not a division: with t = a + b, t - p wraps above t exactly
when t < p, so minimum(t, t - p) is t mod p; with t = a - b, t wraps
exactly when a < b, and then t + p is a - b + p, below t.  Negation needs
no table: t = p - a is reduced as a sum is.  This is the only place that
reads the kind of field for arrays: GF(p) adds mod p, GF(2^m) adds by XOR.
``symbols`` is the one check of field symbols that arrive from outside the
package.
"""

from __future__ import annotations

import functools

import numpy as np

from .field import GF

# elements one gather of a product may take: bounds the temporaries of
# vec_mat_logs and of the callers that block a table build by hand
BLOCK_ELEMENTS = 1 << 14


class FieldArrays:
    """Elementwise add/sub/neg/mul/inv and a sum along an axis, for one field.

    ``log`` (int32) and ``exp`` are public so that callers can keep an
    operand in log form and multiply it by many others with one gather each:
    ``logs(a)`` maps elements to their logs (log 0 is ``zero_log``) and
    ``elements(l)`` maps logs in [0, 4(q - 1)] back, each one ``take`` that
    keeps the shape of its argument.  Operands are elements held in
    ``dtype`` (arrays, 0-d arrays or numpy scalars), and results keep it;
    Python ints give the same values.  ``add`` and ``sub`` pass ``dtype`` to
    every ufunc, over GF(p) and GF(2^m) alike, so both refuse an operand in
    a signed integer dtype.  ``sub``'s ``out=``, an array in ``dtype`` (it
    may be an operand), receives the difference; over GF(2^m) ``add`` is the
    same function.  ``log_sub(a, b)`` is ``logs(sub(a, b))`` in one ufunc and
    one gather.
    """

    def __init__(self, gf: GF):
        q = gf.q
        self.q = q
        self.dtype = np.min_scalar_type(2 * q - 2)
        self.zero_log = 2 * (q - 1)
        self.log = np.array((self.zero_log,) + gf.log_table, dtype=np.int32)
        # a sum of two logs lies in [0, 4(q - 1)]
        self.exp = np.zeros(4 * (q - 1) + 1, dtype=self.dtype)
        self.exp[:2 * (q - 1)] = gf.antilog_table * 2
        self.logs, self.elements = self.log.take, self.exp.take
        dtype = self.dtype
        # over GF(p), vec_mat_logs multiplies elements gathered from this
        # int64 copy of exp, which numpy's matmul takes with no cast
        self._exp64 = None
        if gf.p == 2:
            def xor(a, b, out=None):  # the explicit dtype refuses what GF(p) refuses
                return np.bitwise_xor(a, b, out=out, dtype=dtype)

            self.add = self.sub = xor
            self.log_sub = lambda a, b: self.log.take(np.bitwise_xor(a, b, dtype=dtype))
            self.neg = lambda a: a
            self.sum = lambda a, axis=0: np.bitwise_xor.reduce(a, axis=axis)
        else:
            p = gf.p
            # every step is a ufunc with an explicit dtype: on numpy scalars
            # the operator form would warn when t - p or t + p wraps

            def add(a, b):
                t = np.add(a, b, dtype=dtype)
                return np.minimum(t, np.subtract(t, p, dtype=dtype))

            def sub(a, b, out=None):
                t = np.subtract(a, b, out=out, dtype=dtype)
                return np.minimum(t, np.add(t, p, dtype=dtype), out=out)

            def neg(a):  # t = p - a lies in [1, p], reduced as a sum is
                t = np.subtract(p, a, dtype=dtype)
                return np.minimum(t, np.subtract(t, p, dtype=dtype))

            self.add, self.sub, self.neg = add, sub, neg
            # a - b lies in (-p, p) as a signed index, and take wraps it mod p
            self.log_sub = lambda a, b: self.log.take(
                np.subtract(a, b, dtype=np.intp), mode="wrap")
            self.sum = lambda a, axis=0: (np.add.reduce(a, axis=axis) % p).astype(dtype)
            self._exp64 = self.exp.astype(np.int64)

    def mul(self, a, b):
        return self.elements(self.logs(a) + self.logs(b))

    def inv(self, a):
        """1 / a for nonzero a."""
        return self.elements((self.q - 1) - self.logs(a))

    def vec_mat_logs(self, log_v, log_mat):
        """v . M, one per row of a 2-D v, from the logs.

        Over GF(p), an integer matmul of the elements, a block of
        BLOCK_ELEMENTS elements of M at a time so that M's int64 copy stays
        bounded, summed in int64 and reduced mod p once: a product of two
        elements lies below p^2 < 2^32, so fewer than 2^31 rows of M never
        overflow.  Over GF(2^m), a product that gathers at most
        BLOCK_ELEMENTS elements is one gather and one sum; a larger one is
        gathered and summed a block of M's rows at a time, and when one row
        of M against every row of v is over the bound, a block of v's rows
        at a time as well."""
        if self._exp64 is not None:
            exp64 = self._exp64
            v = exp64.take(log_v)
            step = BLOCK_ELEMENTS // (log_mat.shape[1] or 1) or 1  # rows of M per block
            if len(log_mat) <= step:
                out = np.matmul(v, exp64.take(log_mat))
            else:
                out = sum(np.matmul(v[..., start:start + step],
                                    exp64.take(log_mat[start:start + step]))
                          for start in range(0, len(log_mat), step))
            return (out % self.q).astype(self.dtype)
        gathered = log_v.size * log_mat.shape[1]
        if gathered <= BLOCK_ELEMENTS:
            return self.sum(self.elements(log_v[..., None] + log_mat), axis=-2)
        step = max(1, BLOCK_ELEMENTS // log_mat.shape[1])  # rows of v per block
        if log_v.ndim == 2 and len(log_v) > step:
            return np.concatenate([self.vec_mat_logs(log_v[start:start + step], log_mat)
                                   for start in range(0, len(log_v), step)])
        step = max(1, BLOCK_ELEMENTS * len(log_mat) // gathered)  # rows of M per block
        out = None
        for start in range(0, len(log_mat), step):
            rows = slice(start, start + step)
            part = self.sum(self.elements(log_v[..., rows, None] + log_mat[rows]), axis=-2)
            out = part if out is None else self.add(out, part)
        return out


_UNSIGNED = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}  # by itemsize


def symbols(values, q: int, what: str, ndim: int = 1) -> np.ndarray:
    """values as an integer ndarray of rank ndim with every entry in [0, q).

    Checked before any entry indexes a log table, where a negative one would
    wrap silently and a float or a string would fail with an IndexError.
    An empty input passes as an empty integer array.  Raises ValueError
    naming ``what`` when the dtype is not integer, the rank is not ndim or an
    entry lies outside [0, q).
    """
    arr = np.asarray(values)
    if not arr.size:
        return arr.astype(np.int64)
    kind, size = arr.dtype.kind, arr.dtype.itemsize
    if arr.ndim != ndim or kind not in "iu":
        bad = True
    else:
        # one extreme entry decides, found by argmin or argmax, which cost a
        # third of min or max on a few entries
        flat = arr.reshape(-1)
        if kind == "i" and q > 1 << (8 * size - 1):
            # every non-negative entry of this dtype lies below q
            bad = flat[flat.argmin()] < 0
        else:
            # read as unsigned, a negative entry lies at or above
            # 2^(8 size - 1) >= q, so one maximum checks both ends
            flat = flat.view(_UNSIGNED[size])
            bad = flat[flat.argmax()] >= q
    if bad:
        raise ValueError("%s must lie in [0, %d)" % (what, q))
    return arr


@functools.cache
def field_arrays(gf: GF) -> FieldArrays:
    return FieldArrays(gf)
