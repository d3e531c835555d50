"""Field arithmetic on numpy arrays of field elements.

One table set per field, built on first use and shared by every caller.  A
product is one gather with no mask: ``log[0]`` is 2(q - 1), beyond every
nonzero log, and ``exp`` is alpha^i up to that index and zero from it on, so
``exp[log[a] + log[b]]`` is a * b for all a, b, zeros included.  Elements
are held in the smallest dtype that holds a sum of two elements before
reduction.  This is the only place that reads the kind of field for arrays:
GF(p) adds mod p, GF(2^m) adds by XOR.
"""

from __future__ import annotations

import functools

import numpy as np

from .field import GF


class FieldArrays:
    """Elementwise add/sub/neg/mul/inv and a sum along an axis, for one field.

    ``log`` (int32) and ``exp`` are public so that callers can keep an
    operand in log form and multiply it by many others with one gather each.
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
        if gf.p == 2:
            self.add = self.sub = np.bitwise_xor
            self.neg = lambda a: a
            self.sum = lambda a, axis=0: np.bitwise_xor.reduce(a, axis=axis)
        else:
            p = gf.p
            # p - b lies in [1, p], so a + (p - b) stays below the dtype's limit
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a + (p - b)) % p
            self.neg = lambda a: (p - a) % p
            self.sum = lambda a, axis=0: (a.sum(axis=axis) % p).astype(self.dtype)

    def mul(self, a, b):
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a):
        """1 / a for nonzero a."""
        return self.exp[(self.q - 1) - self.log[a]]

    def vec_mat_logs(self, log_v, log_mat):
        """v . M, one per row of a 2-D v, from the logs: one gather and one sum."""
        return self.sum(self.exp[log_v[..., None] + log_mat], axis=-2)


@functools.cache
def field_arrays(gf: GF) -> FieldArrays:
    return FieldArrays(gf)
