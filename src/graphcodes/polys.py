"""Dense univariate polynomials over a GF context.

A polynomial is a list of coefficients with index = degree and no trailing
zeros; the zero polynomial is the empty list.  All functions take the field
context as their first argument and never mutate their inputs.
"""

from __future__ import annotations


def poly_trim(coeffs: list) -> list:
    """Strip trailing zeros so that degree = len - 1 is reliable."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_deg(f: list) -> int:
    """Degree of f; -1 for the zero polynomial."""
    return len(f) - 1


def poly_from_roots(gf, roots) -> list:
    """Monic polynomial prod (x - r) over the multiset of roots."""
    f = [1]
    for r in roots:
        nr = gf.neg(r)
        out = [0] * (len(f) + 1)
        for i, c in enumerate(f):
            out[i + 1] = gf.add(out[i + 1], c)
            out[i] = gf.add(out[i], gf.mul(nr, c))
        f = out
    return f


def poly_eval(gf, f: list, x: int) -> int:
    """Horner evaluation of f at x."""
    acc = 0
    for c in reversed(f):
        acc = gf.add(gf.mul(acc, x), c)
    return acc


def poly_interpolate(gf, xs, ys) -> list:
    """The polynomial of degree < len(xs) through (xs[i], ys[i]), distinct xs.

    Newton divided differences, then expansion of the Newton form from the
    innermost factor outwards; O(n^2) field operations.
    """
    n = len(xs)
    c = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            c[i] = gf.div(gf.sub(c[i], c[i - 1]), gf.sub(xs[i], xs[i - j]))
    f = [0] * n
    for i in range(n - 1, -1, -1):
        nx = gf.neg(xs[i])  # f <- f * (x - xs[i]) + c[i]
        for d in range(n - 1 - i, 0, -1):
            f[d] = gf.add(f[d - 1], gf.mul(nx, f[d]))
        f[0] = gf.add(gf.mul(nx, f[0]), c[i])
    return poly_trim(f)


def poly_add(gf, f: list, g: list) -> list:
    out = [0] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = gf.add(out[i], c)
    return poly_trim(out)


def poly_sub(gf, f: list, g: list) -> list:
    return poly_add(gf, f, [gf.neg(c) for c in g])


def poly_scale(gf, f: list, c: int) -> list:
    if c == 0:
        return []
    return [gf.mul(c, v) for v in f]


def poly_mul(gf, f: list, g: list) -> list:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] = gf.add(out[i + j], gf.mul(a, b))
    return out


def poly_divmod(gf, f: list, g: list) -> tuple[list, list]:
    """(quotient, remainder) with deg(remainder) < deg(g)."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero polynomial")
    r = list(f)
    dg = len(g) - 1
    if len(r) <= dg:
        return [], poly_trim(r)
    q = [0] * (len(r) - dg)
    lead_inv = gf.inv(g[-1])
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i]
        if c == 0:
            continue
        c = gf.mul(c, lead_inv)
        q[i - dg] = c
        for j, gj in enumerate(g):
            r[i - dg + j] = gf.sub(r[i - dg + j], gf.mul(c, gj))
    return poly_trim(q), poly_trim(r)
