import random

import pytest

from graphcodes.field import GF
from graphcodes.polys import (poly_add, poly_deg, poly_divmod, poly_eval,
                              poly_from_roots, poly_interpolate, poly_mul,
                              poly_scale, poly_sub, poly_trim)


def _random_poly(rng, gf, max_deg):
    return poly_trim([rng.randrange(gf.q) for _ in range(rng.randint(0, max_deg + 1))])


def test_from_roots_examples(gf7):
    # (x-1)(x-3) = x^2 + 3x + 3 over GF(7)
    assert poly_from_roots(gf7, [1, 3]) == [3, 3, 1]
    assert poly_from_roots(gf7, []) == [1]
    # x(x-1) = x^2 + 6x
    assert poly_from_roots(gf7, [0, 1]) == [0, 6, 1]


def test_from_roots_vanishes_exactly_on_roots(gf7):
    rng = random.Random(7)
    for _ in range(50):
        roots = [rng.randrange(7) for _ in range(rng.randint(0, 5))]
        f = poly_from_roots(gf7, roots)
        assert f[-1] == 1  # monic
        assert poly_deg(f) == len(roots)
        for r in roots:
            assert poly_eval(gf7, f, r) == 0
        for x in range(7):
            if x not in roots:
                assert poly_eval(gf7, f, x) != 0


def test_eval_examples(gf7):
    assert poly_eval(gf7, [0, 6, 1], 3) == 6  # x^2 + 6x at 3 -> 27 mod 7
    assert poly_eval(gf7, [], 5) == 0
    assert poly_eval(gf7, [4], 6) == 4


def test_scale_example(gf7):
    assert poly_scale(gf7, [0, 6, 1], 6) == [0, 1, 6]  # 6*(x^2+6x) = 6x^2+x
    assert poly_scale(gf7, [1, 2, 3], 0) == []


def test_mul_char2():
    gf = GF(2)
    assert poly_mul(gf, [1, 1], [1, 1]) == [1, 0, 1]  # (x+1)^2 = x^2+1


def test_mul_degree_additivity(gf7):
    rng = random.Random(11)
    for _ in range(60):
        f = _random_poly(rng, gf7, 5)
        g = _random_poly(rng, gf7, 5)
        if not f or not g:
            assert poly_mul(gf7, f, g) == []
            continue
        assert poly_deg(poly_mul(gf7, f, g)) == poly_deg(f) + poly_deg(g)


def test_divmod_exact_and_reconstruction(gf7):
    rng = random.Random(13)
    for _ in range(80):
        f = _random_poly(rng, gf7, 6)
        g = _random_poly(rng, gf7, 4)
        if not g:
            with pytest.raises(ZeroDivisionError):
                poly_divmod(gf7, f, g)
            continue
        q, r = poly_divmod(gf7, poly_mul(gf7, f, g), g)
        assert (q, r) == (f, [])
        q2, r2 = poly_divmod(gf7, f, g)
        assert poly_deg(r2) < poly_deg(g)
        assert poly_add(gf7, poly_mul(gf7, g, q2), r2) == f


def test_interpolate_recovers_the_polynomial():
    rng = random.Random(55)
    for gf in (GF(7), GF(13), GF(2, 4)):
        for n in range(gf.q + 1):
            xs = rng.sample(range(gf.q), n)
            f = _random_poly(rng, gf, n - 1)
            assert poly_interpolate(gf, xs, [poly_eval(gf, f, x) for x in xs]) == f


def test_add_sub_roundtrip():
    gf = GF(2, 4)
    rng = random.Random(17)
    for _ in range(50):
        f = _random_poly(rng, gf, 5)
        g = _random_poly(rng, gf, 5)
        assert poly_sub(gf, poly_add(gf, f, g), g) == f


def test_trim_normalization():
    assert poly_trim([1, 2, 0, 0]) == [1, 2]
    assert poly_trim([0, 0]) == []
    assert poly_deg([]) == -1
