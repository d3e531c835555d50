import random

import numpy as np
import pytest

from graphcodes.field import (GF, gf2_irreducible, is_prime,
                              smallest_irreducible_gf2, smallest_prime_at_least)


def _orders_mod_p(p):
    """Multiplicative order of every nonzero residue, by brute enumeration."""
    orders = {}
    for g in range(1, p):
        seen = set()
        v = 1
        for _ in range(p - 1):
            v = v * g % p
            seen.add(v)
        orders[g] = len(seen)
    return orders


def _gf2_rem_local(a, b):
    db = b.bit_length() - 1
    while a and a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def _irreducible_local(f, m):
    return all(_gf2_rem_local(f, g) != 0
               for d in range(1, m) for g in range(1 << d, 1 << (d + 1)))


def test_gf7_primitive_element_is_smallest_generator():
    gf = GF(7)
    assert gf.alpha == 3
    orders = _orders_mod_p(7)
    smallest = min(g for g, o in orders.items() if o == 6)
    assert smallest == 3
    # expected value frozen from the oracle above: powers of 3 are 3,2,6,4,5,1
    assert [gf.pow(3, i) for i in range(1, 7)] == [3, 2, 6, 4, 5, 1]


def test_gf2_trivial_group():
    gf = GF(2)
    assert gf.q == 2
    assert gf.alpha == 1
    assert gf.mul(1, 1) == 1
    assert gf.add(1, 1) == 0


def test_gf256_reduction_poly_is_smallest_irreducible():
    want = next(f for f in range(1 << 8, 1 << 9) if _irreducible_local(f, 8))
    assert smallest_irreducible_gf2(8) == want
    gf = GF(2, 8)
    # x^8 + x^4 + x^3 + x + 1, found by the scan above
    assert gf.reduction_poly == [1, 1, 0, 1, 1, 0, 0, 0, 1]
    assert want == 0b100011011


def test_mul_examples():
    gf = GF(7)
    assert gf.mul(3, 3) == 2
    assert gf.pow(gf.alpha, 5) == 5


@pytest.mark.parametrize("p,m", [(7, 1), (11, 1), (2, 1), (2, 4), (2, 8), (251, 1)])
def test_table_invariants(p, m):
    gf = GF(p, m)
    q = gf.q
    antilog = gf.antilog_table
    assert len(antilog) == q - 1
    assert len(set(antilog)) == q - 1  # alpha generates the whole group
    for x in range(1, q):
        assert antilog[gf.log_table[x - 1]] == x
    assert gf.pow(gf.alpha, q - 1) == 1
    for k in range(1, q - 1):
        assert gf.pow(gf.alpha, k) != 1


@pytest.mark.parametrize("p,m", [(7, 1), (13, 1), (2, 4), (2, 8)])
def test_field_axioms_randomized(p, m):
    gf = GF(p, m)
    rng = random.Random(1234 + p * m)
    for _ in range(300):
        a, b, c = (rng.randrange(gf.q) for _ in range(3))
        assert gf.add(a, b) == gf.add(b, a)
        assert gf.mul(a, b) == gf.mul(b, a)
        assert gf.add(gf.add(a, b), c) == gf.add(a, gf.add(b, c))
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
        assert gf.sub(gf.add(a, b), b) == a
        if a != 0:
            assert gf.mul(a, gf.inv(a)) == 1
            assert gf.div(b, a) == gf.mul(b, gf.inv(a))


def test_char2_self_cancellation():
    gf = GF(2, 8)
    for a in range(256):
        assert gf.add(a, a) == 0


def test_pow_edge_cases():
    gf = GF(11)
    assert gf.pow(0, 0) == 1
    assert gf.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        gf.pow(0, -1)
    a = 7
    assert gf.pow(a, -1) == gf.inv(a)
    assert gf.pow(a, 10) == 1


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF(7).inv(0)


def test_constructor_rejections():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(3, 2)  # odd-characteristic extension
    with pytest.raises(ValueError):
        GF(2, 17)  # q > 2^16
    with pytest.raises(ValueError):
        GF(7, 1, alpha=2)  # order 3, not primitive
    with pytest.raises(ValueError):
        GF(2, 4, reduction_poly=[1, 0, 0, 0, 1])  # x^4 + 1 = (x+1)^4


@pytest.mark.parametrize("poly", [[True, True, False, True], [1, 1, 0, 1.0], [1.0, 1, 0, 1],
                                  [1, "1", 0, 1], [1, 1, None, 1]],
                         ids=["bools", "float-lead", "float", "string", "none"])
def test_reduction_poly_coefficients_must_be_integers(poly):
    # the bools used to build GF(2^3) and the floats failed with a TypeError
    message = "reduction polynomial coefficients must be 0/1"
    with pytest.raises(ValueError, match=message):
        GF(2, 3, reduction_poly=poly)
    with pytest.raises(ValueError, match=message):
        GF.from_dict({"p": 2, "m": 3, "alpha": 2, "poly": poly})


def test_reduction_poly_takes_numpy_integers():
    gf = GF(2, 3, reduction_poly=np.array([1, 1, 0, 1]))
    assert gf.reduction_poly == [1, 1, 0, 1] and gf == GF(2, 3)
    assert all(type(c) is int for c in gf.to_dict()["poly"])


@pytest.mark.parametrize("p, alpha", [(7, 3.0), (7, "3"), (2, True), (2, 1.0)])
def test_alpha_must_be_an_integer(p, alpha):
    # 3 generates GF(7) and 1 generates GF(2); 3.0 used to pass the range
    # check and fail in the table build with a TypeError
    with pytest.raises(ValueError, match="not a primitive element"):
        GF(p, alpha=alpha)
    with pytest.raises(ValueError, match="not a primitive element"):
        GF.from_dict({"p": p, "m": 1, "alpha": alpha, "poly": None})


@pytest.mark.parametrize("p, m", [(7, True), (7, 1.0), (7.0, 1), (True, 1),
                                  ("7", 1), (2, 4.0), (2, False)])
def test_p_and_m_must_be_integers(p, m):
    # GF(7, True) used to build GF(7) and write "m": true back; the floats
    # failed with a TypeError
    message = "p must be a prime integer|extension degree must be an integer"
    with pytest.raises(ValueError, match=message):
        GF(p, m)
    with pytest.raises(ValueError, match=message):
        GF.from_dict({"p": p, "m": m, "alpha": 3, "poly": None})


def test_custom_alpha_and_serialization():
    gf = GF(7, alpha=5)
    assert gf.alpha == 5
    assert gf.mul(3, 3) == 2
    rebuilt = GF.from_dict(gf.to_dict())
    assert rebuilt == gf
    assert rebuilt.antilog_table == gf.antilog_table

    ext = GF(2, 8)
    back = GF.from_dict(ext.to_dict())
    assert back == ext and back.log_table == ext.log_table


def test_largest_supported_field():
    gf = GF(2, 16)
    assert gf.q == 1 << 16
    assert len(set(gf.antilog_table)) == gf.q - 1
    a, b = 0x1234, 0xBEEF
    assert gf.mul(a, gf.inv(a)) == 1
    assert gf.mul(a, b) == gf.mul(b, a)
    assert gf.add(a, a) == 0


def test_prime_helpers():
    assert [n for n in range(25) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23]
    assert smallest_prime_at_least(8) == 11
    assert smallest_prime_at_least(7) == 7
    assert gf2_irreducible(0b111, 2)      # x^2+x+1
    assert not gf2_irreducible(0b101, 2)  # x^2+1 = (x+1)^2
