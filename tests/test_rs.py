import itertools
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphcodes import arrays, rs
from graphcodes.arrays import field_arrays
from graphcodes.errors import DecodingError, GuardExceededError
from graphcodes.field import GF
from graphcodes.polys import (poly_deg, poly_divmod, poly_eval, poly_from_roots,
                              poly_interpolate, poly_mul, poly_sub)
from graphcodes.rs import (RSCode, decode, default_defining_set, encode,
                           erasure_decode, evaluate, generator_matrix)
from scalar_linalg import rank

# prime and binary-extension fields; at n = 64 over GF(256), nine messages
# split evaluate's gather over several blocks of BLOCK_ELEMENTS, and a
# 64-element block splits the node-power table's build as well
GENERATOR_FIELDS = ((7, 1), (31, 1), (2, 4), (2, 8))


def generator_cases():
    """(code, scalar generator) for every field above, with node 0 in and
    out of the defining set and k = 1, k = n and k in between."""
    rng = random.Random(31)
    for p, m in GENERATOR_FIELDS:
        gf = GF(p, m)
        n = min(gf.q, 64)
        with_zero = default_defining_set(gf, n)
        without_zero = tuple(rng.sample(range(1, gf.q), n - 1))
        for nodes in (with_zero, without_zero):
            for k in sorted({1, 2, len(nodes) // 2, len(nodes)}):
                code = RSCode(gf, nodes, k)
                yield code, [[gf.pow(x, r) for x in nodes] for r in range(k)]


def scalar_decode(code, received, erasures=()):
    """Gao's decoder one field element at a time: the reference for decode.

    Interpolates the N unerased symbols to g1, runs a partial extended
    Euclid on (prod (x - x_j) over the unerased nodes, g1) until the
    remainder has degree < (N + k) / 2, and divides it by the Bezout
    coefficient v.  Raises DecodingError where decode must.
    """
    gf = code.gf
    n, k = code.n, code.k
    erased = set(erasures)
    kept = [j for j in range(n) if j not in erased]
    if len(kept) < k:
        raise DecodingError("only %d unerased symbols, need %d" % (len(kept), k))
    xs = [code.nodes[j] for j in kept]
    ys = [received[j] for j in kept]
    r0, r1 = poly_from_roots(gf, xs), poly_interpolate(gf, xs, ys)
    v0, v1 = [], [1]
    while 2 * poly_deg(r1) >= len(kept) + k:
        quo, rem = poly_divmod(gf, r0, r1)
        r0, r1 = r1, rem
        v0, v1 = v1, poly_sub(gf, v0, poly_mul(gf, quo, v1))
    message, rem = poly_divmod(gf, r1, v1)
    if rem or len(message) > k:
        raise DecodingError("no codeword lies within the decoding radius")
    message += [0] * (k - len(message))
    positions = [j for j, x, y in zip(kept, xs, ys) if poly_eval(gf, message, x) != y]
    if len(positions) > (len(kept) - k) // 2:
        raise DecodingError("corruption exceeds the unique-decoding radius")
    return message, positions


def outcome(decoder, code, received, erasures):
    """(message, positions), or the DecodingError's text."""
    try:
        return decoder(code, received, erasures)
    except DecodingError as exc:
        return str(exc)


def test_default_defining_set(gf7):
    assert default_defining_set(gf7, 7) == (0, 1, 3, 2, 6, 4, 5)
    assert default_defining_set(gf7, 3) == (0, 1, 3)
    with pytest.raises(ValueError):
        default_defining_set(gf7, 8)


@pytest.mark.parametrize("gf", [GF(7), GF(2, 8), GF(65521)], ids=repr)
def test_default_defining_set_is_zero_then_powers_of_alpha(gf):
    for n in sorted({1, 2, 7, min(gf.q, 40), min(gf.q, 256)}):
        nodes = default_defining_set(gf, n)
        assert nodes == (0,) + tuple(gf.pow(gf.alpha, i) for i in range(n - 1))
        assert all(type(x) is int for x in nodes)


def test_code_validation(gf7):
    nodes = default_defining_set(gf7, 7)
    with pytest.raises(ValueError):
        RSCode(gf7, (0, 1, 1), 2)  # repeated node
    for k in (0, 8, 7.0, True, "3"):  # one check, one message: an integer in [1, n]
        with pytest.raises(ValueError, match=r"^k must lie in \[1, 7\] and be an integer, got %s$"
                           % re.escape(repr(k))):
            RSCode(gf7, nodes, k)
    assert RSCode(gf7, nodes, np.int64(3)).log_powers.shape == (3, 7)
    with pytest.raises(ValueError):
        RSCode(gf7, (0, 1, 9), 2)  # out of field


def test_a_kept_node_set_still_refuses_equal_sets_of_non_symbols():
    # node sets are checked once and kept by value, where True == 1 and
    # 1.0 == 1: a set equal to a kept one must still be refused as before
    gf = GF(7)
    nodes = (0, 1, 2, 3, 4, 5, 6)
    RSCode(gf, nodes, 4)
    outside = r"^defining set must lie in \[0, 7\)$"
    for bad, message in (((0, True, 2, 3, 4, 5, 6), outside),
                         ((0, 1.0, 2, 3, 4, 5, 6), outside),
                         ((0, 1, 2, 3, 4, 5, -1), outside),
                         ((0, 1, 2, 3, 4, 5, 7), outside),
                         ((0, 1, 2, 3, 4, 5, 5), r"^defining set elements must be distinct$")):
        with pytest.raises(ValueError, match=message):
            RSCode(gf, bad, 4)
    code = RSCode(gf, tuple(map(np.int64, nodes)), 4)
    assert code == RSCode(gf, nodes, 4)
    assert generator_matrix(code) == generator_matrix(RSCode(gf, nodes, 4))


def test_a_code_keeps_the_nodes_it_checked_not_the_callers_object():
    # a list or an array of nodes and a numpy k give the code a tuple of
    # ints gives: hashable, equal to it, and out of reach of a later change
    # to the caller's list, which once reordered G's rows but not its tables
    gf = GF(7)
    nodes = [0, 1, 3, 2, 6, 4, 5]
    want = RSCode(gf, tuple(nodes), 3)
    G, word = generator_matrix(want), encode(want, [1, 1, 1])
    for given_nodes, k in ((nodes, 3), (np.array(nodes), 3), (nodes, np.int64(3))):
        code = RSCode(gf, given_nodes, k)
        assert code.nodes == tuple(nodes) and type(code.k) is int
        assert all(type(x) is int for x in code.nodes)
        assert code == want and hash(code) == hash(want) and {want: 1}[code] == 1
        given_nodes[:] = given_nodes[::-1]
        assert generator_matrix(code) == G and encode(code, [1, 1, 1]) == word
        given_nodes[:] = given_nodes[::-1]


@pytest.mark.parametrize("p, m", [(131, 1), (2, 8)], ids=["GF131", "GF256"])
def test_root_logs_match_a_plain_product_of_node_differences(p, m):
    # n = 7 and n = 128 read the node set's kept difference table, n = 129
    # (n^2 > BLOCK_ELEMENTS) takes the differences a block at a time; each
    # code has a node set of its own, so a table kept for another set shows
    gf = GF(p, m)
    fa = field_arrays(gf)
    rng = random.Random(p)
    for n in (7, 128, 129):
        for _ in range(2):
            nodes = tuple(rng.sample(range(gf.q), n))
            code = RSCode(gf, nodes, n)
            kept = rs._node_tables(gf, nodes).log_diff is not None
            assert kept == (n * n <= arrays.BLOCK_ELEMENTS)
            zero = np.array([[rng.random() < 0.5 for _ in range(n)] for _ in range(3)])
            got = fa.elements(rs.root_logs(code, zero) % (gf.q - 1))
            for i, row in enumerate(zero.tolist()):
                roots = [x for x, z in zip(nodes, row) if z]
                for j, x in enumerate(nodes):
                    if not row[j]:
                        want = 1
                        for root in roots:
                            want = gf.mul(want, gf.sub(x, root))
                        assert got[i, j] == want


def test_generator_shape_and_rows(gf7):
    code = RSCode(gf7, default_defining_set(gf7, 7), 4)
    gen = generator_matrix(code)
    assert gen[0] == [1] * 7
    assert gen[1] == list(code.nodes)
    assert gen[2] == [gf7.mul(x, x) for x in code.nodes]
    one = RSCode(gf7, code.nodes, 1)
    assert generator_matrix(one) == [[1] * 7]
    square = RSCode(gf7, code.nodes, 7)
    assert rank(gf7, generator_matrix(square)) == 7
    # 0^0 = 1 and 0^r = 0 for r >= 1 in the node-0 column
    assert [row[0] for row in generator_matrix(square)] == [1, 0, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("block", [arrays.BLOCK_ELEMENTS, 64])
def test_generator_matches_scalar_powers(monkeypatch, block):
    monkeypatch.setattr(arrays, "BLOCK_ELEMENTS", block)
    for code, want in generator_cases():
        assert generator_matrix(code) == want
        assert all(type(v) is int for row in generator_matrix(code) for v in row)


def test_node_powers_are_built_once_and_stay_out_of_equality():
    gf = GF(2, 4)
    code, twin = (RSCode(gf, default_defining_set(gf, 12), 5) for _ in range(2))
    assert "log_powers" not in vars(code)
    table = code.log_powers
    assert table.shape == (5, 12) and table.dtype == np.int32
    generator_matrix(code)
    encode(code, [1] * 5)
    assert code.log_powers is table
    assert code == twin and hash(code) == hash(twin) and "log_powers" not in vars(twin)


def test_every_k_columns_invertible():
    gf = GF(11)
    nodes = default_defining_set(gf, 8)
    for k in (2, 3, 4):
        gen = generator_matrix(RSCode(gf, nodes, k))
        for cols in itertools.combinations(range(8), k):
            sub = [[row[c] for c in cols] for row in gen]
            assert rank(gf, sub) == k


def test_encode_examples(gf7):
    code = RSCode(gf7, default_defining_set(gf7, 7), 4)
    assert encode(code, [0, 0, 0, 0]) == [0] * 7
    assert encode(code, [0, 1, 0, 0]) == list(code.nodes)
    # m(x) = x^3 at node 3 evaluates to 27 mod 7 = 6
    assert encode(code, [0, 0, 0, 1])[2] == 6
    with pytest.raises(ValueError):
        encode(code, [1, 2, 3])


@pytest.mark.parametrize("block", [arrays.BLOCK_ELEMENTS, 64])
def test_encode_and_evaluate_match_scalar_horner(monkeypatch, block):
    monkeypatch.setattr(arrays, "BLOCK_ELEMENTS", block)
    rng = random.Random(7)
    for code, _ in generator_cases():
        gf = code.gf
        messages = [[rng.randrange(gf.q) for _ in range(code.k)] for _ in range(9)]
        messages[0] = [0] * code.k
        messages[1] = [gf.q - 1] * code.k
        want = [[poly_eval(gf, msg, x) for x in code.nodes] for msg in messages]
        assert evaluate(code, messages) == want
        assert [encode(code, msg) for msg in messages] == want
        assert evaluate(code, messages[2:3]) == want[2:3]


@pytest.mark.parametrize("messages", [
    [[1, 2, 3]],            # k - 1 symbols
    [[1, 2, 3, 4, 5]],
    [1, 2, 3, 4],           # one message, not a block of them
    [[1, 2, 3, 7]],         # outside GF(7)
    [[1, 2, 3, -1]],        # would wrap in a log table
    [[1, 2, 3, 4.0]],
    [[1, 2, 3, 1 << 70]],
])
def test_evaluate_rejects_bad_messages(gf7, messages):
    code = RSCode(gf7, default_defining_set(gf7, 7), 4)
    with pytest.raises(ValueError):
        evaluate(code, messages)


def test_decode_clean(gf7):
    code = RSCode(gf7, default_defining_set(gf7, 7), 4)
    msg = [2, 0, 5, 1]
    got, positions = decode(code, encode(code, msg))
    assert got == msg and positions == []


def test_decode_all_small_error_patterns():
    gf = GF(7)
    nodes = default_defining_set(gf, 7)
    rng = random.Random(99)
    for k in (2, 3):
        code = RSCode(gf, nodes, k)
        t = (7 - k) // 2
        for _ in range(3):
            msg = [rng.randrange(7) for _ in range(k)]
            cw = encode(code, msg)
            for w in range(1, min(t, 2) + 1):
                for positions in itertools.combinations(range(7), w):
                    for values in itertools.product(range(1, 7), repeat=w):
                        received = list(cw)
                        for j, v in zip(positions, values):
                            received[j] = gf.add(received[j], v)
                        got, err_pos = decode(code, received)
                        assert got == msg
                        assert err_pos == list(positions)


def test_decode_randomized_trials():
    rng = random.Random(4242)
    for p in (11, 13):
        gf = GF(p)
        nodes = default_defining_set(gf, p)
        for _ in range(300):
            k = rng.randint(1, p - 1)
            code = RSCode(gf, nodes, k)
            t = (p - k) // 2
            msg = [rng.randrange(p) for _ in range(k)]
            cw = encode(code, msg)
            w = rng.randint(0, t)
            positions = rng.sample(range(p), w)
            received = list(cw)
            for j in positions:
                received[j] = gf.add(received[j], rng.randrange(1, p))
            got, err_pos = decode(code, received)
            assert got == msg
            assert sorted(err_pos) == sorted(positions)


def test_decode_beyond_radius_never_silently_lies():
    gf = GF(7)
    nodes = default_defining_set(gf, 7)
    code = RSCode(gf, nodes, 4)
    t = 1
    rng = random.Random(31337)
    for _ in range(200):
        msg = [rng.randrange(7) for _ in range(4)]
        received = list(encode(code, msg))
        for j in rng.sample(range(7), 2):  # two errors, beyond t = 1
            received[j] = gf.add(received[j], rng.randrange(1, 7))
        try:
            got, _ = decode(code, received)
        except DecodingError:
            continue
        # a successful decode must re-encode within the radius
        reenc = encode(code, got)
        assert sum(a != b for a, b in zip(reenc, received)) <= t


def test_decode_whole_other_codeword():
    gf = GF(7)
    code = RSCode(gf, default_defining_set(gf, 7), 4)
    other = [1, 2, 3, 4]
    got, positions = decode(code, encode(code, other))
    assert got == other and positions == []


def test_erasure_decode(gf7):
    code = RSCode(gf7, default_defining_set(gf7, 7), 4)
    msg = [4, 0, 2, 6]
    cw = encode(code, msg)
    assert erasure_decode(code, cw) == msg  # no erasures: full consistency pass
    for erased in itertools.combinations(range(7), 3):
        received = [0 if j in erased else cw[j] for j in range(7)]
        assert erasure_decode(code, received, erased) == msg
    with pytest.raises(DecodingError):
        erasure_decode(code, cw, (0, 1, 2, 3))  # only 3 clean symbols left
    corrupted = list(cw)
    corrupted[6] = gf7.add(corrupted[6], 1)
    with pytest.raises(DecodingError):
        erasure_decode(code, corrupted, (0, 1))  # clean symbols disagree


def test_decode_one_erasure_and_one_error(gf7):
    # 2e + f = 3 <= n - k = 3; the old erasure path refused any error
    code = RSCode(gf7, default_defining_set(gf7, 7), 4)
    msg = [4, 0, 2, 6]
    received = encode(code, msg)
    received[1] = 0
    received[5] = gf7.add(received[5], 3)
    assert decode(code, received, (1,)) == (msg, [5])
    assert erasure_decode(code, received, (1,)) == msg


@st.composite
def delivered_words(draw):
    """(code, message, received, erasures, errors) over GF(7), GF(11), GF(16)."""
    gf = draw(st.sampled_from((GF(7), GF(11), GF(2, 4))))
    n = draw(st.integers(1, gf.q))
    k = draw(st.integers(1, n))
    code = RSCode(gf, default_defining_set(gf, n), k)
    msg = draw(st.lists(st.integers(0, gf.q - 1), min_size=k, max_size=k))
    order = draw(st.permutations(range(n)))
    f = draw(st.integers(0, n))
    e = draw(st.integers(0, n - f))
    erasures, errors = sorted(order[:f]), sorted(order[f:f + e])
    received = encode(code, msg)
    for j in erasures:
        received[j] = draw(st.integers(0, gf.q - 1))
    for j in errors:
        received[j] = gf.add(received[j], draw(st.integers(1, gf.q - 1)))
    return code, msg, received, erasures, errors


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(delivered_words())
def test_decode_errors_and_erasures_property(word):
    code, msg, received, erasures, errors = word
    n, k, f, e = code.n, code.k, len(erasures), len(errors)
    if 2 * e + f <= n - k:
        assert decode(code, received, erasures) == (msg, errors)
        return
    try:
        got, positions = decode(code, received, erasures)
    except DecodingError:
        return
    # beyond the radius only a codeword within budget of the unerased symbols may come back
    reenc = encode(code, got)
    mismatches = [j for j in range(n) if j not in erasures and reenc[j] != received[j]]
    assert positions == mismatches
    assert len(mismatches) <= (n - f - k) // 2


@pytest.mark.parametrize("symbol", [7, -1])
def test_encode_and_decode_reject_out_of_range_symbols(gf7, symbol):
    code = RSCode(gf7, default_defining_set(gf7, 7), 4)
    with pytest.raises(ValueError, match="message symbols must lie in"):
        encode(code, [symbol, 0, 0, 0])
    with pytest.raises(ValueError, match="received symbols must lie in"):
        decode(code, [symbol] + [0] * 6)


@pytest.mark.parametrize("m, dtype", [(8, np.int8), (16, np.int16)])
def test_small_signed_arrays_holding_negatives_are_refused_over_gf_2m(m, dtype):
    # q exceeds the dtype's largest value, so only a test for negatives finds them
    gf = GF(2, m)
    n = 255
    code = RSCode(gf, default_defining_set(gf, n), 4)
    with pytest.raises(ValueError, match="message symbols must lie in"):
        encode(code, np.array([-1] * 4, dtype=dtype))
    with pytest.raises(ValueError, match="received symbols must lie in"):
        decode(code, np.array([-1] + [0] * (n - 1), dtype=dtype))
    with pytest.raises(ValueError, match="erasure positions must lie in"):
        erasure_decode(code, [0] * n, np.array([3, -2], dtype=np.int8))


def test_erasure_index_validation(gf7):
    code = RSCode(gf7, default_defining_set(gf7, 7), 4)
    with pytest.raises(ValueError):
        erasure_decode(code, [0] * 7, (9,))


def test_rs_is_mds_small():
    # brute-force pairwise distance oracle, small parameters only
    gf = GF(7)
    nodes = default_defining_set(gf, 7)
    for k in (1, 2):
        code = RSCode(gf, nodes, k)
        words = [tuple(encode(code, list(m)))
                 for m in itertools.product(range(7), repeat=k)]
        dist = min(sum(a != b for a, b in zip(w1, w2))
                   for w1, w2 in itertools.combinations(words, 2))
        assert dist == 7 - k + 1


PARITY_FIELDS = (GF(7), GF(13), GF(31), GF(2, 4), GF(2, 6), GF(2, 8))


def corrupted_word(rng, code, errors, erasures):
    """A codeword of a random message with ``errors`` symbols changed and
    ``erasures`` others erased (set to random values)."""
    gf, n = code.gf, code.n
    received = encode(code, [rng.randrange(gf.q) for _ in range(code.k)])
    order = rng.sample(range(n), errors + erasures)
    erased = sorted(order[:erasures])
    for j in erased:
        received[j] = rng.randrange(gf.q)
    for j in order[erasures:]:
        received[j] = gf.add(received[j], rng.randrange(1, gf.q))
    return received, erased


@pytest.mark.parametrize("gf", PARITY_FIELDS, ids=repr)
def test_decode_matches_scalar_reference(gf):
    # words within and beyond the radius, 40% of them with erasures
    rng = random.Random(gf.q)
    for trial in range(60):
        n = rng.randint(1, min(gf.q, 40))
        k = rng.randint(1, n)
        code = RSCode(gf, default_defining_set(gf, n), k)
        f = rng.randint(1, n - k) if trial % 5 < 2 and n > k else 0
        t = (n - f - k) // 2
        e = rng.randint(0, min(n - f, t + 2))
        received, erased = corrupted_word(rng, code, e, f)
        assert (outcome(decode, code, received, erased)
                == outcome(scalar_decode, code, received, erased)), (n, k, f, e)


@pytest.mark.parametrize("gf", PARITY_FIELDS, ids=repr)
def test_decode_edge_cases_match_scalar_reference(gf):
    # n = q (0 is a node), k = 1, k = n and f = n - k, within and beyond t
    rng = random.Random(2 * gf.q + 1)
    n = min(gf.q, 64)
    nodes = default_defining_set(gf, n)
    for k in (1, n // 2, n - 1, n):
        code = RSCode(gf, nodes, k)
        t = (n - k) // 2
        for e, f in ((0, 0), (t, 0), (t + 1, 0), (0, n - k), (0, n - k + 1),
                     (1, n - k - 1), (t // 2, n - k - 2 * (t // 2))):
            if e < 0 or f < 0 or e + f > n:
                continue
            received, erased = corrupted_word(rng, code, e, f)
            assert (outcome(decode, code, received, erased)
                    == outcome(scalar_decode, code, received, erased)), (k, e, f)


def test_decode_full_length_code_matches_scalar_reference():
    gf = GF(2, 8)
    rng = random.Random(256)
    code = RSCode(gf, default_defining_set(gf, 256), 100)
    for e, f in ((78, 0), (79, 0), (40, 76), (0, 156), (20, 120)):
        received, erased = corrupted_word(rng, code, e, f)
        assert (outcome(decode, code, received, erased)
                == outcome(scalar_decode, code, received, erased)), (e, f)


# the three decode-stream codes: length, field and RS dimension
STREAM_SHAPES = ((31, GF(31), 22), (63, GF(2, 6), 30), (255, GF(2, 8), 81))
# the same widths over prime fields, so GF(p)'s in-place row update runs on
# rows as wide as the stream's
PRIME_STREAM_SHAPES = ((63, GF(67), 30), (255, GF(257), 81))


@pytest.mark.parametrize("n, gf, k", STREAM_SHAPES + PRIME_STREAM_SHAPES, ids=repr)
def test_decode_matches_scalar_reference_on_stream_shapes(n, gf, k):
    # clean words, t errors, n - k erasures, errors and erasures mixed
    # within the radius, and t + 1 errors
    rng = random.Random(n * 1000 + k)
    code = RSCode(gf, default_defining_set(gf, n), k)
    t = (n - k) // 2
    for trial in range(6):
        e = rng.randint(1, t)
        for errors, erasures in ((0, 0), (t, 0), (0, n - k),
                                 (e, rng.randint(0, n - k - 2 * e)), (t + 1, 0)):
            received, erased = corrupted_word(rng, code, errors, erasures)
            assert (outcome(decode, code, received, erased)
                    == outcome(scalar_decode, code, received, erased)), (trial, errors, erasures)


@pytest.mark.parametrize("n, gf, k", STREAM_SHAPES, ids=repr)
def test_decode_mixed_errors_and_erasures_match_scalar_reference(n, gf, k):
    # 0 < f < n - k with at least one error: the erasure factor multiplies
    # the syndromes; within the radius, at it and one error beyond it
    rng = random.Random(n * 7 + k)
    code = RSCode(gf, default_defining_set(gf, n), k)
    for trial in range(8):
        f = rng.randint(1, n - k - 2)
        t = (n - k - f) // 2
        for e in (rng.randint(1, t), t, t + 1):
            received, erased = corrupted_word(rng, code, e, f)
            got = outcome(decode, code, received, erased)
            assert got == outcome(scalar_decode, code, received, erased), (trial, e, f)
            assert isinstance(got, tuple) or e > t


def word_with(rng, code, errors, erased):
    """A codeword of a random message with the positions ``errors`` changed
    and the positions ``erased`` set to random values."""
    gf = code.gf
    received = encode(code, [rng.randrange(gf.q) for _ in range(code.k)])
    for j in erased:
        received[j] = rng.randrange(gf.q)
    for j in errors:
        received[j] = gf.add(received[j], rng.randrange(1, gf.q))
    return received


@pytest.mark.parametrize("gf", PARITY_FIELDS, ids=repr)
def test_decode_at_node_zero_matches_scalar_reference(gf):
    # node 0 is the first default node: 0^0 = 1 and 0^t = 0 in the syndromes
    # and in the locator's root search
    rng = random.Random(3 * gf.q)
    for n in sorted({min(gf.q, 7), min(gf.q, 40)}):
        for k in sorted({1, n // 3 + 1, n - 2}):
            code = RSCode(gf, default_defining_set(gf, n), k)
            for trial in range(6):
                # even trials erase node 0, so they erase at least one symbol
                f = min(trial % 3 + (not trial % 2), n - k)
                t = (n - k - f) // 2
                picks = rng.sample(range(1, n), f + t)
                if trial % 2:  # node 0 as an error, beyond the radius when t = 0
                    errors, erased = ([0] + picks[f:])[:max(t, 1)], sorted(picks[:f])
                else:  # node 0 as an erasure
                    errors, erased = picks[f:], sorted([0] + picks[:f - 1])
                received = word_with(rng, code, errors, erased)
                got = outcome(decode, code, received, erased)
                assert got == outcome(scalar_decode, code, received, erased), (n, k, trial)
                if len(errors) <= t:
                    assert got[1] == sorted(errors), (n, k, trial)


@pytest.mark.parametrize("gf", PARITY_FIELDS, ids=repr)
def test_decode_at_full_rate_matches_scalar_reference(gf):
    # k = n: every word is a codeword, and one erasure leaves too few symbols
    rng = random.Random(5 * gf.q)
    for n in sorted({1, 2, min(gf.q, 9), min(gf.q, 33)}):
        code = RSCode(gf, default_defining_set(gf, n), n)
        for erased in ([], [rng.randrange(n)]):
            received = [rng.randrange(gf.q) for _ in range(n)]
            got = outcome(decode, code, received, erased)
            assert got == outcome(scalar_decode, code, received, erased), (n, erased)
            if not erased:
                assert got[1] == [] and encode(code, got[0]) == received


@pytest.mark.parametrize("gf", PARITY_FIELDS, ids=repr)
def test_decode_refuses_an_error_beside_n_minus_k_minus_1_erasures(gf):
    # f = n - k leaves the k unerased symbols no redundancy: every word is
    # some codeword there, and one changed symbol gives that codeword.  One
    # erasure fewer leaves k + 1 symbols, and one changed symbol is refused
    rng = random.Random(7 * gf.q)
    n = min(gf.q, 30)
    for k in sorted({1, n // 2, n - 1}):
        code = RSCode(gf, default_defining_set(gf, n), k)
        for f in (n - k, n - k - 1):
            for _ in range(4):
                order = rng.sample(range(n), f + 1)
                erased = sorted(order[1:])
                received = word_with(rng, code, order[:1], erased)
                got = outcome(decode, code, received, erased)
                assert got == outcome(scalar_decode, code, received, erased), (k, f, erased)
                if f == n - k:
                    assert got[1] == [] and not any(
                        a != b for j, (a, b) in enumerate(zip(encode(code, got[0]), received))
                        if j not in erased), (k, erased)
                else:
                    assert got == "no codeword lies within the decoding radius", (k, erased)


def test_locator_roots_refuse_a_short_or_erased_root_set():
    # over GF(7) on the nodes (0, 1, 3, 2, 6, 4, 5): a locator is accepted
    # only with deg sigma distinct roots, all at unerased nodes
    gf = GF(7)
    code = RSCode(gf, default_defining_set(gf, 7), 2)
    fa, powers = field_arrays(gf), code.decode_tables.powers
    keep = np.ones(7, dtype=bool)

    def roots(coefficients, keep=keep):
        try:
            return rs._roots(fa, powers, np.array(coefficients, dtype=fa.dtype), keep).tolist()
        except DecodingError as exc:
            return str(exc)

    assert roots([3, 3, 1]) == [1, 2]  # (x - 1)(x - 3)
    assert roots([0, 6, 1]) == [0, 1]  # x (x - 1): node 0 is a root
    assert roots([1, 0, 1]) == "no codeword lies within the decoding radius"  # x^2 + 1
    assert roots([1, 5, 1]) == "no codeword lies within the decoding radius"  # (x - 1)^2
    erased = keep.copy()
    erased[2] = False
    assert roots([3, 3, 1], erased) == "no codeword lies within the decoding radius"


def test_an_uncached_interpolation_table_is_built_once_per_code(monkeypatch):
    # a table over one block is not kept across codes, so the code keeps
    # the one it built
    gf = GF(2, 6)
    code = RSCode(gf, default_defining_set(gf, 40), 24)
    monkeypatch.setattr(arrays, "BLOCK_ELEMENTS", 24 * 24 - 1)
    builds = []
    lagrange_logs = rs._lagrange_logs
    monkeypatch.setattr(rs, "_lagrange_logs", lambda *a: builds.append(1) or lagrange_logs(*a))
    rng = random.Random(40)
    for errors, erasures in ((3, 0), (0, 16), (2, 5)):
        received, erased = corrupted_word(rng, code, errors, erasures)
        assert (outcome(decode, code, received, erased)
                == outcome(scalar_decode, code, received, erased))
    assert len(builds) == 1
    RSCode(gf, code.nodes, 24).interpolation
    assert len(builds) == 2


def test_evaluate_bounds_its_gather_over_many_messages():
    # 2000 messages of the [255, 128] code over GF(2^8) against the 128 x 255
    # node powers: one row of them against every message is 510,000 elements,
    # so the messages are split into blocks too
    gf = GF(2, 8)
    code = RSCode(gf, default_defining_set(gf, 255), 128)
    rng = random.Random(2000)
    messages = [[rng.randrange(gf.q) for _ in range(128)] for _ in range(2000)]
    want = evaluate(code, messages[:3])
    tracemalloc.start()
    try:
        got = evaluate(code, messages)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[:3] == want and len(got) == 2000
    assert peak < 7.4 * (1 << 20), peak


@st.composite
def parity_words(draw):
    gf = draw(st.sampled_from(PARITY_FIELDS))
    n = draw(st.integers(1, min(gf.q, 32)))
    k = draw(st.integers(1, n))
    code = RSCode(gf, default_defining_set(gf, n), k)
    received = draw(st.lists(st.integers(0, gf.q - 1), min_size=n, max_size=n))
    erasures = draw(st.lists(st.integers(0, n - 1), max_size=n - k, unique=True))
    return code, received, erasures


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(parity_words())
def test_decode_matches_scalar_reference_on_arbitrary_words(word):
    code, received, erasures = word
    assert (outcome(decode, code, received, erasures)
            == outcome(scalar_decode, code, received, erasures))


def test_decode_tables_are_built_once_and_stay_out_of_equality():
    gf = GF(2, 6)
    nodes = default_defining_set(gf, 40)
    code, twin = RSCode(gf, nodes, 12), RSCode(gf, nodes, 12)
    assert "decode_tables" not in vars(code)
    msg = list(range(12))
    word = encode(code, msg)
    word[3] ^= 5
    assert decode(code, word) == (msg, [3])
    tables = vars(code)["decode_tables"]
    assert decode(code, word, (7,)) == (msg, [3])
    assert code.decode_tables is tables
    assert code == twin and hash(code) == hash(twin) and repr(code) == repr(twin)
    assert not {"decode_tables", "interpolation"} & set(vars(twin))
    assert {code: 1}[twin] == 1
    # the decode reads the code's interpolation table, kept on the code
    # beside its decode tables and shared with the twin's
    assert vars(code)["interpolation"] is twin.interpolation
    # node-major powers x_j^t for t < n - k with 0^0 = 1, and logs of
    # v_j = 1 / prod (x_j - x_i) over i != j below q - 1
    assert tables._fields == ("powers", "log_v")
    fa = field_arrays(gf)
    assert tables.powers.shape == (40, 28) and tables.powers.dtype == np.int32
    assert fa.elements(tables.powers).tolist() == [[gf.pow(x, t) for t in range(28)]
                                                   for x in nodes]
    assert tables.log_v.dtype == np.int32 and 0 <= tables.log_v.min() <= tables.log_v.max() < 63
    for j, x in enumerate(nodes):
        prod = 1
        for i, other in enumerate(nodes):
            if i != j:
                prod = gf.mul(prod, gf.sub(x, other))
        assert gf.mul(int(fa.elements(tables.log_v[j])), prod) == 1


def test_decode_tables_guard_refuses_before_allocating(monkeypatch):
    # a full-length code over GF(2^16) would need 12 to 16 GiB of tables
    gf = GF(31)
    code = RSCode(gf, default_defining_set(gf, 31), 11)
    needed = 4 * (31 * (31 - 11) + 31 + 11 * 11)
    monkeypatch.setattr(rs, "TABLE_BYTES_GUARD", needed - 1)
    with pytest.raises(GuardExceededError, match="n=31 need %d bytes" % needed):
        decode(code, [0] * 31)
    assert "decode_tables" not in vars(code)
    monkeypatch.setattr(rs, "TABLE_BYTES_GUARD", needed)
    assert decode(code, [0] * 31) == ([0] * 11, [])


def test_a_warm_decode_keeps_no_table_indexed_by_field_element():
    # over GF(2^16) at n = 1024 a table of the q - 1 multiples of a row
    # would take over 100 MB; the decoder's temporaries are a few rows wide
    gf = GF(2, 16)
    code = RSCode(gf, default_defining_set(gf, 1024), 512)
    rng = random.Random(1024)
    t = (code.n - code.k) // 2
    decode(code, encode(code, [0] * code.k))  # builds the decode tables
    for errors, erasures in ((t, 0), (0, code.n - code.k), (100, 312)):
        message = [rng.randrange(gf.q) for _ in range(code.k)]
        received = encode(code, message)
        order = rng.sample(range(code.n), errors + erasures)
        erased = sorted(order[:erasures])
        for j in order:
            received[j] ^= rng.randrange(1, gf.q)
        tracemalloc.start()
        try:
            decoded = decode(code, received, erased)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert decoded == message, (errors, erasures)
        assert peak < 8 << 20, (errors, erasures, peak)
        if errors and erasures:
            # the erasure factor takes only the M = n - k - f coefficients
            # the decoder keeps, a block at a time: 3.45 MiB when it took
            # all f + n - k of them whole
            assert peak < 2 << 20, (errors, erasures, peak)


def test_a_warm_high_rate_decode_interpolates_a_block_at_a_time():
    # at k = 960 a k x k array of node-difference logs, with the intp copy
    # of its indices that take makes, would take about 14 MiB
    gf = GF(2, 16)
    code = RSCode(gf, default_defining_set(gf, 1024), 960)
    rng = random.Random(960)
    decode(code, encode(code, [0] * code.k))  # builds the decode tables
    for errors, erasures in ((32, 0), (0, 64), (10, 40)):
        received, erased = corrupted_word(rng, code, errors, erasures)
        tracemalloc.start()
        try:
            decode(code, received, erased)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, (errors, erasures, peak)


# -- vanishing polynomials: the node product tree -----------------------------

VANISHING_FIELDS = ((2, 1), (7, 1), (31, 1), (2, 4), (2, 8))


@st.composite
def vanishing_cases(draw):
    """(gf, nodes): node counts at, just below and just above a power of
    two, and one at random."""
    gf = GF(*draw(st.sampled_from(VANISHING_FIELDS)))
    power = 1 << draw(st.integers(0, (min(gf.q, 64) - 1).bit_length()))
    n = draw(st.sampled_from((power - 1, power, power + 1, draw(st.integers(1, 64)))))
    n = max(1, min(n, gf.q))
    return gf, draw(st.permutations(range(gf.q)))[:n]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(vanishing_cases())
def test_vanishing_matches_the_scalar_reference(case):
    gf, x = case
    fa = field_arrays(gf)
    got = rs._node_product(fa, np.array(x, dtype=fa.dtype))
    assert got.dtype == fa.dtype
    assert got.tolist() == poly_from_roots(gf, x)


@pytest.mark.parametrize("p, m, n", [(7, 1, 7), (31, 1, 31), (2, 6, 63), (2, 8, 255)])
def test_decode_tables_node_product_is_the_monic_vanishing_polynomial(p, m, n):
    gf = GF(p, m)
    code = RSCode(gf, default_defining_set(gf, n), n // 3)
    fa = field_arrays(gf)
    g0 = rs._node_product(fa, np.array(code.nodes, dtype=fa.dtype))
    assert g0.dtype == fa.dtype
    assert g0.tolist() == poly_from_roots(gf, code.nodes)
