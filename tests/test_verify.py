import functools
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import REF_G, random_dims, random_graph
from graphcodes import construct, linalg, rs, verify
from graphcodes.construct import (CodeSpec, generic_subcode, rs_nullspace_construct,
                                  systematic_columns_ok, systematic_dmin, systematic_dsys)
from graphcodes.errors import DecodingError, GuardExceededError
from graphcodes.field import GF
from graphcodes.graph import ConstraintGraph, load_graph
from graphcodes.linalg import invert, matmul, rref, vec_mat
from graphcodes.rs import RSCode, default_defining_set, encode, generator_matrix
from graphcodes.verify import (min_distance_exhaustive, rank_over_field,
                               subcode_decode, subcode_encode,
                               systematic_fast_read, verification_report)


def brute_pairwise_distance(G, gf):
    """Distance as the minimum pairwise Hamming distance over all encodings."""
    s = len(G)
    words = set()
    for m in itertools.product(range(gf.q), repeat=s):
        w = [0] * len(G[0])
        for mi, row in zip(m, G):
            for j, v in enumerate(row):
                w[j] = gf.add(w[j], gf.mul(mi, v))
        words.add(tuple(w))
    return min(sum(a != b for a, b in zip(w1, w2))
               for w1, w2 in itertools.combinations(words, 2))


def scalar_solve(gf, T, u):
    """m with m . T = u, one field element at a time, through the inverse of
    T's pivot columns: the reference for subcode_decode's solve.  Raises
    DecodingError where subcode_decode must."""
    s = len(T)
    _, pivots = rref(gf, T)
    if len(pivots) < s:
        raise DecodingError(
            "transform matrix has rank %d < s=%d; decoding is ambiguous" % (len(pivots), s))
    b_inv = invert(gf, [[T[i][c] for c in pivots] for i in range(s)])
    m = vec_mat(gf, [u[c] for c in pivots], b_inv)
    if vec_mat(gf, m, T) != list(u):
        raise DecodingError(
            "decoded word lies outside the code (likely corruption beyond radius)")
    return m


def scalar_subcode_decode(spec, received, erasures=()):
    return scalar_solve(spec.gf, spec.T, rs.decode(spec.rs, received, erasures)[0])


def scalar_distance_oracle(G, gf):
    """(distance, witness, histogram) by encoding every message one at a time."""
    hist = Counter()
    best_w = best_msg = None
    for msg in itertools.product(range(gf.q), repeat=len(G)):
        if not any(msg):
            continue
        w = sum(1 for v in vec_mat(gf, msg, G) if v)
        hist[w] += 1
        if w and (best_w is None or w < best_w):
            best_w, best_msg = w, msg
    return best_w, best_msg, dict(sorted(hist.items()))


def test_reference_generator_distance(gf7):
    rep = min_distance_exhaustive([list(r) for r in REF_G], gf7)
    assert rep.distance == 4
    assert rep.witness_message == (0, 1, 0)  # first weight-4 message in lex order
    assert rep.method == "exhaustive"


def test_rs_generator_distance(gf7):
    gen = generator_matrix(RSCode(gf7, default_defining_set(gf7, 7), 4))
    assert min_distance_exhaustive(gen, gf7).distance == 4


def test_identity_padded_distance():
    gf = GF(5)
    G = [[1, 0, 0, 0], [0, 1, 0, 0]]
    assert min_distance_exhaustive(G, gf).distance == 1


def test_distance_matches_pairwise_oracle():
    rng = random.Random(111)
    for q, s, n in [(5, 2, 4), (7, 2, 5), (3, 3, 5)]:
        gf = GF(q)
        for _ in range(10):
            G = [[rng.randrange(q) for _ in range(n)] for _ in range(s)]
            if all(v == 0 for row in G for v in row):
                continue
            assert (min_distance_exhaustive(G, gf).distance
                    == brute_pairwise_distance(G, gf))


def test_distance_extension_field_path_matches_oracle():
    rng = random.Random(222)
    gf = GF(2, 2)
    for _ in range(10):
        G = [[rng.randrange(4) for _ in range(5)] for _ in range(2)]
        if all(v == 0 for row in G for v in row):
            continue
        assert (min_distance_exhaustive(G, gf).distance
                == brute_pairwise_distance(G, gf))
    # the block oracle against the scalar loop, on extension fields and one
    # prime field; the last case (4^9 messages) spans several blocks
    cases = [(GF(2, 2), 3, 5), (GF(2, 3), 3, 6), (GF(2, 4), 2, 7), (GF(11), 3, 5)]
    for gf, s, n in cases:
        for trial in range(4):
            G = [[rng.randrange(gf.q) for _ in range(n)] for _ in range(s)]
            if trial == 0:
                G[-1] = [gf.mul(3, v) for v in G[0]]  # rank-deficient
            if all(v == 0 for row in G for v in row):
                continue
            rep = min_distance_exhaustive(G, gf, with_histogram=True)
            assert ((rep.distance, rep.witness_message, rep.weight_histogram)
                    == scalar_distance_oracle(G, gf))
    gf = GF(2, 2)
    G = [[rng.randrange(4) for _ in range(2)] for _ in range(9)]
    G[8] = list(G[0])
    rep = min_distance_exhaustive(G, gf, with_histogram=True)
    assert ((rep.distance, rep.witness_message, rep.weight_histogram)
            == scalar_distance_oracle(G, gf))


# (p, m, largest s) for the oracle comparisons: q^s stays within 4096
ORACLE_FIELDS = [(2, 1, 8), (7, 1, 4), (11, 1, 3), (2, 2, 5), (2, 3, 4), (2, 4, 3)]


def assert_oracle_agrees(G, gf, blocks):
    """Same distance, witness and histogram as the scalar loop, whatever the
    block size; BLOCK = 1 makes every block a single message."""
    expected = scalar_distance_oracle(G, gf)
    for block in blocks:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "BLOCK", block)
            rep = min_distance_exhaustive(G, gf, with_histogram=True)
        assert (rep.distance, rep.witness_message, rep.weight_histogram) == expected


@pytest.mark.parametrize("p, m, s_max", ORACLE_FIELDS)
def test_distance_matches_scalar_oracle_in_any_block_size(p, m, s_max):
    gf = GF(p, m)
    rng = random.Random(1000 * p + m)
    for s in (1, 2, s_max):
        n = rng.randint(s, s + 3)
        G = [[rng.randrange(gf.q) for _ in range(n)] for _ in range(s)]
        for i in range(s):
            G[i][i] = 1  # no row is zero
        cases = [G]
        if s > 1:
            a = rng.randrange(1, gf.q)
            cases.append(G[:-1] + [[gf.mul(a, v) for v in G[0]]])  # rank-deficient
            cases.append([[0] * n] + G[1:])  # all-zero leading row
        for case in cases:
            assert_oracle_agrees(case, gf, (1, 16, verify.BLOCK))


@st.composite
def generators(draw):
    p, m, s_max = draw(st.sampled_from(ORACLE_FIELDS))
    gf = GF(p, m)
    s = draw(st.integers(1, s_max))
    n = draw(st.integers(1, 7))
    G = draw(st.lists(st.lists(st.integers(0, gf.q - 1), min_size=n, max_size=n),
                      min_size=s, max_size=s))
    if s > 1 and draw(st.booleans()):
        a = draw(st.integers(1, gf.q - 1))
        i, j = draw(st.integers(0, s - 1)), draw(st.integers(0, s - 1))
        G[j] = [gf.mul(a, v) for v in G[i]]  # a repeated row, up to scale
    return G, gf


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(generators(), st.sampled_from((1, 2, 16, verify.BLOCK)))
def test_distance_matches_scalar_oracle_property(case, block):
    G, gf = case
    if not any(v for row in G for v in row):
        with pytest.raises(ValueError):
            min_distance_exhaustive(G, gf)
    else:
        assert_oracle_agrees(G, gf, (block,))


@pytest.mark.parametrize("p, m, s", [(11, 1, 4), (2, 3, 5), (2, 1, 1)])
def test_distance_guard_counts_every_message(p, m, s):
    # the oracle encodes (q^s - 1)/(q - 1) messages, but the guard is on q^s
    gf = GF(p, m)
    G = [[1] * 3 for _ in range(s)]
    assert min_distance_exhaustive(G, gf, guard=gf.q ** s).distance == 3
    with pytest.raises(GuardExceededError):
        min_distance_exhaustive(G, gf, guard=gf.q ** s - 1)


def test_distance_skips_zero_codewords_of_deficient_generators():
    gf = GF(5)
    G = [[1, 2, 0], [2, 4, 0]]  # row 2 = 2 * row 1
    rep = min_distance_exhaustive(G, gf)
    assert rep.distance == 2  # never 0, despite nonzero messages encoding to zero
    with pytest.raises(ValueError):
        min_distance_exhaustive([[0, 0], [0, 0]], gf)


@pytest.mark.parametrize("p, m, G", [
    (7, 1, [[1, 9, 0], [0, 1, 2]]),      # 9 used to be read as 9 mod 7
    (2, 4, [[1, 16, 0], [0, 1, 2]]),     # 16 used to index past the log table
    (7, 1, [[1, -1, 0], [0, 1, 2]]),
    (7, 1, [[1, 2, 3], [0, 1]]),         # ragged
    (7, 1, []),
    (7, 1, [[]]),
])
def test_distance_rejects_malformed_generators(p, m, G):
    with pytest.raises(ValueError):
        min_distance_exhaustive(G, GF(p, m))


def test_distance_guard():
    gf = GF(11)
    G = [[1] * 4 for _ in range(5)]
    with pytest.raises(GuardExceededError):
        min_distance_exhaustive(G, gf, guard=1000)


def test_distance_histogram(gf7):
    rep = min_distance_exhaustive([list(r) for r in REF_G], gf7,
                                  with_histogram=True)
    hist = rep.weight_histogram
    assert sum(hist.values()) == 7 ** 3 - 1
    assert min(hist) == rep.distance == 4


def test_rank_over_field(gf7):
    assert rank_over_field([list(r) for r in REF_G], gf7) == 3
    assert rank_over_field([[1] * 5, [1] * 5], gf7) == 1


def test_rank_g_equals_rank_t_on_random_specs():
    rng = random.Random(333)
    for _ in range(30):
        g = random_graph(rng, *random_dims(rng, 4, 7), density=0.6)
        gf = GF(7) if g.n <= 7 else GF(11)
        spec = generic_subcode(g, gf)
        assert rank_over_field(spec.G, gf) == rank_over_field(spec.T, gf)


def test_subcode_encode(ref_graph, gf7):
    spec = systematic_dsys(ref_graph, gf7)
    for i in range(3):
        m = [1 if r == i else 0 for r in range(3)]
        assert subcode_encode(spec, m) == list(spec.G[i])
    assert subcode_encode(spec, [1, 1, 1]) == [1, 1, 1, 0, 4, 0, 0]
    assert subcode_encode(spec, [0, 0, 0]) == [0] * 7
    with pytest.raises(ValueError):
        subcode_encode(spec, [1, 2])


def _swap(seq, bad, bound):
    """A list copy of seq with entry 1 replaced by bad(entry, bound)."""
    out = list(seq)
    out[1] = bad(out[1], bound)
    return out


def _swap_row(mat, bad, bound):
    return [_swap(r, bad, bound) if i == 1 else list(r) for i, r in enumerate(mat)]


def _load_with(spec, key, bad):
    d = spec.to_dict()
    if key == "k":
        d["k"] = bad(d["k"], spec.n + 1)
    elif key == "defining_set":
        d[key] = _swap(d[key], bad, spec.gf.q)
    else:
        d[key] = _swap_row(d[key], bad, spec.gf.q)
    return CodeSpec.from_dict(d)


# Every public entry point that takes field symbols (or positions, checked
# against n, or k, against n + 1), called with one entry changed by bad.
SYMBOL_ENTRY_POINTS = {
    "RSCode nodes": lambda spec, g, bad: RSCode(
        spec.gf, tuple(_swap(spec.rs.nodes, bad, spec.gf.q)), spec.rs.k),
    "RSCode k": lambda spec, g, bad: RSCode(spec.gf, spec.rs.nodes, bad(spec.rs.k, spec.n + 1)),
    "rs.evaluate": lambda spec, g, bad: rs.evaluate(spec.rs, _swap_row(spec.T, bad, spec.gf.q)),
    "rs.encode": lambda spec, g, bad: encode(spec.rs, _swap(spec.T[0], bad, spec.gf.q)),
    "rs.decode word": lambda spec, g, bad: rs.decode(spec.rs, _swap(spec.G[0], bad, spec.gf.q)),
    "rs.decode erasures": lambda spec, g, bad: rs.decode(
        spec.rs, spec.G[0], _swap([0, 2], bad, spec.n)),
    "CodeSpec.from_dict T": lambda spec, g, bad: _load_with(spec, "T", bad),
    "CodeSpec.from_dict G": lambda spec, g, bad: _load_with(spec, "G", bad),
    "CodeSpec.from_dict defining_set": lambda spec, g, bad: _load_with(spec, "defining_set", bad),
    "CodeSpec.from_dict k": lambda spec, g, bad: _load_with(spec, "k", bad),
    "subcode_encode": lambda spec, g, bad: subcode_encode(spec, _swap([1, 2, 3], bad, spec.gf.q)),
    "subcode_decode word": lambda spec, g, bad: subcode_decode(
        spec, _swap(spec.G[0], bad, spec.gf.q)),
    "subcode_decode erasures": lambda spec, g, bad: subcode_decode(
        spec, spec.G[0], _swap([0, 2], bad, spec.n)),
    "systematic_fast_read": lambda spec, g, bad: systematic_fast_read(
        spec, _swap(spec.G[0], bad, spec.gf.q)),
    "min_distance_exhaustive": lambda spec, g, bad: min_distance_exhaustive(
        _swap_row(spec.G, bad, spec.gf.q), spec.gf),
    "mds_nullspace_construct": lambda spec, g, bad: construct.mds_nullspace_construct(
        g, spec.gf, _swap_row(generator_matrix(spec.rs), bad, spec.gf.q)),
    "rank_over_field": lambda spec, g, bad: rank_over_field(
        _swap_row(spec.G, bad, spec.gf.q), spec.gf),
}

BAD_ENTRIES = {
    "bound": lambda v, bound: bound,
    "negative": lambda v, bound: -1,
    "float": lambda v, bound: float(v),
    "fraction": lambda v, bound: v + 0.5,
}


@pytest.mark.parametrize("bad", sorted(BAD_ENTRIES))
@pytest.mark.parametrize("entry", sorted(SYMBOL_ENTRY_POINTS))
def test_entry_points_refuse_entries_outside_the_field(ref_graph, entry, bad):
    # over GF(11) the symbol bound q = 11 differs from the position bound n = 7;
    # an integral float used to pass as its integer, and a negative generator
    # entry or a rank_over_field entry of q used to be accepted
    spec = systematic_dsys(ref_graph, GF(11))
    with pytest.raises(ValueError, match="must lie in"):
        SYMBOL_ENTRY_POINTS[entry](spec, ref_graph, BAD_ENTRIES[bad])


@pytest.mark.parametrize("message", [[7, 0, 0], [-1, 0, 0]])
def test_subcode_encode_rejects_out_of_range_symbols(ref_graph, gf7, message):
    # 7 used to raise IndexError; -1 was read from the end of the log table
    spec = systematic_dsys(ref_graph, gf7)
    with pytest.raises(ValueError):
        subcode_encode(spec, message)


@pytest.mark.parametrize("m, first", [(1, 9), (1, -5), (4, -1)])
def test_subcode_decode_rejects_out_of_range_symbols(ref_graph, m, first):
    # over GF(7), 9 used to raise IndexError and -5 decoded to [2, 5, 1];
    # over GF(16), -1 was read from the end of the log table
    gf = GF(7) if m == 1 else GF(2, m)
    spec = systematic_dsys(ref_graph, gf)
    received = subcode_encode(spec, [2, 5, 1])
    received[0] = first
    with pytest.raises(ValueError, match="received symbols must lie in"):
        subcode_decode(spec, received)


def test_subcode_decode_roundtrip(ref_graph, gf7):
    spec = systematic_dsys(ref_graph, gf7)
    rng = random.Random(444)
    for _ in range(40):
        m = [rng.randrange(7) for _ in range(3)]
        cw = subcode_encode(spec, m)
        assert subcode_decode(spec, cw) == m
        # any single error is corrected (t = 1 for the [7, 4] layer)
        j = rng.randrange(7)
        bad = list(cw)
        bad[j] = gf7.add(bad[j], rng.randrange(1, 7))
        assert subcode_decode(spec, bad) == m
        # any 3 erasures recover
        erased = rng.sample(range(7), 3)
        received = [0 if j in erased else cw[j] for j in range(7)]
        assert subcode_decode(spec, received, erasures=erased) == m


def test_subcode_decode_rejects_foreign_codewords(ref_graph, gf7):
    spec = systematic_dsys(ref_graph, gf7)
    # an RS codeword outside the transform row space: T has rank 3 < k = 4
    rs_msgs = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    foreign = None
    from graphcodes.linalg import rank as _rank
    for extra in rs_msgs:
        if _rank(gf7, spec.T + [extra]) == 4:
            foreign = encode(spec.rs, extra)
            break
    assert foreign is not None
    with pytest.raises(DecodingError):
        subcode_decode(spec, foreign)


def test_subcode_decode_rank_deficient_generic():
    g = load_graph([[1, 1, 1, 1], [1, 1, 1, 1]])
    gf = GF(5)
    spec = generic_subcode(g, gf, k=2)  # both rows identical
    with pytest.raises(DecodingError):
        subcode_decode(spec, [1, 1, 1, 1])


def test_systematic_fast_read(ref_graph, gf7):
    spec = systematic_dsys(ref_graph, gf7)
    m = [6, 2, 3]
    cw = subcode_encode(spec, m)
    assert systematic_fast_read(spec, cw) == (m, True)
    parity_bad = list(cw)
    parity_bad[5] = gf7.add(parity_bad[5], 2)  # unmatched position
    got, clean = systematic_fast_read(spec, parity_bad)
    assert got == m and not clean
    sys_bad = list(cw)
    sys_bad[1] = gf7.add(sys_bad[1], 3)  # matched position for row 1
    got, clean = systematic_fast_read(spec, sys_bad)
    assert got != m and not clean  # flag forces the caller to fall back
    assert subcode_decode(spec, sys_bad) == m


def test_fast_read_requires_systematic(ref_graph, gf7):
    spec = generic_subcode(ref_graph, gf7, k=4)
    with pytest.raises(ValueError):
        systematic_fast_read(spec, [0] * 7)


def test_verification_report(ref_graph, gf7):
    spec = systematic_dsys(ref_graph, gf7)
    rep = verification_report(spec, ref_graph)
    assert rep == {
        "distance": 4,
        "witness_message": [0, 1, 0],
        "rank_G": 3,
        "rank_T": 3,
        "valid_pattern": True,
        "systematic": True,
    }


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("position", [1, 5])  # matched, unmatched
@pytest.mark.parametrize("bad", ["-1", "q"])
def test_fast_read_rejects_out_of_range_symbols(ref_graph, m, position, bad):
    # an out-of-range symbol at an unmatched position used to give a
    # (message, False) answer, and -1 would index a log table from its end
    gf = GF(7) if m == 1 else GF(2, m)
    spec = systematic_dsys(ref_graph, gf)
    assert (position in spec.matching) == (position == 1)
    received = subcode_encode(spec, [1, 2, 3])
    received[position] = -1 if bad == "-1" else gf.q
    with pytest.raises(ValueError, match="received symbols must lie in"):
        systematic_fast_read(spec, received)


def outcome(decoder, spec, received, erasures=()):
    """The decoded message, or the DecodingError's text."""
    try:
        return decoder(spec, received, erasures)
    except DecodingError as exc:
        return str(exc)


def loaded_mixed_spec(spec):
    """``spec`` written and loaded with T and G replaced by A . T and A . G, A
    invertible but not a permutation: G = T . G_RS still holds, but the
    matched columns of G are no longer unit columns."""
    gf, s = spec.gf, spec.s
    A = [[1 if i == j else 0 for j in range(s)] for i in range(s)]
    A[0][0], A[0][1] = 2, 1
    d = spec.to_dict()
    d["T"], d["G"] = matmul(gf, A, spec.T), matmul(gf, A, spec.G)
    return CodeSpec.from_dict(d)


def duplicate_first_row(g):
    rows = [list(r) for r in g.adjacency]
    rows[1] = list(rows[0])
    return ConstraintGraph.from_rows(rows)


SOLVE_BUILDERS = {
    "generic": generic_subcode,
    "generic-deficient": lambda g, gf: generic_subcode(duplicate_first_row(g), gf),
    "systematic-dmin": systematic_dmin,
    "systematic-dsys": systematic_dsys,
    "mds-nullspace": rs_nullspace_construct,
    "loaded": lambda g, gf: loaded_mixed_spec(systematic_dsys(g, gf)),
}
SOLVE_FIELDS = [(7, 1), (31, 1), (2, 4), (2, 8)]


@functools.cache
def solve_spec(p, m, mode, index):
    """The index-th spec of ``mode`` over GF(p^m) that builds, on seeded
    random graphs with 2 <= s <= 4 and n <= 12."""
    gf = GF(p, m)
    rng = random.Random("%d/%d/%s" % (p, m, mode))
    built = []
    for _ in range(500):
        g = random_graph(rng, *random_dims(rng, 4, min(gf.q, 12), s_min=2), density=0.7)
        try:
            built.append(SOLVE_BUILDERS[mode](g, gf))
        except ValueError:  # infeasible for this graph, or no valid dimension
            continue
        if len(built) > index:
            return built[index]
    raise AssertionError("no %s spec over GF(%d^%d) in 500 graphs" % (mode, p, m))


@pytest.mark.parametrize("p, m", SOLVE_FIELDS)
def test_solve_spec_modes_take_both_routes(p, m):
    for index in range(3):
        deficient = solve_spec(p, m, "generic-deficient", index)
        assert linalg.rank(deficient.gf, deficient.T) < deficient.s
        loaded = solve_spec(p, m, "loaded", index)
        assert not systematic_columns_ok(loaded.G, loaded.matching)
        for mode in ("systematic-dmin", "systematic-dsys", "mds-nullspace"):
            spec = solve_spec(p, m, mode, index)
            assert systematic_columns_ok(spec.G, spec.matching)


@st.composite
def delivered_subcode_words(draw):
    """(spec, message, received, erasures): a codeword delivered clean, with
    at most t errors, with erasures, with t + 1 errors, or a random word."""
    p, m = draw(st.sampled_from(SOLVE_FIELDS))
    spec = solve_spec(p, m, draw(st.sampled_from(sorted(SOLVE_BUILDERS))),
                      draw(st.integers(0, 2)))
    gf, n, k = spec.gf, spec.n, spec.k
    symbols = st.integers(0, gf.q - 1)
    message = draw(st.lists(symbols, min_size=spec.s, max_size=spec.s))
    received = vec_mat(gf, message, spec.G)
    erasures = ()
    t = (n - k) // 2
    delivery = draw(st.sampled_from(("clean", "errors", "erasures", "beyond", "random")))
    if delivery == "random":
        received = draw(st.lists(symbols, min_size=n, max_size=n))
    elif delivery == "erasures":
        erasures = tuple(sorted(draw(st.sets(st.integers(0, n - 1), max_size=n - k))))
        for j in erasures:
            received[j] = 0
    elif delivery != "clean":
        count = draw(st.integers(min(1, t), t)) if delivery == "errors" else t + 1
        for j in draw(st.lists(st.integers(0, n - 1), min_size=count, max_size=count,
                               unique=True)):
            received[j] = gf.add(received[j], draw(st.integers(1, gf.q - 1)))
    return spec, message, received, erasures


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(delivered_subcode_words())
def test_array_paths_match_scalar_reference(case):
    spec, message, received, erasures = case
    gf = spec.gf
    assert subcode_encode(spec, message) == vec_mat(gf, message, spec.G)
    if spec.matching is not None:
        read = [received[j] for j in spec.matching]
        assert systematic_fast_read(spec, received) == (
            read, vec_mat(gf, read, spec.G) == received)
    assert (outcome(subcode_decode, spec, received, erasures)
            == outcome(scalar_subcode_decode, spec, received, erasures))


def refuse_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("elimination ran")

    for module in (construct, linalg):
        monkeypatch.setattr(module, "rref", refuse)
        monkeypatch.setattr(module, "invert", refuse)


@pytest.mark.parametrize("p, m", SOLVE_FIELDS)
def test_systematic_spec_decodes_without_elimination(monkeypatch, p, m):
    specs = [CodeSpec.from_dict(solve_spec(p, m, mode, 0).to_dict())
             for mode in ("systematic-dmin", "systematic-dsys", "mds-nullspace")]
    refuse_elimination(monkeypatch)
    rng = random.Random(p * m)
    for spec in specs:
        message = [rng.randrange(spec.gf.q) for _ in range(spec.s)]
        received = subcode_encode(spec, message)
        if spec.n - spec.k >= 2:  # one error is within the radius
            received[0] = spec.gf.add(received[0], 1)
        assert subcode_decode(spec, received) == message


def test_unit_columns_decide_the_route(monkeypatch):
    spec = CodeSpec.from_dict(solve_spec(31, 1, "loaded", 0).to_dict())  # no tables yet
    message = list(range(1, spec.s + 1))
    received = subcode_encode(spec, message)
    refuse_elimination(monkeypatch)
    with pytest.raises(AssertionError, match="elimination ran"):
        subcode_decode(spec, received)
    monkeypatch.undo()
    assert subcode_decode(spec, received) == message


def test_spec_tables_are_built_once_and_decode_tables_only_on_decode(ref_graph, gf7):
    spec = systematic_dsys(ref_graph, gf7)
    codeword = subcode_encode(spec, [2, 5, 1])
    tables = spec._tables
    assert systematic_fast_read(spec, codeword) == ([2, 5, 1], True)
    assert spec._tables is tables
    assert "log_G" in vars(tables) and "log_R" not in vars(tables)
    assert subcode_decode(spec, codeword) == [2, 5, 1]
    assert "log_R" in vars(tables) and spec._tables is tables
    assert "_tables" not in spec.to_dict() and "_tables" not in repr(spec)
