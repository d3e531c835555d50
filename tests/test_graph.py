import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import REF_MATCHED, REF_ROWS, random_dims, random_graph
from graphcodes.bounds import fully_connected_columns
from graphcodes.construct import mds_nullspace_construct
from graphcodes.errors import GuardExceededError, NoMatchingError
from graphcodes.field import GF
from graphcodes.graph import (ConstraintGraph, bits_mask, check_matching, find_matching,
                              hall_check, load_graph, matched_adjacency,
                              neighborhood_size, row_zero_stats)
from graphcodes.rs import RSCode, default_defining_set, generator_matrix
from scalar_graph import (scalar_column_masks, scalar_fully_connected_columns, scalar_rows,
                          scalar_support)


def brute_has_matching(rows):
    """Row-covering matching existence by trying all column assignments."""
    s, n = len(rows), len(rows[0])

    def rec(i, used):
        if i == s:
            return True
        return any(rows[i][c] and c not in used and rec(i + 1, used | {c})
                   for c in range(n))

    return rec(0, frozenset())


def test_load_and_validation():
    g = load_graph(REF_ROWS)
    assert (g.s, g.n) == (3, 7)
    assert load_graph([[1]]).s == 1
    with pytest.raises(ValueError):
        load_graph([[1, 0], [1]])  # ragged
    with pytest.raises(ValueError):
        load_graph([[1, 0, 0], [0, 1, 0]])  # zero column
    with pytest.raises(ValueError):
        load_graph([[1, 1], [0, 0]])  # zero row
    with pytest.raises(ValueError):
        load_graph([[1], [1]])  # s > n
    with pytest.raises(ValueError):
        load_graph([[1, 2]])  # non-binary


@pytest.mark.parametrize("bad", [0.6, 0.2, 1.0, 0.0, "1", "0", True, False, None,
                                 np.True_, np.float64(1.0)])
def test_entries_must_be_the_integers_0_and_1(bad):
    # int() used to read 0.6 as 0 and "1" or a JSON true as 1
    rows = [[1, 1, 1], [1, 1, 1]]
    rows[1][2] = bad
    with pytest.raises(ValueError, match="must be 0 or 1"):
        ConstraintGraph.from_rows(rows)
    with pytest.raises(ValueError, match="must be 0 or 1"):
        ConstraintGraph.from_dict({"adjacency": rows})
    with pytest.raises(ValueError, match="must be 0 or 1"):
        ConstraintGraph(tuple(tuple(r) for r in rows))


def test_numpy_integer_entries_are_read_as_ints(ref_graph):
    for rows in (np.array(REF_ROWS), np.array(REF_ROWS, dtype=np.uint8),
                 [[np.int64(v) for v in r] for r in REF_ROWS], [list(r) for r in REF_ROWS]):
        g = ConstraintGraph.from_rows(rows)
        assert g == ref_graph and hash(g) == hash(ref_graph)
        assert all(type(v) is int for r in g.adjacency for v in r)
        assert g.to_dict() == ref_graph.to_dict()


def test_dict_roundtrip_and_mismatch(ref_graph):
    d = ref_graph.to_dict()
    assert ConstraintGraph.from_dict(d) == ref_graph
    d["s"] = 4
    with pytest.raises(ValueError):
        ConstraintGraph.from_dict(d)
    # a declared size must be an integer too: 3.0 == 3 and true == 1 in Python
    for key, bad in (("s", 3.0), ("n", "7")):
        with pytest.raises(ValueError, match="declared %s" % key):
            ConstraintGraph.from_dict(dict(ref_graph.to_dict(), **{key: bad}))
    with pytest.raises(ValueError, match="declared n"):
        ConstraintGraph.from_dict({"s": 1, "n": True, "adjacency": [[1]]})


def test_neighborhood_size(ref_graph):
    assert neighborhood_size(ref_graph, {0}) == 5
    assert neighborhood_size(ref_graph, {0, 2}) == 6
    assert neighborhood_size(ref_graph, range(ref_graph.s)) == ref_graph.n
    assert neighborhood_size(ref_graph, ()) == 0
    with pytest.raises(IndexError):
        neighborhood_size(ref_graph, {3})


def test_neighborhood_monotone_submodular():
    rng = random.Random(101)
    for _ in range(20):
        g = random_graph(rng, *random_dims(rng, 5, 7, s_min=2))
        rows = list(range(g.s))
        for size_a in range(g.s + 1):
            for a_set in itertools.combinations(rows, size_a):
                left = set(a_set)
                for extra in itertools.combinations(set(rows) - left, 1):
                    bigger = left | set(extra)
                    assert neighborhood_size(g, bigger) >= neighborhood_size(g, left)
                    # submodularity: marginal gain shrinks on supersets
                    for x in set(rows) - bigger:
                        gain_small = (neighborhood_size(g, left | {x})
                                      - neighborhood_size(g, left))
                        gain_big = (neighborhood_size(g, bigger | {x})
                                    - neighborhood_size(g, bigger))
                        assert gain_small >= gain_big


def test_hall_check(ref_graph):
    ok, witness = hall_check(ref_graph)
    assert ok and witness is None
    # rows 0 and 1 both live on column 0 alone
    crowded = load_graph([[1, 0, 0], [1, 0, 0], [0, 1, 1]])
    ok, witness = hall_check(crowded)
    assert not ok
    assert witness == (0, 1)
    wide = load_graph([[1] * 4 for _ in range(3)])
    assert hall_check(wide) == (True, None)


def test_hall_guard():
    # a matching answers at any s: only the subset walk, which runs when
    # there is none, is limited
    assert hall_check(load_graph([[1] * 25 for _ in range(25)])) == (True, None)
    # rows 0 and 1 share column 0 alone
    crowded = load_graph([[1] + [0] * 24] * 2
                         + [[int(j in (1, i)) for j in range(25)] for i in range(2, 25)])
    with pytest.raises(GuardExceededError):
        hall_check(crowded)
    with pytest.raises(GuardExceededError):
        hall_check(crowded, max_exact_s=2)  # a lower limit keeps the default
    assert hall_check(crowded, max_exact_s=25) == (False, (0, 1))


def test_find_matching_reference(ref_graph):
    assert find_matching(ref_graph) == (0, 1, 2)


def test_find_matching_identity():
    rows = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert find_matching(load_graph(rows)) == (0, 1, 2, 3)


def test_find_matching_failure_carries_witness():
    g = load_graph([[1, 0, 0], [1, 0, 0], [0, 1, 1]])
    with pytest.raises(NoMatchingError) as exc:
        find_matching(g)
    witness = exc.value.witness
    assert witness is not None
    assert len(witness) > neighborhood_size(g, witness)


def test_hall_iff_matching_exhaustive_small():
    # every 0/1 matrix without empty rows/columns, tiny sizes
    for s, n in [(2, 2), (2, 3), (3, 3)]:
        for bits in itertools.product([0, 1], repeat=s * n):
            rows = [list(bits[i * n:(i + 1) * n]) for i in range(s)]
            if any(not any(r) for r in rows):
                continue
            if any(all(r[j] == 0 for r in rows) for j in range(n)):
                continue
            g = load_graph(rows)
            expect = brute_has_matching(rows)
            assert hall_check(g)[0] == expect
            if expect:
                m = find_matching(g)
                assert len(set(m)) == s
                assert all(rows[i][c] for i, c in enumerate(m))
            else:
                with pytest.raises(NoMatchingError):
                    find_matching(g)


def test_hall_iff_matching_random():
    rng = random.Random(202)
    for _ in range(300):
        g = random_graph(rng, *random_dims(rng, 4, 6),
                         density=rng.choice([0.2, 0.35, 0.6]))
        expect = brute_has_matching([list(r) for r in g.adjacency])
        assert hall_check(g)[0] == expect


def test_hall_witness_is_lex_smallest_violator():
    rng = random.Random(212)
    found = 0
    while found < 30:
        g = random_graph(rng, *random_dims(rng, 9, 10), density=0.25)
        ok, witness = hall_check(g)
        if ok:
            continue
        found += 1
        violators = []
        for size in range(1, g.s + 1):
            for subset in itertools.combinations(range(g.s), size):
                if neighborhood_size(g, subset) < size:
                    violators.append(subset)
        assert witness == min(violators)


def test_matched_adjacency_reference(ref_graph):
    assert matched_adjacency(ref_graph, (0, 1, 2)) == REF_MATCHED


def test_matched_adjacency_identity_unchanged():
    rows = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    g = load_graph(rows)
    assert matched_adjacency(g, (0, 1, 2)) == g.adjacency


def test_matched_adjacency_complete():
    g = load_graph([[1, 1, 1], [1, 1, 1]])
    assert matched_adjacency(g, (0, 1)) == ((1, 0, 1), (0, 1, 1))


def test_matched_adjacency_validation(ref_graph):
    with pytest.raises(ValueError):
        matched_adjacency(ref_graph, (0, 1))  # wrong length
    with pytest.raises(ValueError):
        matched_adjacency(ref_graph, (0, 0, 2))  # repeated column
    with pytest.raises(ValueError):
        matched_adjacency(ref_graph, (1, 0, 2))  # (0, 1) is not an edge


def test_matched_adjacency_touches_only_matched_columns():
    rng = random.Random(303)
    for _ in range(50):
        g = random_graph(rng, *random_dims(rng, 4, 7, s_min=2), density=0.7)
        try:
            match = find_matching(g)
        except NoMatchingError:
            continue
        rows = matched_adjacency(g, match)
        matched_cols = set(match)
        for i in range(g.s):
            for j in range(g.n):
                if j not in matched_cols:
                    assert rows[i][j] == g.adjacency[i][j]
                elif j == match[i]:
                    assert rows[i][j] == 1
                else:
                    assert rows[i][j] == 0


def test_row_zero_stats(ref_graph):
    assert row_zero_stats(ref_graph) == (2, [2, 1, 2])
    assert row_zero_stats(matched_adjacency(ref_graph, (0, 1, 2))) == (3, [2, 3, 2])
    assert row_zero_stats([[1, 1, 1], [1, 1, 1]]) == (0, [0, 0])


# Entries other than the Python ints 0 and 1: numpy integers pass, the rest
# are refused, a bool and a numpy bool included.
ENTRIES = (np.int64(0), np.int64(1), np.uint8(0), np.uint8(1), True, False, np.True_,
           np.False_, 0.0, 1.0, np.float64(1.0), "1", "0", None, 2, -1, [1])
CONTAINERS = {"list": list, "tuple": tuple, "iterator": iter}


@st.composite
def adjacency_recipes(draw):
    """(outer container, [(row container, entries)]): ragged, empty, zero-row,
    zero-column and s > n shapes included, most rows of the ints 0 and 1."""
    s = draw(st.integers(0, 4))
    n = max(0, s + draw(st.integers(-1, 3)))
    rows = []
    for _ in range(s):
        length = n if draw(st.integers(0, 9)) else draw(st.integers(0, 5))
        pool = (0, 1, 1) if draw(st.integers(0, 5)) else (0, 1, 1) * 3 + ENTRIES
        rows.append((draw(st.sampled_from(tuple(CONTAINERS))),
                     draw(st.lists(st.sampled_from(pool), min_size=length, max_size=length))))
    return draw(st.sampled_from(tuple(CONTAINERS))), rows


def _build(recipe):
    outer, rows = recipe
    return CONTAINERS[outer](CONTAINERS[kind](list(entries)) for kind, entries in rows)


def _outcome(read):
    try:
        return read()
    except Exception as exc:  # the type and message must match
        return type(exc), str(exc)


def _read_graph(adjacency):
    g = ConstraintGraph(adjacency)
    assert all(type(v) is int for r in g.adjacency for v in r)
    return (g.adjacency, tuple(map(g.row_mask, range(g.s))),
            tuple(map(g.support, range(g.s))), fully_connected_columns(g))


def _read_reference(adjacency):
    rows, masks = scalar_rows(adjacency)
    return (rows, masks, tuple(scalar_support(rows, i) for i in range(len(rows))),
            scalar_fully_connected_columns(rows))


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(adjacency_recipes())
def test_rows_read_whole_match_the_per_entry_reference(recipe):
    assert _outcome(lambda: _read_graph(_build(recipe))) == _outcome(
        lambda: _read_reference(_build(recipe)))


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint8, np.uint64, bool, np.float64])
def test_numpy_rows_read_as_the_per_entry_reference(dtype):
    # integer rows are read whole through tolist, the rest entry by entry;
    # a bad entry is named as the per-entry reference names it
    rows = [[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1]]
    bad = [[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 2]]
    for entries in (rows, bad, [[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, -1]]):
        arr = np.array(entries).astype(dtype)  # -1 wraps in an unsigned dtype
        for source in (arr, list(arr)):
            assert _outcome(lambda: _read_graph(source)) == _outcome(
                lambda: _read_reference(arr))


@pytest.mark.parametrize("key, s, n, density", [
    ("decode-stream/255/16", 16, 255, 0.75),  # the decode-stream benchmark's n = 255 graph
    ("graph-rows/200x400", 200, 400, 0.6),
])
def test_large_graphs_match_the_per_entry_reference(key, s, n, density):
    rows = [list(r) for r in random_graph(random.Random(key), s, n, density).adjacency]
    want = _read_reference(rows)
    for source in (rows, np.array(rows)):
        g = ConstraintGraph(source)
        assert _read_graph(source) == want
        assert list(map(bits_mask, zip(*g.adjacency))) == scalar_column_masks(want[0])


@pytest.mark.parametrize("adjacency, message", [
    ([[1, 1], 7], "row must be a list of entries, got 7"),
    ([[1, 1], None], "row must be a list of entries, got None"),
    (5, "must be a list of rows, got 5"),
    (None, "must be a list of rows, got None"),
    ([[1, 2], 7], "must be 0 or 1, got 2"),  # rows are read in order
])
def test_an_adjacency_that_is_not_a_list_of_rows_is_refused(adjacency, message):
    with pytest.raises(ValueError, match=message):
        ConstraintGraph(adjacency)
    with pytest.raises(ValueError, match=message):
        ConstraintGraph.from_dict({"adjacency": adjacency})


@pytest.mark.parametrize("matching", [(0, True, 2), (0.0, 1, 2), ("0", 1, 2)],
                         ids=["bool", "float", "string"])
def test_a_matching_column_must_be_an_integer(ref_graph, matching):
    gf = GF(7)
    gen = generator_matrix(RSCode(gf, default_defining_set(gf, 7), 4))
    with pytest.raises(ValueError, match=r"matched pair \(\d, .*\) is not an edge"):
        matched_adjacency(ref_graph, matching)
    with pytest.raises(ValueError, match=r"matched pair \(\d, .*\) is not an edge"):
        mds_nullspace_construct(ref_graph, gf, gen, matching=matching)


def test_numpy_integer_matching_columns_come_back_as_ints(ref_graph):
    gf = GF(7)
    gen = generator_matrix(RSCode(gf, default_defining_set(gf, 7), 4))
    matching = (np.int64(0), 1, 2)
    for got in (check_matching(ref_graph, matching),
                mds_nullspace_construct(ref_graph, gf, gen, matching=matching).matching):
        assert got == (0, 1, 2) and all(type(c) is int for c in got)
