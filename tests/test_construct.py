import functools
import json
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (ALL_MODES_ROWS, REF_G, REF_NODES, REF_ROWS, REF_T,
                      random_dims, random_graph)
from graphcodes import arrays, construct, linalg, polys, rs
from graphcodes.bounds import k_sys_search
from graphcodes.construct import (CodeSpec, generic_subcode,
                                  mds_nullspace_construct, rs_nullspace_construct,
                                  systematic_columns_ok, systematic_dmin,
                                  systematic_dsys, validity_check)
from graphcodes.errors import (InconsistentCodeError, InfeasibleError,
                               NoMatchingError)
from graphcodes.field import GF
from graphcodes.graph import ConstraintGraph, load_graph
from graphcodes.rs import (RSCode, default_defining_set, encode, evaluate,
                           generator_matrix)
from graphcodes.verify import min_distance_exhaustive
from scalar_linalg import matmul, rank


BUILDERS = {
    "generic": generic_subcode,
    "systematic-dmin": systematic_dmin,
    "systematic-dsys": systematic_dsys,
    "mds-nullspace": rs_nullspace_construct,
}


def scalar_generator(gf, nodes, k):
    """The RS generator one gf.pow at a time: row r holds x_j^r."""
    return [[gf.pow(x, r) for x in nodes] for r in range(k)]


def _zero_pattern(G):
    return [[v == 0 for v in row] for row in G]


def test_generic_subcode_reference(ref_graph, gf7):
    spec = generic_subcode(ref_graph, gf7, k=4)
    assert spec.mode == "generic"
    assert validity_check(ref_graph, spec.G)
    # row zeros exactly where the adjacency is zero: degree = zero count
    assert _zero_pattern(spec.G) == [[v == 0 for v in row] for row in REF_ROWS]
    assert rank(gf7, spec.G) == rank(gf7, spec.T)
    # G rows are the RS encodings of the T rows
    for trow, grow in zip(spec.T, spec.G):
        assert encode(spec.rs, trow) == grow
    assert spec.claimed_distance == 4 and not spec.distance_exact


def test_generic_default_k(ref_graph, gf7):
    spec = generic_subcode(ref_graph, gf7)
    assert spec.rs.k == 3  # n - d_min + 1
    assert spec.claimed_distance == 5


def test_generic_all_ones_rank_collapses():
    g = load_graph([[1, 1, 1, 1], [1, 1, 1, 1]])
    gf = GF(5)
    spec = generic_subcode(g, gf, k=2)
    assert spec.T == [[1, 0], [1, 0]]
    assert rank(gf, spec.G) == 1


def test_generic_k_too_small(ref_graph, gf7):
    with pytest.raises(ValueError):
        generic_subcode(ref_graph, gf7, k=2)  # rows carry up to 2 zeros


def test_field_too_small(ref_graph):
    with pytest.raises(ValueError):
        generic_subcode(ref_graph, GF(5), k=4)


def test_systematic_dsys_reference(ref_graph, gf7):
    spec = systematic_dsys(ref_graph, gf7)
    assert spec.rs.nodes == REF_NODES
    assert tuple(tuple(r) for r in spec.T) == REF_T
    assert tuple(tuple(r) for r in spec.G) == REF_G
    assert spec.matching == (0, 1, 2)
    assert spec.claimed_distance == 4 and spec.distance_exact
    assert systematic_columns_ok(spec.G, spec.matching)
    assert validity_check(ref_graph, spec.G)
    assert rank(gf7, spec.G) == 3
    assert min_distance_exhaustive(spec.G, gf7).value == 4


def test_systematic_dsys_identity_graph():
    g = load_graph([[1 if i == j else 0 for j in range(3)] for i in range(3)])
    gf = GF(3)
    spec = systematic_dsys(g, gf)
    assert spec.G == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert spec.claimed_distance == 1


def test_systematic_dsys_complete_2x4_gf5():
    g = load_graph([[1] * 4, [1] * 4])
    gf = GF(5)
    spec = systematic_dsys(g, gf)
    assert spec.rs.k == 2
    assert spec.claimed_distance == 3
    assert min_distance_exhaustive(spec.G, gf).value == 3


def test_systematic_dsys_extension_field():
    g = load_graph([[1, 1, 0, 1, 1, 1],
                    [1, 0, 1, 1, 1, 1],
                    [0, 1, 1, 1, 1, 1]])
    gf = GF(2, 3)
    spec = systematic_dsys(g, gf)
    assert validity_check(g, spec.G)
    assert systematic_columns_ok(spec.G, spec.matching)
    assert min_distance_exhaustive(spec.G, gf).value == spec.claimed_distance


def test_systematic_dsys_heuristic_fallback_above_guard():
    s = 13
    g = load_graph([[1] * (s + 1) for _ in range(s)])
    gf = GF(17)
    spec = systematic_dsys(g, gf)
    assert not spec.distance_exact
    assert spec.claimed_distance == (s + 1) - spec.rs.k + 1
    assert systematic_columns_ok(spec.G, spec.matching)


def test_systematic_dmin_complete_graph():
    g = load_graph([[1] * 7 for _ in range(3)])
    gf = GF(7)
    spec = systematic_dmin(g, gf)
    assert spec.rs.k == 3
    assert spec.claimed_distance == 5 and spec.distance_exact
    assert systematic_columns_ok(spec.G, spec.matching)
    assert validity_check(g, spec.G)
    assert min_distance_exhaustive(spec.G, gf).value == 5


def test_systematic_dmin_identity_plus_full_block():
    rows = [[1 if i == j else 0 for j in range(3)] + [1] * 4 for i in range(3)]
    g = load_graph(rows)
    gf = GF(7)
    spec = systematic_dmin(g, gf)
    assert spec.claimed_distance == 5  # every subset gives 5
    assert min_distance_exhaustive(spec.G, gf).value == 5
    assert systematic_columns_ok(spec.G, spec.matching)


def test_systematic_dmin_infeasible_reference(ref_graph, gf7):
    with pytest.raises(InfeasibleError):
        systematic_dmin(ref_graph, gf7)


def test_transform_degrees_bounded(ref_graph, gf7):
    for spec in (generic_subcode(ref_graph, gf7, k=4),
                 systematic_dsys(ref_graph, gf7),
                 systematic_dmin(load_graph([[1] * 7 for _ in range(3)]), gf7)):
        k = spec.rs.k
        for row in spec.T:
            assert len(row) == k


def _spec_parts(spec):
    return spec.T, spec.G, spec.matching, spec.claimed_distance, spec.distance_exact


def _nullspace_cases():
    """Seeded (graph, field, nodes) cases: GF(p) and GF(2^m), default and
    random node sets, and one s = 16, n = 63 graph over GF(2^6)."""
    rng = random.Random(1409)
    for case in range(24):
        gf = GF(*rng.choice(((7, 1), (11, 1), (13, 1), (2, 3), (2, 4))))
        s = rng.randint(2, 5)
        n = rng.randint(s + 2, min(gf.q, 10))
        g = random_graph(rng, s, n, rng.choice((0.5, 0.7, 0.9)))
        nodes = (default_defining_set(gf, n) if case % 2
                 else tuple(rng.sample(range(gf.q), n)))
        yield g, gf, nodes
    gf = GF(2, 6)
    yield random_graph(rng, 16, 63, 0.85), gf, tuple(rng.sample(range(gf.q), 63))


def test_mds_backend_matches_polynomial_route():
    # over an RS generator, the general-MDS left-nullspace loop builds the
    # polynomial route's code: the zero columns' first nullspace vector is
    # the monic vanishing polynomial, already nonzero off them
    built = 0
    for g, gf, nodes in _nullspace_cases():
        try:
            k_sys = k_sys_search(g).value
        except NoMatchingError:
            continue
        for k in range(k_sys, min(k_sys + 2, g.n) + 1):
            rs = RSCode(gf, nodes, k)
            gen = generator_matrix(rs)
            spec = mds_nullspace_construct(g, gf, gen)
            assert spec.rs is None and (k == k_sys or not spec.distance_exact)
            want = rs_nullspace_construct(g, gf, k=k, nodes=nodes)
            assert _spec_parts(spec) == _spec_parts(want) and want.rs.nodes == nodes
            spec = mds_nullspace_construct(g, gf, gen, systematic=False)
            want = construct._subcode(rs, g.adjacency, "mds-nullspace", None, g.n - k + 1,
                                      False)
            assert _spec_parts(spec) == _spec_parts(want) and spec.matching is None
            built += 1
    assert built >= 40


def test_mds_backend_unique_row_when_nullspace_is_one_dim(gf7):
    # a row with k-1 zeros pins the codeword up to scale
    g = load_graph([[1, 0, 0, 1, 1, 1, 1], [1, 1, 1, 0, 1, 1, 1],
                    [0, 0, 1, 1, 1, 1, 1]])
    base = systematic_dsys(g, gf7)
    gen = generator_matrix(RSCode(gf7, base.rs.nodes, base.rs.k))
    # the nullspace loop (no nodes): row 1 has k-1 = 3 zeros, so it must
    # equal the polynomial row exactly after the shared systematic scale
    spec = mds_nullspace_construct(g, gf7, gen, systematic=True, matching=base.matching)
    assert spec.G[1] == base.G[1]


def test_mds_backend_nonsystematic():
    g = load_graph([[1] * 5, [1, 1, 0, 1, 1]])
    gf = GF(5)
    nodes = default_defining_set(gf, 5)
    gen = generator_matrix(RSCode(gf, nodes, 3))
    spec = mds_nullspace_construct(g, gf, gen, systematic=False)
    assert spec.matching is None
    assert validity_check(g, spec.G)
    assert all(any(v for v in row) for row in spec.G)
    # the all-ones row has no forced zeros and should come out full weight
    assert all(v != 0 for v in spec.G[0])


def test_mds_backend_runs_no_scalar_field_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("scalar field arithmetic called")

    g = load_graph(REF_ROWS)
    cases = [(gf, generator_matrix(RSCode(gf, default_defining_set(gf, 7), 4)))
             for gf in (GF(7), GF(2, 3))]
    for name in ("add", "sub", "mul", "div", "inv", "neg", "pow"):
        monkeypatch.setattr(GF, name, refuse)
    for gf, gen in cases:
        for systematic in (True, False):
            spec = mds_nullspace_construct(g, gf, gen, systematic=systematic)
            assert validity_check(g, spec.G)


def test_mds_backend_bounds_its_product_of_the_nullspace_basis():
    # each row's nullspace basis, 50 to 71 vectors, times the 128 x 255
    # generator: that product gathered whole peaked at 32.5 MiB, where
    # vec_mat_logs gathers it a block of the generator's rows at a time
    gf = GF(2, 8)
    g = random_graph(random.Random(255), 8, 255, 0.75)
    gen = generator_matrix(RSCode(gf, default_defining_set(gf, 255), 128))
    tracemalloc.start()
    try:
        spec = mds_nullspace_construct(g, gf, gen, systematic=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert validity_check(g, spec.G)
    assert peak < 8 << 20, peak


def test_mds_backend_rejects_overloaded_rows():
    g = load_graph([[1, 0, 0, 1], [1, 1, 1, 1]])
    gf = GF(5)
    nodes = default_defining_set(gf, 4)
    gen = generator_matrix(RSCode(gf, nodes, 2))
    with pytest.raises(InfeasibleError):
        mds_nullspace_construct(g, gf, gen, systematic=False)


def test_mds_backend_detects_non_mds():
    g = load_graph([[1, 1, 0, 1], [1, 1, 1, 0]])
    gf = GF(5)
    bad_gen = [[1, 0, 0, 0], [0, 1, 0, 0]]  # column (0,0) kills the dimension count
    with pytest.raises(ValueError):
        mds_nullspace_construct(g, gf, bad_gen, systematic=False)


@st.composite
def covered_graphs(draw):
    """(graph, field): up to 4 x 9 graphs with a covering matching and no
    empty column, over a field that holds n nodes."""
    gf = GF(*draw(st.sampled_from(((5, 1), (7, 1), (2, 3), (11, 1)))))
    n = draw(st.integers(1, min(gf.q, 9)))
    s = draw(st.integers(1, min(n, 4)))
    rows = [draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) for _ in range(s)]
    for i, c in enumerate(draw(st.permutations(range(n)))):
        rows[i % s][c] = 1  # the first s columns match rows 0..s-1; no column is empty
    return load_graph(rows), gf


def _refuses(build, *args, **kwargs) -> bool:
    try:
        build(*args, **kwargs)
    except InfeasibleError:
        return True
    return False


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(covered_graphs())
def test_a_dimension_is_refused_exactly_when_the_rows_zeros_do_not_fit(case):
    # a row of T has degree below k, so k fits exactly when every row it
    # builds has fewer than k zeros: the raw rows for generic, the matched
    # rows (k_sys - 1 zeros at most) for the systematic modes
    g, gf = case
    max_zeros = max(row.count(0) for row in g.adjacency)
    bound = k_sys_search(g)
    assert bound.exact
    k_sys = bound.value
    nodes = default_defining_set(gf, g.n)
    for k in range(1, g.n + 1):
        gen = generator_matrix(RSCode(gf, nodes, k))
        assert _refuses(generic_subcode, g, gf, k=k) == (k <= max_zeros)
        assert _refuses(rs_nullspace_construct, g, gf, k=k) == (k < k_sys)
        assert _refuses(mds_nullspace_construct, g, gf, gen) == (k < k_sys)


def test_validity_check(ref_graph, gf7):
    spec = systematic_dsys(ref_graph, gf7)
    assert validity_check(ref_graph, spec.G)
    tampered = [list(r) for r in spec.G]
    tampered[0][1] = 1  # adjacency has a structural zero there
    assert not validity_check(ref_graph, tampered)
    assert validity_check(ref_graph, [[0] * 7 for _ in range(3)])
    with pytest.raises(ValueError):
        validity_check(ref_graph, [[0] * 6 for _ in range(3)])


def test_codespec_serialization_roundtrip(ref_graph, gf7):
    spec = systematic_dsys(ref_graph, gf7)
    d = spec.to_dict()
    back = CodeSpec.from_dict(d)
    assert back.G == spec.G and back.T == spec.T
    assert back.matching == spec.matching
    assert back.rs.nodes == spec.rs.nodes and back.rs.k == spec.rs.k
    assert back.gf == spec.gf
    assert back.claimed_distance == spec.claimed_distance
    assert back.distance_exact == spec.distance_exact


def test_codespec_load_checks_g_against_t(ref_graph, gf7):
    spec = systematic_dsys(ref_graph, gf7)
    d = spec.to_dict()
    c = spec.matching[0]
    d["G"][0] = [v if j == c else gf7.mul(3, v) for j, v in enumerate(d["G"][0])]
    # zero pattern and identity columns survive, so only T . G_RS exposes it
    assert validity_check(ref_graph, d["G"]) and systematic_columns_ok(d["G"], spec.matching)
    with pytest.raises(InconsistentCodeError, match=r"rows \[0\]") as info:
        CodeSpec.from_dict(d)
    assert info.value.spec.G == d["G"]
    for key, value in (("T", 7), ("G", -1)):
        d = spec.to_dict()
        d[key][1][0] = value
        with pytest.raises(ValueError, match="must lie in"):
            CodeSpec.from_dict(d)


@pytest.mark.parametrize("matching, claimed", [
    ([9, 9, 9], 99),        # loaded, then systematic_fast_read raised IndexError
    ([9, 9, 9], 4),
    ([0, 0, 1], 4),         # repeated column
    ([0, 1], 4),            # one column per row
    ([0, 1, -1], 4),
    ([0, 1, 2.0], 4),
    (None, 99),
    (None, 0),
    (None, 8),              # n = 7
    (None, 4.0),
    (None, True),
])
def test_codespec_load_checks_matching_and_claimed_distance(ref_graph, gf7, matching, claimed):
    d = systematic_dsys(ref_graph, gf7).to_dict()
    d["matching"], d["claimed_distance"] = matching, claimed
    with pytest.raises(ValueError, match="matching|claimed_distance"):
        CodeSpec.from_dict(d)


@pytest.mark.parametrize("flag", ["no", "false", 0, 1, None])
def test_codespec_load_requires_boolean_distance_exact(ref_graph, gf7, flag):
    # "no" is truthy: verify used to demand an exact distance for it
    d = systematic_dsys(ref_graph, gf7).to_dict()
    d["distance_exact"] = flag
    with pytest.raises(ValueError, match="distance_exact"):
        CodeSpec.from_dict(d)


def test_codespec_without_nodes_cannot_serialize():
    g = load_graph([[1, 1, 1], [1, 1, 1]])
    gf = GF(5)
    gen = generator_matrix(RSCode(gf, default_defining_set(gf, 3), 2))
    spec = mds_nullspace_construct(g, gf, gen, systematic=True)
    with pytest.raises(ValueError):
        spec.to_dict()


@pytest.mark.parametrize("p, m", [(7, 1), (2, 3)])
@pytest.mark.parametrize("mode", sorted(BUILDERS))
def test_code_files_are_byte_identical_across_builds(p, m, mode):
    g, gf = load_graph(ALL_MODES_ROWS), GF(p, m)
    first, second = (json.dumps(BUILDERS[mode](g, gf).to_dict()) for _ in range(2))
    assert first == second
    d = json.loads(first)
    assert d["mode"] == mode
    assert d["G"] == matmul(gf, d["T"], scalar_generator(gf, d["defining_set"], d["k"]))


@functools.cache
def valid_code_files():
    """Code files of every mode over GF(7) and GF(8), plus a generic one over
    GF(11) on nodes without 0, as JSON text."""
    g = load_graph(ALL_MODES_ROWS)
    files = [BUILDERS[mode](g, GF(p, m)).to_dict()
             for p, m in ((7, 1), (2, 3)) for mode in sorted(BUILDERS)]
    nodes = (2, 3, 5, 7, 8, 9, 10)
    files.append(generic_subcode(load_graph(REF_ROWS), GF(11), nodes=nodes).to_dict())
    return tuple(json.dumps(d) for d in files)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data())
def test_code_file_load_checks_every_entry(data):
    d = json.loads(data.draw(st.sampled_from(valid_code_files())))
    gf = GF.from_dict(d["field"])
    part = data.draw(st.sampled_from(("T", "G", "defining_set", "k")))
    if part == "k":
        row, j = d, "k"
    else:
        row = d[part] if part == "defining_set" else d[part][data.draw(st.integers(0, len(d[part]) - 1))]
        j = data.draw(st.integers(0, len(row) - 1))
    old = row[j]
    row[j] = new = data.draw(st.one_of(st.integers(-2, gf.q + 1),
                                       st.sampled_from((old + 0.5, float(old), str(old),
                                                        old == 1, old != 0))))
    try:
        spec = CodeSpec.from_dict(d)
    except InconsistentCodeError:
        # a float, a string or a bool is refused before G is compared with T . G_RS
        assert type(new) is int
        return
    except ValueError:
        return
    assert type(new) is int
    # G_RS has full row rank, so a changed T entry changes its row of T . G_RS,
    # G is compared entry by entry and T's rows have k entries: only a moved
    # node can still load
    assert new == old or part == "defining_set"
    assert spec.G == matmul(gf, spec.T, scalar_generator(gf, spec.rs.nodes, spec.rs.k))


@pytest.mark.parametrize("part, what", [
    ("T", "T entries"), ("G", "G entries"), ("defining_set", "defining set"),
])
def test_code_file_with_json_true_is_refused(part, what):
    # numpy reads a true among integers as 1: the row used to load and
    # serialize back with the true in it
    d = systematic_dsys(load_graph(REF_ROWS), GF(7)).to_dict()
    row = d[part] if part == "defining_set" else d[part][0]
    row[row.index(1)] = True
    with pytest.raises(ValueError, match=r"^%s must lie in \[0, 7\)$" % what):
        CodeSpec.from_dict(d)


def test_constructions_respect_validity_on_random_graphs():
    rng = random.Random(909)
    for _ in range(60):
        g = random_graph(rng, *random_dims(rng, 4, 7),
                         density=rng.choice([0.45, 0.7, 0.95]))
        gf = GF(7) if g.n <= 7 else GF(11)
        spec = generic_subcode(g, gf)
        assert validity_check(g, spec.G)
        assert rank(gf, spec.G) == rank(gf, spec.T)
        try:
            sys_spec = systematic_dsys(g, gf)
        except NoMatchingError:
            continue
        assert validity_check(g, sys_spec.G)
        assert systematic_columns_ok(sys_spec.G, sys_spec.matching)
        assert rank(gf, sys_spec.G) == g.s
        # generator rows really are the RS encodings of the transform rows
        for trow, grow in zip(sys_spec.T, sys_spec.G):
            assert encode(sys_spec.rs, trow) == grow


# -- transform rows: the vanishing polynomials of _subcode ---------------------

def scalar_transform(rs, rows, matching):
    """T row by row, one field element at a time (poly_from_roots, poly_eval,
    poly_scale): the reference for _subcode, raising its InfeasibleError."""
    gf, T = rs.gf, []
    for i, row in enumerate(rows):
        zs = [j for j, v in enumerate(row) if v == 0]
        t = polys.poly_from_roots(gf, [rs.nodes[j] for j in zs])
        if len(t) > rs.k:
            raise InfeasibleError(
                "row %d needs %d zeros but the RS dimension is only %d" % (i, len(zs), rs.k))
        if matching is not None:
            t = polys.poly_scale(gf, t, gf.inv(polys.poly_eval(gf, t, rs.nodes[matching[i]])))
        T.append(t + [0] * (rs.k - len(t)))
    return T


# (p, m, alpha, reduction polynomial): GF(7) and GF(31) also under a
# primitive element that is not the default, and GF(2^4) also modulo
# x^4 + x^3 + 1, so fields of equal order meet the interpolation tables
SUBCODE_FIELDS = ((2, 1, None, None), (7, 1, None, None), (7, 1, 5, None),
                  (31, 1, None, None), (31, 1, 11, None), (2, 4, None, None),
                  (2, 4, None, (1, 0, 0, 1, 1)), (2, 8, None, None))


@st.composite
def subcode_cases(draw):
    """(rs, rows, matching or None) over ``SUBCODE_FIELDS``: rows with no
    zeros, with k - 1 zeros (the most a row may have), with k or more
    (infeasible) and in between; s = 1 to 5."""
    p, m, alpha, poly = draw(st.sampled_from(SUBCODE_FIELDS))
    gf = GF(p, m, alpha=alpha, reduction_poly=poly)
    n = draw(st.integers(1, min(gf.q, 24)))
    nodes = tuple(draw(st.permutations(range(gf.q)))[:n])
    k = draw(st.integers(1, n))
    s = draw(st.integers(1, 5))
    systematic = draw(st.booleans())
    rows, matching = [], []
    for _ in range(s):
        zeros = draw(st.sampled_from((0, k - 1, k, draw(st.integers(0, n)))))
        zeros = min(zeros, n - 1 if systematic else n)  # a matched column is no zero
        zs = set(draw(st.permutations(range(n)))[:zeros])
        rows.append(tuple(0 if j in zs else 1 for j in range(n)))
        matching.append(draw(st.sampled_from([j for j in range(n) if j not in zs] or [0])))
    return RSCode(gf, nodes, k), tuple(rows), tuple(matching) if systematic else None


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(subcode_cases())
def test_subcode_transform_matches_the_scalar_reference(case):
    rs, rows, matching = case
    try:
        want = scalar_transform(rs, rows, matching)
    except InfeasibleError as exc:
        with pytest.raises(InfeasibleError) as got:
            construct._subcode(rs, rows, "generic", matching, 1, False)
        assert str(got.value) == str(exc)
        return
    spec = construct._subcode(rs, rows, "generic", matching, 1, False)
    assert spec.T == want and all(type(v) is int for row in spec.T for v in row)
    assert spec.G == evaluate(rs, want)


@pytest.mark.parametrize("block", [arrays.BLOCK_ELEMENTS, 40])
def test_subcode_rows_do_not_depend_on_the_block_size(request, monkeypatch, block):
    # 40 elements split both the node-difference columns and the
    # interpolation gather into several blocks; a node set's tables are kept
    # only if they fit one block, so the sets are built afresh
    monkeypatch.setattr(arrays, "BLOCK_ELEMENTS", block)
    for cache in (rs._node_tables, rs._interpolation):
        cache.cache_clear()
        request.addfinalizer(cache.cache_clear)
    rng = random.Random(41)
    for gf in (GF(13), GF(2, 4)):
        for _ in range(20):
            n = rng.randint(2, 13)
            k = rng.randint(1, n)
            code = RSCode(gf, tuple(rng.sample(range(gf.q), n)), k)
            rows = [[int(rng.random() > (k - 1) / n) for _ in range(n)] for _ in range(4)]
            for row in rows:
                while row.count(0) >= k:
                    row[row.index(0)] = 1
                row[rng.choice([j for j in range(n) if row[j]] or [0])] = 1
            matching = tuple(row.index(1) for row in rows)
            for m in (None, matching):
                spec = construct._subcode(code, rows, "generic", m, 1, False)
                assert spec.T == scalar_transform(code, rows, m)
                assert spec.G == evaluate(code, spec.T)


def test_subcode_modes_run_without_the_scalar_polynomials(monkeypatch):
    def refuse(*args):
        raise AssertionError("scalar polynomial or matrix arithmetic called")

    for name in ("poly_from_roots", "poly_eval", "poly_scale"):
        monkeypatch.setattr(polys, name, refuse)
        monkeypatch.setattr(construct, name, refuse, raising=False)
    # nor any elimination: the RS subcodes run none
    for name in ("left_nullspace_basis", "rref"):
        monkeypatch.setattr(construct, name, refuse)
    monkeypatch.setattr(linalg, "_rref", refuse)
    assert not hasattr(construct, "vec_mat") and not hasattr(construct, "invert")
    g, fields = load_graph(ALL_MODES_ROWS), (GF(7), GF(2, 3))
    # nor one scalar field operation
    for name in ("add", "sub", "mul", "div", "inv", "neg", "pow"):
        monkeypatch.setattr(GF, name, refuse)
    for gf in fields:
        for mode in ("generic", "systematic-dmin", "systematic-dsys", "mds-nullspace"):
            spec = BUILDERS[mode](g, gf)
            assert spec.mode == mode and validity_check(g, spec.G)


def test_fields_of_equal_order_keep_their_own_interpolation_tables():
    # the tables hold logs, which name alpha, and products, which name the
    # reduction polynomial: one table per field, node prefix and k
    rows, matching = ((1, 0, 1, 0, 1, 1, 1), (0, 1, 1, 1, 1, 1, 0)), (0, 2)
    twins = ((GF(7), GF(7, alpha=5)),
             (GF(2, 4), GF(2, 4, reduction_poly=[1, 0, 0, 1, 1])))
    for fields in twins:
        for gf in fields:
            for k in (3, 4, 7):  # the same nodes in every field
                code = RSCode(gf, tuple(range(7)), k)
                spec = construct._subcode(code, rows, "generic", matching, 1, False)
                assert spec.T == scalar_transform(code, rows, matching)
                assert spec.G == evaluate(code, spec.T)


def test_interpolation_cache_keeps_the_tables_of_the_64_sets_used_last(request, monkeypatch):
    # the rule of the node-set tables: a table that fits one block is kept
    # across codes for the 64 sets used last; over a 100-element block the
    # 11 x 11 to 16 x 16 tables stay with their own code
    monkeypatch.setattr(arrays, "BLOCK_ELEMENTS", 100)
    cache = rs._interpolation
    cache.cache_clear()
    request.addfinalizer(cache.cache_clear)
    assert cache.cache_info().maxsize == rs._node_tables.cache_info().maxsize == 64
    rows = ((1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1),)
    for gf in (GF(17), GF(2, 4), GF(17, alpha=5)):
        nodes = default_defining_set(gf, 16)
        for k in range(4, 17):
            code = RSCode(gf, nodes, k)
            spec = construct._subcode(code, rows, "generic", None, 1, False)
            assert spec.T == scalar_transform(code, rows, None)
            # a second code on the same field and first k nodes shares the
            # table exactly when it fits the block
            twin = RSCode(gf, nodes[:k], k).interpolation
            assert np.array_equal(twin, code.interpolation)
            assert (twin is code.interpolation) == (k * k <= 100)
    assert cache.cache_info().currsize == 3 * 7  # k = 4 to 10 in each field

    # at most 64 sets, least recently used first out: a table read again
    # outlives older ones
    cache.cache_clear()
    gf = GF(2, 8)
    prefixes = [(a, a + 1) for a in range(0, 132, 2)]
    tables = [RSCode(gf, p, 2).interpolation for p in prefixes[:64]]
    assert cache.cache_info().currsize == 64
    assert RSCode(gf, prefixes[0], 2).interpolation is tables[0]
    RSCode(gf, prefixes[64], 2).interpolation
    assert cache.cache_info().currsize == 64
    assert RSCode(gf, prefixes[0], 2).interpolation is tables[0]
    again = RSCode(gf, prefixes[1], 2).interpolation
    assert again is not tables[1] and np.array_equal(again, tables[1])
    assert cache.cache_info().currsize == 64


def test_interpolation_cache_keeps_its_count_under_threads(request):
    # more threads than cores and a short switch interval, so the lookups
    # and updates of the one cache interleave over more sets than it keeps,
    # many of them evicting
    gf = GF(2, 8)
    rng = random.Random(64)
    keys = [(tuple(rng.sample(range(gf.q), 8)), rng.randint(2, 8)) for _ in range(96)]
    want = {key: RSCode(gf, *key).interpolation.copy() for key in keys}
    rs._interpolation.cache_clear()
    request.addfinalizer(rs._interpolation.cache_clear)
    errors = []

    def hammer(seed):
        rng = random.Random(seed)
        try:
            for _ in range(3000):
                key = rng.choice(keys)
                table = RSCode(gf, *key).interpolation
                if table.flags.writeable or not np.array_equal(table, want[key]):
                    errors.append(key)
        except Exception as exc:  # a torn update surfaces here
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hammer, args=(seed,)) for seed in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers) and not errors
    assert rs._interpolation.cache_info().currsize <= 64


def test_interpolation_tables_are_read_only():
    gf = GF(2, 3)
    code = RSCode(gf, default_defining_set(gf, 8), 5)
    table = code.interpolation
    assert table.shape == (5, 5) and table.dtype == np.int32
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 0
    # shared by every code on the same field and first k nodes
    assert RSCode(gf, code.nodes[:5] + (7,), 5).interpolation is table


def test_a_second_construction_builds_no_table_and_evaluates_nothing(monkeypatch):
    g, gf, nodes = load_graph(REF_ROWS), GF(7, alpha=5), (6, 5, 4, 3, 2, 1, 0)
    first = systematic_dsys(g, gf, nodes)

    def refuse(*args):
        raise AssertionError("rs.evaluate or an interpolation-table builder called")

    for name in ("evaluate", "_node_product", "_lagrange_logs"):
        monkeypatch.setattr(rs, name, refuse)
    monkeypatch.setattr(construct, "evaluate", refuse)
    second = systematic_dsys(g, gf, nodes)
    assert second.rs is not first.rs and second.rs == first.rs
    assert (second.T, second.G) == (first.T, first.G)


def test_a_bool_node_is_refused_before_a_code_file_is_written():
    # numpy reads True among integers as 1: the node used to pass, and the
    # code file written with it in the defining set failed to load
    g = load_graph(((1, 1, 0, 1), (0, 1, 1, 1)))
    for nodes in ((True, 2, 3, 4), (np.True_, 2, 3, 4), (0, 2.0, 3, 4)):
        with pytest.raises(ValueError, match=r"^defining set must lie in \[0, 7\)$"):
            systematic_dsys(g, GF(7), nodes=nodes)
    spec = systematic_dsys(g, GF(7), nodes=(1, 2, 3, 4))
    assert CodeSpec.from_dict(json.loads(json.dumps(spec.to_dict()))).G == spec.G
    # a numpy integer is a node as an int is
    assert systematic_dsys(g, GF(7), nodes=(np.int64(1), 2, 3, 4)).G == spec.G


def test_a_spec_on_numpy_integer_nodes_writes_a_json_code_file():
    # RSCode accepts numpy integers as nodes and k; the dict must hold ints
    g = load_graph(((1, 1, 0, 1), (0, 1, 1, 1)))
    for spec in (systematic_dsys(g, GF(7), nodes=(np.int64(1), 2, 3, 4)),
                 generic_subcode(g, GF(7), nodes=np.arange(1, 5), k=np.int64(3))):
        back = CodeSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert (back.T, back.G, back.rs.nodes, back.rs.k, back.claimed_distance) == (
            spec.T, spec.G, tuple(map(int, spec.rs.nodes)), spec.rs.k,
            spec.claimed_distance)


def test_numpy_integers_pass_where_ints_do_and_bools_do_not():
    # one integer rule for the field, the graph's declared sizes and a code
    # file's claim and matching: a numpy integer is read as an int and kept
    # as one, so to_dict stays JSON-writable; a bool is refused
    gf = GF(np.int64(7), np.uint8(1), alpha=np.int32(3))
    assert gf == GF(7, alpha=3)
    assert all(type(v) is int for v in (gf.p, gf.m, gf.alpha))
    json.dumps(gf.to_dict())
    rows = ((1, 1, 0, 1), (0, 1, 1, 1))
    g = ConstraintGraph.from_dict({"s": np.int64(2), "n": np.uint16(4), "adjacency": rows})
    assert g == load_graph(rows)
    d = systematic_dsys(g, GF(7)).to_dict()
    spec = CodeSpec.from_dict(dict(d, claimed_distance=np.int64(d["claimed_distance"]),
                                   matching=[np.int64(c) for c in d["matching"]]))
    assert spec.to_dict() == d
    assert type(spec.claimed_distance) is int and all(type(c) is int for c in spec.matching)
    json.dumps(spec.to_dict())
    for bad in ({"p": True}, {"p": 7, "m": True}, {"p": 2, "alpha": True}):
        with pytest.raises(ValueError):
            GF(**bad)
    with pytest.raises(ValueError, match="declared s"):
        ConstraintGraph.from_dict({"s": True, "adjacency": [[1]]})
    with pytest.raises(ValueError, match="claimed_distance"):
        CodeSpec.from_dict(dict(d, claimed_distance=True))
    with pytest.raises(ValueError, match="matching"):
        CodeSpec.from_dict(dict(d, matching=[True, 2]))
