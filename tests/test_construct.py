import functools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (REF_G, REF_NODES, REF_ROWS, REF_T, random_dims,
                      random_graph)
from graphcodes.construct import (CodeSpec, generic_subcode,
                                  mds_nullspace_construct, rs_nullspace_construct,
                                  systematic_columns_ok, systematic_dmin,
                                  systematic_dsys, validity_check)
from graphcodes.errors import (InconsistentCodeError, InfeasibleError,
                               NoMatchingError)
from graphcodes.field import GF
from graphcodes.graph import load_graph
from graphcodes.linalg import matmul, rank
from graphcodes.rs import RSCode, default_defining_set, encode, generator_matrix
from graphcodes.verify import min_distance_exhaustive


BUILDERS = {
    "generic": generic_subcode,
    "systematic-dmin": systematic_dmin,
    "systematic-dsys": systematic_dsys,
    "mds-nullspace": rs_nullspace_construct,
}
# four fully connected columns, so k_min = 3 >= r_M = 3 and every mode builds
ALL_MODES_ROWS = (
    (1, 0, 0, 1, 1, 1, 1),
    (0, 1, 0, 1, 1, 1, 1),
    (0, 0, 1, 1, 1, 1, 1),
)


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
    assert min_distance_exhaustive(spec.G, gf7).distance == 4


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
    assert min_distance_exhaustive(spec.G, gf).distance == 3


def test_systematic_dsys_extension_field():
    g = load_graph([[1, 1, 0, 1, 1, 1],
                    [1, 0, 1, 1, 1, 1],
                    [0, 1, 1, 1, 1, 1]])
    gf = GF(2, 3)
    spec = systematic_dsys(g, gf)
    assert validity_check(g, spec.G)
    assert systematic_columns_ok(spec.G, spec.matching)
    assert min_distance_exhaustive(spec.G, gf).distance == spec.claimed_distance


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
    assert min_distance_exhaustive(spec.G, gf).distance == 5


def test_systematic_dmin_identity_plus_full_block():
    rows = [[1 if i == j else 0 for j in range(3)] + [1] * 4 for i in range(3)]
    g = load_graph(rows)
    gf = GF(7)
    spec = systematic_dmin(g, gf)
    assert spec.claimed_distance == 5  # every subset gives 5
    assert min_distance_exhaustive(spec.G, gf).distance == 5
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


def test_mds_backend_matches_polynomial_route(ref_graph, gf7):
    base = systematic_dsys(ref_graph, gf7)
    nodes = base.rs.nodes
    gen = generator_matrix(RSCode(gf7, nodes, base.rs.k))
    spec = mds_nullspace_construct(ref_graph, gf7, gen, systematic=True,
                                   matching=base.matching, nodes=nodes)
    assert _zero_pattern(spec.G) == _zero_pattern(base.G)
    assert rank(gf7, spec.G) == rank(gf7, base.G) == 3
    assert systematic_columns_ok(spec.G, spec.matching)
    assert spec.matching == base.matching
    assert (min_distance_exhaustive(spec.G, gf7).distance
            == min_distance_exhaustive(base.G, gf7).distance == 4)


def test_mds_backend_unique_row_when_nullspace_is_one_dim(gf7):
    # a row with k-1 zeros pins the codeword up to scale
    g = load_graph([[1, 0, 0, 1, 1, 1, 1], [1, 1, 1, 0, 1, 1, 1],
                    [0, 0, 1, 1, 1, 1, 1]])
    base = systematic_dsys(g, gf7)
    gen = generator_matrix(RSCode(gf7, base.rs.nodes, base.rs.k))
    spec = mds_nullspace_construct(g, gf7, gen, systematic=True,
                                   matching=base.matching, nodes=base.rs.nodes)
    # row 1 has k-1 = 3 zeros: must equal the polynomial row exactly after
    # the shared systematic normalization
    assert spec.G[1] == base.G[1]


def test_mds_backend_nonsystematic():
    g = load_graph([[1] * 5, [1, 1, 0, 1, 1]])
    gf = GF(5)
    nodes = default_defining_set(gf, 5)
    gen = generator_matrix(RSCode(gf, nodes, 3))
    spec = mds_nullspace_construct(g, gf, gen, target_distance=3,
                                   systematic=False, nodes=nodes)
    assert spec.matching is None
    assert validity_check(g, spec.G)
    assert all(any(v for v in row) for row in spec.G)
    # the all-ones row has no forced zeros and should come out full weight
    assert all(v != 0 for v in spec.G[0])


def test_mds_backend_rejects_overloaded_rows():
    g = load_graph([[1, 0, 0, 1], [1, 1, 1, 1]])
    gf = GF(5)
    nodes = default_defining_set(gf, 4)
    gen = generator_matrix(RSCode(gf, nodes, 2))
    with pytest.raises(InfeasibleError):
        mds_nullspace_construct(g, gf, gen, systematic=False, nodes=nodes)


def test_mds_backend_detects_non_mds():
    g = load_graph([[1, 1, 0, 1], [1, 1, 1, 0]])
    gf = GF(5)
    bad_gen = [[1, 0, 0, 0], [0, 1, 0, 0]]  # column (0,0) kills the dimension count
    with pytest.raises(ValueError):
        mds_nullspace_construct(g, gf, bad_gen, systematic=False)


def test_mds_backend_dimension_mismatch():
    g = load_graph([[1, 1, 1], [1, 1, 1]])
    gf = GF(5)
    gen = generator_matrix(RSCode(gf, default_defining_set(gf, 3), 2))
    with pytest.raises(ValueError):
        mds_nullspace_construct(g, gf, gen, target_distance=3)  # k != n-d*+1


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
                                       st.sampled_from((old + 0.5, float(old), str(old)))))
    try:
        spec = CodeSpec.from_dict(d)
    except InconsistentCodeError:
        # a float or a string is refused before G is compared with T . G_RS
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
