import itertools
import json
import random
import tracemalloc

import pytest

from conftest import ALL_MODES_ROWS, REF_ROWS, random_dims, random_graph
from graphcodes import bounds, cli, graph
from graphcodes.bounds import Bound, bounds_report, d_min_bound, k_sys_search, matching_k
from graphcodes.construct import (generic_subcode, mds_nullspace_construct,
                                  rs_nullspace_construct, systematic_dmin,
                                  systematic_dsys)
from graphcodes.errors import GuardExceededError, NoMatchingError
from graphcodes.field import GF
from graphcodes.graph import (ConstraintGraph, find_matching, load_graph,
                              matched_adjacency, row_zero_stats)
from graphcodes.rs import RSCode, default_defining_set, generator_matrix


def brute_d_min(rows):
    """Independent subset sweep with plain set unions."""
    s = len(rows)
    best = None
    for size in range(1, s + 1):
        for subset in itertools.combinations(range(s), size):
            nb = set()
            for i in subset:
                nb |= {j for j, v in enumerate(rows[i]) if v}
            val = len(nb) - size + 1
            if best is None or val < best:
                best = val
    return best


def brute_k_sys(rows):
    """Minimum over all covering matchings of (max row zeros + 1), from scratch."""
    s, n = len(rows), len(rows[0])
    best = [None]

    def k_of(match):
        worst = 0
        taken = set(match)
        for i in range(s):
            zeros = 0
            for j in range(n):
                v = rows[i][j]
                if j in taken and match[i] != j:
                    v = 0
                zeros += v == 0
            worst = max(worst, zeros)
        return worst + 1

    def rec(i, match):
        if i == s:
            k = k_of(match)
            if best[0] is None or k < best[0]:
                best[0] = k
            return
        for c in range(n):
            if rows[i][c] and c not in match:
                rec(i + 1, match + [c])

    rec(0, [])
    return best[0]


def reference_k_sys_exact(g, k_floor):
    """The exact k_sys DFS over row-by-row column assignments, re-scoring
    each permutation of a column set: the reference for bounds._k_sys_exact."""
    adj = g.adjacency
    s, n = g.s, g.n
    supports = [g.support(i) for i in range(s)]
    cur_zeros = [n - len(supports[i]) for i in range(s)]
    used = [False] * n
    assign = [0] * s
    best: list = [None, None]  # k, matching

    def dfs(i: int):
        if best[0] == k_floor:
            return
        if i == s:
            k_here = max(cur_zeros) + 1
            if best[0] is None or k_here < best[0]:
                best[0] = k_here
                best[1] = tuple(assign)
            return
        for c in supports[i]:
            if used[c]:
                continue
            touched = [r for r in range(s) if r != i and adj[r][c]]
            for r in touched:
                cur_zeros[r] += 1
            # zeros only grow as the matching extends, so this is a lower bound
            if best[0] is None or max(cur_zeros) + 1 < best[0]:
                used[c] = True
                assign[i] = c
                dfs(i + 1)
                used[c] = False
            for r in touched:
                cur_zeros[r] -= 1

    dfs(0)
    return Bound(best[0], best[0], best[1], "exhaustive")


def reference_k_sys_heuristic(g, start):
    """First-improvement local search that re-scores the whole matching for
    every single reassignment, then tries pairwise swaps: the reference for
    bounds._k_sys_heuristic."""
    match = list(start)
    best_k = matching_k(g, match)
    taken = set(match)
    improved = True
    while improved:
        improved = False
        for i in range(g.s):
            for c in g.support(i):
                if c == match[i] or c in taken:
                    continue
                trial = list(match)
                trial[i] = c
                k = matching_k(g, trial)
                if k < best_k:
                    taken.discard(match[i])
                    taken.add(c)
                    match, best_k, improved = trial, k, True
                    break
            if improved:
                break
        if improved:
            continue
        for i in range(g.s):
            for r in range(i + 1, g.s):
                ci, cr = match[i], match[r]
                if g.adjacency[i][cr] != 1 or g.adjacency[r][ci] != 1:
                    continue
                trial = list(match)
                trial[i], trial[r] = cr, ci
                k = matching_k(g, trial)
                if k < best_k:
                    match, best_k, improved = trial, k, True
                    break
            if improved:
                break
    return Bound(best_k, None, tuple(match), "heuristic")


CORPUS_DENSITIES = (0.35, 0.55, 0.75, 0.9)
# dense enough that every permutation of a good column set scores alike:
# re-scoring each one took the DFS about 2 s
DENSE_7X14 = (
    (1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1),
    (0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1),
    (1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1),
    (1, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1),
)


def test_reference_graph_bounds(ref_graph):
    assert d_min_bound(ref_graph) == Bound(5, 5, (0,), "exhaustive")
    assert k_sys_search(ref_graph) == Bound(4, 4, (0, 1, 2), "exhaustive")
    rep = bounds_report(ref_graph)
    assert rep.d_min == 5 and rep.k_min == 3
    assert rep.d_sys == 4 and rep.k_sys == 4
    assert rep.a == 3 and rep.r_m == 4
    assert rep.thm2_feasible is False
    assert rep.search_exact is True
    d = rep.to_dict()
    assert d["r_M"] == 4 and d["exact"] is True
    assert d["witness_subset"] == [0] and d["witness_matching"] == [0, 1, 2]


def test_an_assigned_witness_subset_replaces_the_d_min_witness(ref_graph):
    rep = bounds_report(ref_graph)
    rep.witness_subset = [2, 0]
    assert rep.d_min_bound == Bound(5, 5, (2, 0), "exhaustive")
    assert rep.witness_subset == (2, 0) and rep.to_dict()["witness_subset"] == [2, 0]
    assert d_min_bound(ref_graph).witness == (0,)  # the stored search result is kept
    with pytest.raises(AttributeError):
        rep.d_min = 4  # every other derived value is read-only


def test_complete_graph_bounds():
    for s, n in [(1, 4), (2, 5), (3, 7), (4, 6)]:
        g = load_graph([[1] * n for _ in range(s)])
        bound = d_min_bound(g)
        assert bound.value == bound.floor == n - s + 1
        assert bound.witness == tuple(range(s))
        rep = bounds_report(g)
        assert rep.k_sys == s and rep.d_sys == n - s + 1
        assert rep.a == n and rep.r_m == 0 and rep.thm2_feasible


def test_identity_graph_bounds():
    for s in [1, 2, 4]:
        g = load_graph([[1 if i == j else 0 for j in range(s)] for i in range(s)])
        assert d_min_bound(g).value == 1
        rep = bounds_report(g)
        assert rep.k_sys == s
        assert rep.d_sys == 1
        assert rep.thm2_feasible  # k_min = n = s >= r_M = s


def test_single_row_bound():
    g = load_graph([[1, 1, 1, 1, 1]])
    assert d_min_bound(g) == Bound(5, 5, (0,), "exhaustive")
    rep = bounds_report(g)
    assert rep.k_sys == 1 and rep.d_sys == 5


def test_d_min_guard():
    g = load_graph([[1] * 25 for _ in range(22)])
    with pytest.raises(GuardExceededError):
        d_min_bound(g)
    assert d_min_bound(g, max_exact_s=22).value == 25 - 22 + 1
    with pytest.raises(GuardExceededError):  # the stored sweep does not lift the guard
        d_min_bound(g)


def test_subset_searches_keep_no_table_of_subsets():
    # both walks at the default guard s = 20 hold one subset per level, not
    # one entry per subset (a 2^20 table of ints peaks near 40 MB)
    rng = random.Random(2020)
    dense = random_graph(rng, 20, 50)
    crowded = ConstraintGraph([list(r) for r in random_graph(rng, 17, 40).adjacency]
                              + [[1, 1] + [0] * 38] * 3)  # three rows share two columns
    for search, g in ((d_min_bound, dense), (graph.hall_check, crowded)):
        tracemalloc.start()
        try:
            result = search(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, (search.__name__, peak)
    assert result[0] is False  # no matching, so the Hall check walked


def test_k_sys_guard_and_heuristic_fallback():
    rows = [[1] * 14 for _ in range(13)]
    g = load_graph(rows)
    heuristic = k_sys_search(g)  # s = 13 is above the exact search's limit
    # its k is s, the least k can be, yet the heuristic proves no floor
    assert heuristic.floor is None and heuristic.exact is False
    assert heuristic == bounds._k_sys_heuristic(g, find_matching(g))
    k, match = heuristic.value, heuristic.witness
    assert k >= 13  # s <= k always
    assert len(set(match)) == 13
    assert k_sys_search(g, max_exact_s=13) == Bound(13, 13, match, "exhaustive")


def test_fallback_above_guard_agrees_everywhere(tmp_path):
    rows = [[1] * 14 for _ in range(13)]
    g = load_graph(rows)
    bound = k_sys_search(g)
    want = bound.value, bound.witness, bound.exact
    assert want[2] is False
    rep = bounds_report(g)
    assert (rep.k_sys, rep.witness_matching, rep.search_exact) == want
    gf = GF(17)
    spec = systematic_dsys(g, gf)
    assert (spec.k, spec.matching, spec.distance_exact) == want
    gen = generator_matrix(RSCode(gf, default_defining_set(gf, 14), want[0]))
    spec = mds_nullspace_construct(g, gf, gen, matching=None)
    assert (spec.k, spec.matching, spec.distance_exact) == want
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"s": 13, "n": 14, "adjacency": rows}))
    out = tmp_path / "code.json"
    assert cli.main(["construct", str(path), "--mode", "mds-nullspace",
                     "--out", str(out)]) == 0
    code = json.loads(out.read_text())
    assert (code["k"], tuple(code["matching"]), code["distance_exact"]) == want


def test_no_matching_propagates():
    g = load_graph([[1, 0, 0], [1, 0, 0], [0, 1, 1]])
    with pytest.raises(NoMatchingError):
        k_sys_search(g)
    with pytest.raises(NoMatchingError):
        bounds_report(g)


def test_d_min_matches_brute_oracle():
    rng = random.Random(404)
    for _ in range(200):
        g = random_graph(rng, *random_dims(rng, 6, 8),
                         density=rng.choice([0.3, 0.5, 0.8]))
        assert d_min_bound(g).value == brute_d_min([list(r) for r in g.adjacency])


def test_d_min_witness_is_lex_smallest_minimizer():
    rng = random.Random(414)
    for _ in range(80):
        g = random_graph(rng, *random_dims(rng, 9, 12),
                         density=rng.choice([0.3, 0.6]))
        bound = d_min_bound(g)
        value, witness = bound.value, bound.witness
        minimizers = []
        for size in range(1, g.s + 1):
            for subset in itertools.combinations(range(g.s), size):
                nb = set()
                for i in subset:
                    nb |= set(g.support(i))
                if len(nb) - size + 1 == value:
                    minimizers.append(subset)
        assert witness == min(minimizers)


def test_k_sys_matches_brute_oracle():
    rng = random.Random(505)
    checked = 0
    while checked < 120:
        g = random_graph(rng, *random_dims(rng, 4, 7),
                         density=rng.choice([0.3, 0.5, 0.8]))
        rows = [list(r) for r in g.adjacency]
        expect = brute_k_sys(rows)
        if expect is None:
            with pytest.raises(NoMatchingError):
                k_sys_search(g)
            continue
        bound = k_sys_search(g)
        assert bound.exact and bound.value == expect
        assert matching_k(g, bound.witness) == expect
        checked += 1


def random_matching(rng, g):
    """A covering matching from a random column order, or None."""
    cols = list(range(g.n))
    rng.shuffle(cols)
    match = []
    used = set()
    for i in range(g.s):
        pick = next((c for c in cols if g.adjacency[i][c] and c not in used), None)
        if pick is None:
            return None
        match.append(pick)
        used.add(pick)
    return match


def test_random_matchings_never_beat_k_sys():
    rng = random.Random(606)
    for _ in range(60):
        g = random_graph(rng, *random_dims(rng, 4, 7, s_min=2), density=0.7)
        try:
            k_sys = k_sys_search(g).value
        except NoMatchingError:
            continue
        for _ in range(20):
            match = random_matching(rng, g)
            if match is not None:
                assert matching_k(g, match) >= k_sys


def test_matching_k_matches_matched_adjacency():
    rng = random.Random(909)
    checked = 0
    while checked < 2000:
        g = random_graph(rng, *random_dims(rng, 6, 12),
                         density=rng.choice([0.3, 0.5, 0.8, 1.0]))
        match = random_matching(rng, g)
        if match is None:
            continue
        assert matching_k(g, match) == row_zero_stats(matched_adjacency(g, match))[0] + 1
        checked += 1
    g = load_graph(REF_ROWS)
    for bad in ([0, 1], [0, 0, 2], [1, 1, 2], [0, 1, 7]):  # short, repeated, non-edge, out of range
        with pytest.raises(ValueError):
            matching_k(g, bad)


def test_heuristic_upper_bounds_exact():
    rng = random.Random(707)
    for _ in range(80):
        g = random_graph(rng, *random_dims(rng, 5, 8, s_min=2), density=0.6)
        try:
            exact = k_sys_search(g)
        except NoMatchingError:
            continue
        assert exact.exact
        heuristic = bounds._k_sys_heuristic(g, find_matching(g))
        assert heuristic.value >= exact.value
        assert matching_k(g, heuristic.witness) == heuristic.value


def test_k_sys_searches_equal_the_reference_searches():
    rng = random.Random(1117)
    checked = 0
    while checked < 1000:
        g = random_graph(rng, *random_dims(rng, 8, 10),
                         density=rng.choice(CORPUS_DENSITIES))
        try:
            start = find_matching(g)
        except NoMatchingError:
            continue
        k_floor = g.n - d_min_bound(g).value + 1
        assert bounds._k_sys_exact(g, k_floor) == reference_k_sys_exact(g, k_floor)
        for begin in (start, random_matching(rng, g)):
            if begin is not None:
                assert (bounds._k_sys_heuristic(g, begin)
                        == reference_k_sys_heuristic(g, begin))
        checked += 1


def test_k_sys_searches_that_must_prove_equal_the_reference():
    # graphs with k_sys above the k_min floor: the search runs on to a proof,
    # through every prune of the packed zero counts, not just to a first
    # leaf at the floor
    rng = random.Random(1531)
    proofs = 0
    while proofs < 40:
        s = rng.randint(5, 8)
        g = random_graph(rng, s, rng.randint(s, s + 5), density=rng.choice(CORPUS_DENSITIES))
        try:
            find_matching(g)
        except NoMatchingError:
            continue
        k_floor = g.n - d_min_bound(g).value + 1
        want = reference_k_sys_exact(g, k_floor)
        if want.value > k_floor:
            assert bounds._k_sys_exact(g, k_floor) == want
            proofs += 1


def test_heuristic_equals_the_reference_above_the_guard():
    rng = random.Random(1213)
    checked = 0
    while checked < 100:
        s = rng.randint(14, 18)
        g = random_graph(rng, s, rng.randint(s, 3 * s), density=rng.choice(CORPUS_DENSITIES))
        try:
            start = find_matching(g)
        except NoMatchingError:
            continue
        for begin in (start, random_matching(rng, g)):
            if begin is not None:
                assert (bounds._k_sys_heuristic(g, begin)
                        == reference_k_sys_heuristic(g, begin))
        checked += 1


def test_dense_graph_exact_search():
    assert (k_sys_search(load_graph(DENSE_7X14))
            == Bound(8, 8, (0, 1, 3, 2, 4, 5, 7), "exhaustive"))


@pytest.mark.parametrize("cap", [1, 2, 8])
def test_explored_cap_changes_no_answer(monkeypatch, cap):
    # the explored set only lets the exact search skip work; past the cap it
    # searches a column set again and must return the same witness
    rng = random.Random(1427)
    rows_list = [REF_ROWS]
    while len(rows_list) < 120:
        g = random_graph(rng, *random_dims(rng, 9, 12, s_min=2),
                         density=rng.choice(CORPUS_DENSITIES))
        try:
            find_matching(g)
        except NoMatchingError:
            continue
        rows_list.append(g.adjacency)
    monkeypatch.setattr(bounds, "EXPLORED_CAP", 1 << 62)
    uncapped = [k_sys_search(load_graph(rows)) for rows in rows_list]
    monkeypatch.setattr(bounds, "EXPLORED_CAP", cap)
    assert [k_sys_search(load_graph(rows)) for rows in rows_list] == uncapped
    assert uncapped[0] == Bound(4, 4, (0, 1, 2), "exhaustive")  # the 3x7 reference


def test_matching_k_ignores_which_row_holds_which_column():
    # why the heuristic tries no swaps: a swap keeps the set of matched columns
    rng = random.Random(1319)
    swaps = 0
    while swaps < 500:
        g = random_graph(rng, *random_dims(rng, 8, 14, s_min=2),
                         density=rng.choice(CORPUS_DENSITIES))
        match = random_matching(rng, g)
        if match is None:
            continue
        i, r = rng.sample(range(g.s), 2)
        if not (g.adjacency[i][match[r]] and g.adjacency[r][match[i]]):
            continue
        swapped = list(match)
        swapped[i], swapped[r] = match[r], match[i]
        assert matching_k(g, swapped) == matching_k(g, match)
        swaps += 1


def test_dimension_chain_on_random_reports():
    rng = random.Random(808)
    for _ in range(150):
        g = random_graph(rng, *random_dims(rng, 5, 8),
                         density=rng.choice([0.4, 0.6, 0.9]))
        try:
            rep = bounds_report(g)
        except NoMatchingError:
            continue
        assert g.s <= rep.k_min <= rep.k_sys <= g.n
        assert rep.d_sys <= rep.d_min
        assert rep.d_min <= g.n - g.s + 1  # Singleton via the full subset


def test_guards_are_checked_ahead_of_stored_results():
    # a search finished under a raised limit is kept, yet a call at the
    # default limit still refuses, or falls back, as on a fresh graph
    wide = load_graph([[1] * 22 for _ in range(21)])  # SUBSET_GUARD < s = 21
    report = bounds_report(wide, max_exact_s=21)  # stores the sweep and the exact search
    assert report.search_exact
    with pytest.raises(GuardExceededError):
        d_min_bound(wide)
    with pytest.raises(GuardExceededError):
        bounds_report(wide)
    assert bounds_report(wide, max_exact_s=21) == report
    g = load_graph([[1] * 14 for _ in range(13)])  # MATCHING_GUARD < s = 13 <= SUBSET_GUARD
    exact = k_sys_search(g, max_exact_s=13)
    assert exact.exact is True
    heuristic = k_sys_search(g)
    assert heuristic == bounds._k_sys_heuristic(g, find_matching(g))
    assert heuristic == k_sys_search(load_graph(g.adjacency))
    assert bounds_report(g).search_exact is False
    assert k_sys_search(g, max_exact_s=13) == exact
    # a limit below the defaults changes nothing
    small = load_graph(ALL_MODES_ROWS)
    report = bounds_report(small)
    assert bounds_report(small, max_exact_s=0) == report
    assert (k_sys_search(small, max_exact_s=2)
            == Bound(report.k_sys, report.k_sys, report.witness_matching, "exhaustive"))


def test_one_limit_raises_each_default_and_never_lowers_it(tmp_path, capsys):
    # --max-exact-s L and max_exact_s=L are one rule: the exact k_sys search
    # runs up to s = max(L, 12), and below 12 the report is the default one
    rng = random.Random(2121)
    graphs = [load_graph(REF_ROWS)]
    for s in range(1, 15):
        while len(graphs) <= s:
            # above s = 10, dense and nearly square, so the exact search
            # soon meets its k_min floor
            g = (random_graph(rng, s, rng.randint(s, s + 3), density=0.95) if s > 10 else
                 random_graph(rng, s, rng.randint(s, s + 6), density=rng.choice([0.5, 0.8])))
            try:
                find_matching(g)
            except NoMatchingError:
                continue
            graphs.append(g)
    for index, g in enumerate(graphs):
        path = tmp_path / ("graph%d.json" % index)
        path.write_text(json.dumps(g.to_dict()))
        default = bounds_report(g)
        for limit in (None, 0, 2, 12, 13, 20, 21):
            flag = [] if limit is None else ["--max-exact-s", str(limit)]
            assert cli.main(["bounds", str(path)] + flag) == 0
            report = bounds_report(g, max_exact_s=limit)
            assert capsys.readouterr().out == json.dumps(report.to_dict(), indent=2) + "\n"
            if limit is None or limit <= 12:
                assert report == default
            exact = k_sys_search(g, max_exact_s=limit).exact
            assert exact is (g.s <= max(limit or 0, 12))
            assert report.search_exact is exact


def test_stored_results_leave_equality_hash_and_repr_alone(monkeypatch):
    g, fresh = load_graph(REF_ROWS), load_graph(REF_ROWS)
    before = (repr(g), hash(g))
    bounds_report(g)
    monkeypatch.setattr(bounds, "MATCHING_GUARD", 0)
    assert k_sys_search(g).exact is False  # stores the heuristic too
    assert g == fresh and len({g, fresh}) == 1
    assert (repr(g), hash(g)) == before == (repr(fresh), hash(fresh))
    assert g != load_graph(ALL_MODES_ROWS)


SEARCHES = {
    "matching": find_matching,
    "d_min": d_min_bound,
    "exact": k_sys_search,
    "heuristic": lambda g: bounds._k_sys_heuristic(g, find_matching(g)),
    "report": lambda g: bounds_report(g).to_dict(),
}


def answers(g, order):
    """Each search's result on g, or its NoMatchingError witness."""
    out = {}
    for name in order:
        try:
            out[name] = SEARCHES[name](g)
        except NoMatchingError as exc:
            out[name] = ("no matching", exc.witness)
    return out


def test_stored_results_equal_a_fresh_search():
    rng = random.Random(1013)
    violators = 0
    for _ in range(1000):
        g = random_graph(rng, *random_dims(rng, 6, 8),
                         density=rng.choice([0.2, 0.4, 0.7]))
        order = rng.sample(sorted(SEARCHES), len(SEARCHES))
        first, second = answers(g, order), answers(g, order[::-1])
        assert first == second == answers(ConstraintGraph(g.adjacency), sorted(SEARCHES))
        violators += first["matching"][0] == "no matching"
    assert violators >= 50  # the NoMatchingError path is exercised, not just stated


def test_one_graph_runs_each_search_once(monkeypatch):
    searched = {}

    def counting(module, name):
        search = getattr(module, name)

        def counted(g, *args):
            searched.setdefault(name, []).append(g)
            return search(g, *args)

        monkeypatch.setattr(module, name, counted)

    counting(graph, "_hall_matching")
    counting(bounds, "min_surplus")
    counting(bounds, "_k_sys_exact")
    g, gf = load_graph(ALL_MODES_ROWS), GF(7)
    report = bounds_report(g)
    systematic_dsys(g, gf)
    systematic_dmin(g, gf)  # also matches a graph of its own, with columns held back
    generic_subcode(g, gf)
    rs_nullspace_construct(g, gf)
    gen = generator_matrix(RSCode(gf, default_defining_set(gf, g.n), report.k_sys))
    mds_nullspace_construct(g, gf, gen)
    assert searched["min_surplus"] == [g]
    assert searched["_k_sys_exact"] == [g]
    assert [h for h in searched["_hall_matching"] if h is g] == [g]
