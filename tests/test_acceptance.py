"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import functools
import itertools
import json
import random
import time

import pytest

from conftest import REF_G, REF_MATCHED, REF_ROWS, REF_T, random_graph
from graphcodes import cli
from graphcodes.bounds import bounds_report, d_min_bound
from graphcodes.construct import (generic_subcode, mds_nullspace_construct,
                                  systematic_columns_ok, systematic_dmin,
                                  systematic_dsys, validity_check)
from graphcodes.errors import NoMatchingError
from graphcodes.field import GF, smallest_prime_at_least
from graphcodes.graph import ConstraintGraph, matched_adjacency
from graphcodes.rs import (RSCode, decode, default_defining_set, encode,
                           generator_matrix)
from graphcodes.verify import (min_distance_exhaustive, subcode_decode,
                               subcode_encode, verdict, verification_report)
from scalar_linalg import rank


def criterion(name, limit=None):
    """Print one PASS/FAIL line per criterion; enforce the runtime budget."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("ACCEPTANCE %s: FAIL" % name)
                raise
            elapsed = time.perf_counter() - t0
            if limit is not None and elapsed >= limit:
                print("ACCEPTANCE %s: FAIL (%.2fs exceeded the %ds budget)"
                      % (name, elapsed, limit))
                raise AssertionError("%s exceeded the %ds budget: %.2fs"
                                     % (name, limit, elapsed))
            print("ACCEPTANCE %s: PASS (%.2fs)" % (name, elapsed))
        return wrapper
    return deco


def _distance(G, gf):
    return min_distance_exhaustive(G, gf).value


def _audit(g, spec):
    """spec's exhaustive distance, and the problems ``verdict`` finds with it."""
    report = verification_report(spec, g)
    return report["distance"], verdict(spec, report)


@pytest.fixture(scope="module")
def corpus():
    """1000 random graphs (s <= 5, n <= 9) with reports, specs and distances."""
    rng = random.Random(0xACCE97)
    fields = {}
    densities = [0.35, 0.55, 0.75, 0.9]
    entries = []
    t0 = time.perf_counter()
    for idx in range(1000):
        s = rng.randint(1, 5)
        n = rng.randint(s, 9)
        g = random_graph(rng, s, n, densities[idx % 4])
        q = smallest_prime_at_least(n)
        gf = fields.setdefault(q, GF(q))
        entry = {"g": g, "gf": gf, "d_min": d_min_bound(g).value}
        try:
            entry["report"] = bounds_report(g)
        except NoMatchingError:
            entry["report"] = None
        spec = generic_subcode(g, gf)
        entry["generic"] = spec
        entry["generic_distance"], entry["generic_verdict"] = _audit(g, spec)
        entry["generic_rank"] = rank(gf, spec.G)
        if entry["report"] is not None:
            dsys = systematic_dsys(g, gf)
            entry["dsys"] = dsys
            entry["dsys_distance"], entry["dsys_verdict"] = _audit(g, dsys)
            gen = generator_matrix(RSCode(gf, dsys.rs.nodes, dsys.rs.k))
            mds = mds_nullspace_construct(g, gf, gen, systematic=True,
                                          matching=dsys.matching)
            entry["mds"] = mds
            entry["mds_distance"], entry["mds_verdict"] = _audit(g, mds)
            if entry["report"].thm2_feasible:
                dmin_spec = systematic_dmin(g, gf)
                entry["dmin"] = dmin_spec
                entry["dmin_distance"], entry["dmin_verdict"] = _audit(g, dmin_spec)
        entries.append(entry)
    return {"entries": entries, "elapsed": time.perf_counter() - t0}


@criterion("1 (reference bounds)", limit=1.0)
def test_criterion_1_reference_bounds(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"s": 3, "n": 7,
                                "adjacency": [list(r) for r in REF_ROWS]}))
    code = cli.main(["bounds", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["d_min"] == 5
    assert payload["d_sys"] == 4


@criterion("2 (reference construction)", limit=1.0)
def test_criterion_2_reference_construction(capsys):
    g = ConstraintGraph(REF_ROWS)
    spec = systematic_dsys(g, GF(7))
    assert matched_adjacency(g, spec.matching) == REF_MATCHED
    assert tuple(tuple(r) for r in spec.T) == REF_T
    assert tuple(tuple(r) for r in spec.G) == REF_G

    code = cli.main(["demo-paper-example"])
    out = capsys.readouterr().out
    assert code == 0
    assert "generator matrix matches the built-in reference: OK" in out


@criterion("3 (distance achievability)", limit=10.0)
def test_criterion_3_distance_achievability():
    gf7 = GF(7)
    assert _distance([list(r) for r in REF_G], gf7) == 4
    assert _distance(systematic_dsys(ConstraintGraph(REF_ROWS), gf7).G, gf7) == 4
    for s in range(1, 5):
        for n in range(s, 10):
            g = ConstraintGraph([[1] * n for _ in range(s)])
            gf = GF(smallest_prime_at_least(n))
            spec = systematic_dmin(g, gf)
            assert _distance(spec.G, gf) == n - s + 1
            assert systematic_columns_ok(spec.G, spec.matching)


@criterion("4 (bound soundness sweep)")
def test_criterion_4_bound_soundness_sweep(corpus):
    entries = corpus["entries"]
    assert len(entries) >= 1000
    for e in entries:
        g, gf, d_min = e["g"], e["gf"], e["d_min"]
        # every mode's code passes verify's verdict: pattern, identity, claim
        verdicts = {key: e[key + "_verdict"] for key in ("generic", "dmin", "dsys", "mds")
                    if key in e}
        assert verdicts == dict.fromkeys(verdicts, [])
        assert validity_check(g, e["generic"].G)
        assert e["generic_distance"] >= g.n - e["generic"].rs.k + 1
        if e["generic_rank"] == g.s:
            # the subset bound applies only to full-dimension codes
            assert e["generic_distance"] <= d_min
        rep = e["report"]
        if rep is None:
            continue
        assert rep.search_exact
        assert g.s <= rep.k_min <= rep.k_sys <= g.n
        assert rep.d_sys <= rep.d_min == d_min
        for key in ("dsys", "mds") + (("dmin",) if "dmin" in e else ()):
            spec = e[key]
            assert validity_check(g, spec.G)
            assert systematic_columns_ok(spec.G, spec.matching)
            assert e[key + "_distance"] <= d_min
        assert e["dsys_distance"] == rep.d_sys
        assert e["mds_distance"] == rep.d_sys
    assert corpus["elapsed"] < 300, "corpus sweep took %.1fs" % corpus["elapsed"]
    print("corpus: %d graphs in %.1fs" % (len(entries), corpus["elapsed"]))


@criterion("5 (conditional achievability)")
def test_criterion_5_thm2_conditional_achievability(corpus):
    feasible = [e for e in corpus["entries"]
                if e["report"] is not None and e["report"].thm2_feasible]
    assert feasible, "corpus contains no feasible instances"
    for e in feasible:
        assert "dmin" in e, "construction unexpectedly failed on a feasible graph"
        assert e["dmin_distance"] == e["report"].d_min
    print("feasible instances checked: %d" % len(feasible))


@criterion("6 (RS layer)")
def test_criterion_6_rs_layer():
    for q in (7, 11, 13):
        gf = GF(q)
        nodes = default_defining_set(gf, q)
        for k in range(1, 5):
            gen = generator_matrix(RSCode(gf, nodes, k))
            assert _distance(gen, gf) == q - k + 1

    # exhaustive error patterns of weight <= min(t, 2) at n = 7
    gf = GF(7)
    nodes = default_defining_set(gf, 7)
    rng = random.Random(616)
    for k in range(1, 6):
        code = RSCode(gf, nodes, k)
        t = (7 - k) // 2
        for msg in ([0] * k, [rng.randrange(7) for _ in range(k)]):
            cw = encode(code, msg)
            for w in range(0, min(t, 2) + 1):
                for positions in itertools.combinations(range(7), w):
                    for values in itertools.product(range(1, 7), repeat=w):
                        received = list(cw)
                        for j, v in zip(positions, values):
                            received[j] = gf.add(received[j], v)
                        got, _ = decode(code, received)
                        assert got == list(msg)

    # randomized trials at q = 11, 13
    failures = 0
    trials = 0
    for q in (11, 13):
        gf = GF(q)
        nodes = default_defining_set(gf, q)
        rng = random.Random(q * 1000)
        for _ in range(5000):
            k = rng.randint(1, q - 1)
            code = RSCode(gf, nodes, k)
            t = (q - k) // 2
            msg = [rng.randrange(q) for _ in range(k)]
            received = list(encode(code, msg))
            for j in rng.sample(range(q), rng.randint(0, t)):
                received[j] = gf.add(received[j], rng.randrange(1, q))
            trials += 1
            got, _ = decode(code, received)
            if got != msg:
                failures += 1
    assert trials >= 10 ** 4
    assert failures == 0


@criterion("7 (MDS-backend equivalence)")
def test_criterion_7_mds_backend_equivalence(corpus):
    matched_entries = [e for e in corpus["entries"] if e["report"] is not None]
    assert len(matched_entries) >= 100
    for e in matched_entries:
        base, alt = e["dsys"], e["mds"]
        gf = e["gf"]
        assert ([[v == 0 for v in row] for row in alt.G]
                == [[v == 0 for v in row] for row in base.G])
        assert rank(gf, alt.G) == rank(gf, base.G) == e["g"].s
        assert alt.matching == base.matching
        assert systematic_columns_ok(alt.G, alt.matching)
        assert e["mds_distance"] == e["dsys_distance"]
    print("equivalence instances checked: %d" % len(matched_entries))


@criterion("8 (decoder round-trip)", limit=30.0)
def test_criterion_8_decoder_roundtrip():
    g = ConstraintGraph(REF_ROWS)
    gf = GF(7)
    spec = systematic_dsys(g, gf)
    n = spec.n
    messages = list(itertools.product(range(7), repeat=3))
    assert len(messages) == 343

    for m in messages:
        cw = subcode_encode(spec, list(m))
        for j in range(n):
            for delta in range(1, 7):
                received = list(cw)
                received[j] = gf.add(received[j], delta)
                assert subcode_decode(spec, received) == list(m)

    erasure_patterns = list(itertools.combinations(range(n), 3))
    assert len(erasure_patterns) == 35
    for m in messages:
        cw = subcode_encode(spec, list(m))
        for erased in erasure_patterns:
            received = [0 if j in erased else cw[j] for j in range(n)]
            assert subcode_decode(spec, received, erasures=erased) == list(m)
