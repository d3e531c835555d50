import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import REF_G, REF_ROWS
import graphcodes
from graphcodes import bounds, cli, rs
from graphcodes.construct import MODES, CodeSpec, systematic_dsys
from graphcodes.field import GF
from graphcodes.graph import ConstraintGraph


def _write_graph(tmp_path, rows, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"s": len(rows), "n": len(rows[0]),
                                "adjacency": [list(r) for r in rows]}))
    return str(path)


@pytest.fixture
def ref_graph_file(tmp_path):
    return _write_graph(tmp_path, REF_ROWS)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_reference(ref_graph_file, capsys):
    code, out, _ = _run(capsys, ["bounds", ref_graph_file])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "d_min": 5, "k_min": 3, "d_sys": 4, "k_sys": 4, "exact": True,
        "witness_subset": [0], "witness_matching": [0, 1, 2],
        "a": 3, "r_M": 4, "thm2_feasible": False,
    }


def test_bounds_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = _run(capsys, ["bounds", str(path)])
    assert code == 1
    assert "cannot read graph file" in err


@pytest.mark.parametrize("adjacency", [[[0.6, 1, 1], [1, 1, 0.2]], [[1, 1, 1], [1, 1, 1.0]],
                                       [[1, 1, 1], [1, 1, "1"]], [[1, 1, 1], [1, 1, True]]],
                         ids=["0.6", "1.0", "string", "true"])
def test_graph_file_with_non_integer_entry_is_refused(tmp_path, capsys, adjacency):
    # int() used to read 0.6 as 0 and "1" or a true as 1, and print the
    # bounds of another graph
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"adjacency": adjacency}))
    code, out, err = _run(capsys, ["bounds", str(path)])
    assert code == 1 and out == ""
    assert "cannot read graph file" in err and "must be 0 or 1" in err


@pytest.mark.parametrize("adjacency", [5, [[1, 1], 7]], ids=["number", "number-row"])
def test_graph_file_whose_adjacency_is_not_a_list_of_rows_is_refused(tmp_path, capsys,
                                                                     adjacency):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"adjacency": adjacency}))
    code, out, err = _run(capsys, ["bounds", str(path)])
    assert code == 1 and out == ""
    assert "cannot read graph file" in err and "must be a list of" in err


def test_bounds_guard_exceeded(tmp_path, capsys):
    rows = [[1] * 21 for _ in range(21)]
    code, _, err = _run(capsys, ["bounds", _write_graph(tmp_path, rows)])
    assert code == 3
    assert "--max-exact-s" in err


def test_construct_guard_exceeded_names_the_flag(tmp_path, capsys):
    rows = [[1] * 21 for _ in range(21)]
    code, _, err = _run(capsys, ["construct", _write_graph(tmp_path, rows),
                                 "--mode", "systematic-dmin", "--p", "23"])
    assert code == 3
    assert "--max-exact-s" in err


def test_guards_without_the_flag_give_no_hint(tmp_path, capsys, monkeypatch):
    # 11^7 codewords are over the distance oracle's guard of 2^24
    rows = [[1 if j == i or j >= 7 or j == (i + 1) % 7 else 0 for j in range(10)]
            for i in range(7)]
    graph = _write_graph(tmp_path, rows)
    spec_file = tmp_path / "code.json"
    spec_file.write_text(json.dumps(systematic_dsys(ConstraintGraph(rows), GF(11)).to_dict()))
    code, _, err = _run(capsys, ["verify", str(spec_file), graph])
    assert code == 3
    assert "exceeds the guard" in err and "--max-exact-s" not in err
    monkeypatch.setattr(rs, "TABLE_BYTES_GUARD", 0)
    code, _, err = _run(capsys, ["decode", str(spec_file), ",".join(["0"] * 10)])
    assert code == 3
    assert "decode tables" in err and "--max-exact-s" not in err


def test_construct_verify_roundtrip(ref_graph_file, tmp_path, capsys):
    out_file = tmp_path / "code.json"
    code, _, err = _run(capsys, [
        "construct", ref_graph_file, "--mode", "systematic-dsys",
        "--p", "7", "--alpha", "3", "--out", str(out_file)])
    assert code == 0
    assert "claimed_distance=4 (exact)" in err
    payload = json.loads(out_file.read_text())
    assert payload["G"] == [list(r) for r in REF_G]
    assert payload["matching"] == [0, 1, 2]
    assert payload["field"] == {"p": 7, "m": 1, "poly": None, "alpha": 3}
    assert payload["defining_set"] == [0, 1, 3, 2, 6, 4, 5]

    code, out, _ = _run(capsys, ["verify", str(out_file), ref_graph_file])
    assert code == 0
    report = json.loads(out)
    assert report == {"distance": 4, "witness_message": [0, 1, 0],
                      "rank_G": 3, "rank_T": 3,
                      "valid_pattern": True, "systematic": True}


def test_construct_default_field_is_smallest_prime(tmp_path, capsys):
    rows = [[1] * 8 for _ in range(2)]
    code, out, _ = _run(capsys, ["construct", _write_graph(tmp_path, rows)])
    assert code == 0
    assert json.loads(out)["field"]["p"] == 11


def test_construct_infeasible_dmin(ref_graph_file, capsys):
    code, _, err = _run(capsys, ["construct", ref_graph_file,
                                 "--mode", "systematic-dmin"])
    assert code == 2
    assert "systematic-dsys" in err


def test_construct_field_too_small(ref_graph_file, capsys):
    code, _, err = _run(capsys, ["construct", ref_graph_file, "--p", "5"])
    assert code == 1
    assert "smaller than" in err


@pytest.mark.parametrize("argv, exit_code, message", [
    (["--mode", "generic", "--k", "2"], 2, "RS dimension is only 2"),
    (["--mode", "mds-nullspace", "--k", "3"], 2, "RS dimension is only 3"),
    (["--mode", "generic", "--k", "8"], 1, "k must lie in"),
    (["--p", "5"], 1, "smaller than"),
])
def test_construct_refuses_what_the_rows_or_field_cannot_hold(ref_graph_file, capsys, argv,
                                                              exit_code, message):
    # a k at or below a row's zero count is an infeasible construction (2) in
    # every mode that takes --k; a k above n or a field below n is a usage error
    code, out, err = _run(capsys, ["construct", ref_graph_file] + argv)
    assert code == exit_code and out == ""
    assert message in err


@pytest.mark.parametrize("mode", [[], ["--mode", "systematic-dsys"],
                                  ["--mode", "systematic-dmin"]])
def test_construct_refuses_k_for_modes_that_fix_it(ref_graph_file, tmp_path, capsys, mode):
    out_file = tmp_path / "code.json"
    code, _, err = _run(capsys, ["construct", ref_graph_file, "--k", "6",
                                 "--out", str(out_file)] + mode)
    assert code == 1 and not out_file.exists()
    assert "--mode generic" in err and "--mode mds-nullspace" in err


def test_construct_generic_and_verify_floor(ref_graph_file, tmp_path, capsys):
    out_file = tmp_path / "generic.json"
    code, _, _ = _run(capsys, ["construct", ref_graph_file, "--mode", "generic",
                               "--p", "7", "--k", "4", "--out", str(out_file)])
    assert code == 0
    code, out, _ = _run(capsys, ["verify", str(out_file), ref_graph_file])
    assert code == 0
    assert json.loads(out)["distance"] >= 4


def test_construct_mds_mode(ref_graph_file, tmp_path, capsys):
    out_file = tmp_path / "mds.json"
    code, _, _ = _run(capsys, ["construct", ref_graph_file, "--mode",
                               "mds-nullspace", "--p", "7", "--out", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["mode"] == "mds-nullspace"
    code, out, _ = _run(capsys, ["verify", str(out_file), ref_graph_file])
    assert code == 0
    assert json.loads(out)["distance"] == 4

    code, _, err = _run(capsys, ["construct", ref_graph_file, "--mode",
                                 "mds-nullspace", "--p", "7", "--k", "3"])
    assert code == 2  # below the systematic minimum


def test_construct_mds_mode_runs_one_exact_search(ref_graph_file, tmp_path, capsys, monkeypatch):
    calls = []
    search = bounds._k_sys_exact

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(bounds, "_k_sys_exact", counted)
    code, out, err = _run(capsys, ["construct", ref_graph_file, "--mode", "mds-nullspace",
                                   "--p", "7"])
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["matching"] == [0, 1, 2]
    assert "claimed_distance=4 (exact)" in err


def test_verify_refuses_non_boolean_distance_exact(ref_graph_file, tmp_path, capsys):
    out_file = tmp_path / "code.json"
    _run(capsys, ["construct", ref_graph_file, "--p", "7", "--out", str(out_file)])
    payload = json.loads(out_file.read_text())
    payload["distance_exact"] = "no"
    out_file.write_text(json.dumps(payload))
    code, out, err = _run(capsys, ["verify", str(out_file), ref_graph_file])
    assert code == 1 and out == ""
    assert "distance_exact" in err


def test_verify_flags_tampered_code(ref_graph_file, tmp_path, capsys):
    out_file = tmp_path / "code.json"
    _run(capsys, ["construct", ref_graph_file, "--p", "7", "--out", str(out_file)])
    payload = json.loads(out_file.read_text())
    payload["G"][0][1] = 1  # structural zero violated
    out_file.write_text(json.dumps(payload))
    code, out, err = _run(capsys, ["verify", str(out_file), ref_graph_file])
    assert code == 4
    assert json.loads(out)["valid_pattern"] is False
    assert "zero pattern" in err


def _verify_edited(ref_graph_file, tmp_path, capsys, edit):
    """``verify`` of the systematic-dsys code over GF(7), its file edited."""
    out_file = tmp_path / "code.json"
    _run(capsys, ["construct", ref_graph_file, "--p", "7", "--out", str(out_file)])
    payload = json.loads(out_file.read_text())
    edit(payload)
    out_file.write_text(json.dumps(payload))
    return _run(capsys, ["verify", str(out_file), ref_graph_file])


@pytest.mark.parametrize("claimed, exact, problem", [
    (3, False, None),
    (5, True, "distance 4 outside the claimed [5, 5]"),
    (3, True, "distance 4 outside the claimed [3, 3]"),
    (5, False, "distance 4 outside the claimed [5, 7]"),
])
def test_verify_holds_the_distance_to_its_claim(ref_graph_file, tmp_path, capsys,
                                                claimed, exact, problem):
    code, out, err = _verify_edited(
        ref_graph_file, tmp_path, capsys,
        lambda payload: payload.update(claimed_distance=claimed, distance_exact=exact))
    assert json.loads(out)["distance"] == 4
    if problem is None:
        assert (code, err) == (0, "")
    else:
        assert (code, err) == (4, "MISMATCH: %s\n" % problem)


def test_verify_flags_matched_columns_that_are_no_identity(ref_graph_file, tmp_path, capsys):
    def scale_row_0(payload):  # G = T . G_RS still holds, with the same zeros
        for key in ("T", "G"):
            payload[key][0] = [2 * v % 7 for v in payload[key][0]]

    code, out, err = _verify_edited(ref_graph_file, tmp_path, capsys, scale_row_0)
    report = json.loads(out)
    assert report["valid_pattern"] and not report["systematic"] and report["distance"] == 4
    assert (code, err) == (4, "MISMATCH: matched columns do not form an identity\n")


def test_code_file_with_g_rescaled_from_t_is_refused(ref_graph_file, tmp_path, capsys):
    out_file = tmp_path / "code.json"
    _run(capsys, ["construct", ref_graph_file, "--p", "7", "--out", str(out_file)])
    payload = json.loads(out_file.read_text())
    col = payload["matching"][0]
    payload["G"][0] = [v if j == col else 3 * v % 7 for j, v in enumerate(payload["G"][0])]
    out_file.write_text(json.dumps(payload))
    # the clean codeword of [2, 5, 1] under the file's G used to decode to [6, 5, 1]
    G = payload["G"]
    codeword = [(2 * a + 5 * b + c) % 7 for a, b, c in zip(*G)]
    code, out, err = _run(capsys, ["decode", str(out_file), ",".join(map(str, codeword))])
    assert code == 1 and out == ""
    assert "T . G_RS" in err
    code, out, err = _run(capsys, ["verify", str(out_file), ref_graph_file])
    assert code == 4
    assert json.loads(out)["valid_pattern"] is True
    assert "MISMATCH: G differs from T . G_RS" in err


def test_verify_of_a_mismatched_file_reports_the_rank_of_its_own_t(
        ref_graph_file, tmp_path, capsys):
    # G keeps full rank, but T repeats a row: only T's elimination can tell
    out_file = tmp_path / "code.json"
    _run(capsys, ["construct", ref_graph_file, "--p", "7", "--out", str(out_file)])
    payload = json.loads(out_file.read_text())
    payload["T"][1] = payload["T"][0]
    out_file.write_text(json.dumps(payload))
    code, out, err = _run(capsys, ["verify", str(out_file), ref_graph_file])
    assert code == 4
    assert "MISMATCH: G differs from T . G_RS in rows [1]" in err
    report = json.loads(out)
    assert (report["rank_G"], report["rank_T"]) == (3, 2)


def test_code_file_with_bad_matching_is_refused(ref_graph_file, tmp_path, capsys):
    out_file = tmp_path / "code.json"
    _run(capsys, ["construct", ref_graph_file, "--p", "7", "--out", str(out_file)])
    payload = json.loads(out_file.read_text())
    payload["matching"], payload["claimed_distance"] = [9, 9, 9], 99
    out_file.write_text(json.dumps(payload))
    for argv in (["decode", str(out_file), "1,0,0,2,5,1,5"],
                 ["verify", str(out_file), ref_graph_file]):
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert "matching must be 3 distinct columns in [0, 7)" in err


@pytest.mark.parametrize("part, value", [
    ("T", 1.5), ("G", 1.0), ("G", "1"), ("defining_set", 1.0), ("k", 4.0), ("k", "4"),
])
def test_code_file_with_non_integer_entry_is_refused(ref_graph_file, tmp_path, capsys,
                                                      part, value):
    # a float used to load and fail later with IndexError or TypeError
    out_file = tmp_path / "code.json"
    _run(capsys, ["construct", ref_graph_file, "--p", "7", "--out", str(out_file)])
    payload = json.loads(out_file.read_text())
    if part == "k":
        payload["k"] = value
    elif part == "defining_set":
        payload["defining_set"][1] = value
    else:
        payload[part][0][0] = value
    out_file.write_text(json.dumps(payload))
    for argv in (["encode", str(out_file), "1,0,0"],
                 ["decode", str(out_file), "1,0,0,2,5,1,5"],
                 ["verify", str(out_file), ref_graph_file]):
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert "cannot read code file" in err and "Traceback" not in err


def test_code_file_with_float_alpha_is_refused(ref_graph_file, tmp_path, capsys):
    out_file = tmp_path / "code.json"
    _run(capsys, ["construct", ref_graph_file, "--p", "7", "--alpha", "3",
                  "--out", str(out_file)])
    payload = json.loads(out_file.read_text())
    payload["field"]["alpha"] = 3.0
    out_file.write_text(json.dumps(payload))
    code, out, err = _run(capsys, ["verify", str(out_file), ref_graph_file])
    assert code == 1 and out == ""
    assert "3.0 is not a primitive element of GF(7)" in err


@pytest.mark.parametrize("key, value, message", [
    ("m", True, "extension degree must be an integer >= 1, got True"),
    ("p", 7.0, "p must be a prime integer, got 7.0"),
])
def test_code_file_with_non_integer_field_is_refused(ref_graph_file, tmp_path, capsys,
                                                     key, value, message):
    out_file = tmp_path / "code.json"
    _run(capsys, ["construct", ref_graph_file, "--p", "7", "--alpha", "3",
                  "--out", str(out_file)])
    payload = json.loads(out_file.read_text())
    payload["field"][key] = value
    out_file.write_text(json.dumps(payload))
    code, out, err = _run(capsys, ["verify", str(out_file), ref_graph_file])
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("poly", [[True, True, False, True], [1, 1, 0, 1.0]],
                         ids=["true", "1.0"])
def test_code_file_with_non_integer_reduction_poly_is_refused(ref_graph_file, tmp_path,
                                                               capsys, poly):
    # a poly of JSON trues used to load as GF(2^3), and a 1.0 raised TypeError
    out_file = tmp_path / "code.json"
    _run(capsys, ["construct", ref_graph_file, "--p", "2", "--m", "3", "--out", str(out_file)])
    payload = json.loads(out_file.read_text())
    assert payload["field"]["poly"] == [1, 1, 0, 1]
    payload["field"]["poly"] = poly
    with pytest.raises(ValueError, match="reduction polynomial coefficients must be 0/1"):
        CodeSpec.from_dict(payload)
    out_file.write_text(json.dumps(payload))
    code, out, err = _run(capsys, ["verify", str(out_file), ref_graph_file])
    assert code == 1 and out == ""
    assert "cannot read code file" in err and "must be 0/1" in err


def test_encode_decode_paths(ref_graph_file, tmp_path, capsys):
    out_file = tmp_path / "code.json"
    _run(capsys, ["construct", ref_graph_file, "--p", "7", "--alpha", "3",
                  "--out", str(out_file)])

    code, out, _ = _run(capsys, ["encode", str(out_file), "1,0,0"])
    assert code == 0
    assert json.loads(out) == [1, 0, 0, 2, 5, 1, 5]

    code, out, _ = _run(capsys, ["decode", str(out_file), "1,0,0,2,5,1,6"])
    assert code == 0
    assert json.loads(out) == [1, 0, 0]

    code, out, _ = _run(capsys, ["decode", str(out_file), "1,0,0,0,5,0,5",
                                 "--erasures", "3,5"])
    assert code == 0
    assert json.loads(out) == [1, 0, 0]

    # two errors exceed the radius of the [7, 4] layer and cannot be decoded
    code, _, err = _run(capsys, ["decode", str(out_file), "1,0,0,2,5,4,6"])
    assert code == 4

    code, _, err = _run(capsys, ["encode", str(out_file), "1,0"])
    assert code == 1


def test_construct_defining_set_override(ref_graph_file, tmp_path, capsys):
    out_file = tmp_path / "custom.json"
    code, _, _ = _run(capsys, ["construct", ref_graph_file, "--p", "7",
                               "--defining-set", "6,5,4,3,2,1,0",
                               "--out", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["defining_set"] == [6, 5, 4, 3, 2, 1, 0]
    code, out, _ = _run(capsys, ["verify", str(out_file), ref_graph_file])
    assert code == 0
    assert json.loads(out)["distance"] == 4

    for mode in MODES:
        code, _, err = _run(capsys, ["construct", ref_graph_file, "--p", "7", "--mode", mode,
                                     "--defining-set", "0,1,2"])
        assert code == 1
        assert "defining set must have 7 elements" in err


def test_demo_reference(capsys):
    code, out, _ = _run(capsys, ["demo-paper-example"])
    assert code == 0
    assert "generator matrix matches the built-in reference: OK" in out
    assert "[1, 0, 0, 2, 5, 1, 5]" in out


def test_demo_alternate_alpha_reports_mismatch(capsys):
    code, out, _ = _run(capsys, ["demo-paper-example", "--alpha", "5"])
    assert code == 4
    assert "MISMATCH" in out


def test_demo_other_field_skips_comparison(capsys):
    code, out, _ = _run(capsys, ["demo-paper-example", "--p", "11"])
    assert code == 0
    assert "reference comparison skipped" in out


def test_max_exact_s_never_lowers_a_guard(ref_graph_file, capsys):
    # below the defaults (20 subsets, 12 matchings) the flag changes nothing:
    # bounds stays within its guard and construct keeps its exact claim
    for command in ("bounds", "construct"):
        plain = _run(capsys, [command, ref_graph_file])
        assert plain[0] == 0
        assert _run(capsys, [command, ref_graph_file, "--max-exact-s", "2"]) == plain


def _fresh_python(script, *args):
    """Run `script` in a new interpreter that imports this copy of graphcodes;
    return its stdout and stderr."""
    env = dict(os.environ)
    src = str(Path(graphcodes.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr


# the last stderr line of a script that ends with it: the array packages loaded
_REPORT_LOADED = """
import json, sys
print(json.dumps(sorted(m for m in ("numpy", "scipy") if m in sys.modules)), file=sys.stderr)
"""


def _loaded(stderr):
    return json.loads(stderr.splitlines()[-1])


@pytest.mark.parametrize("statement", ["import graphcodes", "import graphcodes.bounds"])
def test_package_import_loads_no_numpy(statement):
    # the bounds layers are pure Python; numpy loads with the first
    # construction, verification or decode
    _, err = _fresh_python(statement + _REPORT_LOADED)
    assert _loaded(err) == []


def test_bounds_command_loads_no_numpy_and_construct_no_scipy(ref_graph_file, capsys):
    run_main = "import sys\nfrom graphcodes.cli import main\nassert main(sys.argv[1:]) == 0\n"
    for argv, absent in ((["bounds", ref_graph_file], ["numpy", "scipy"]),
                         (["construct", ref_graph_file], ["scipy"])):
        code, want, _ = _run(capsys, argv)
        assert code == 0
        out, err = _fresh_python(run_main + _REPORT_LOADED, *argv)
        assert out == want
        assert not set(absent) & set(_loaded(err)), argv[0]


_NAMESPACE_FACTS = """
import json, sys, types
import graphcodes
facts = {"unlisted_by_dir": sorted(set(graphcodes.__all__) - set(dir(graphcodes))),
         "held_before_use": sorted(n for n in ("CodeSpec", "RSCode", "subcode_decode")
                                   if n in vars(graphcodes))}
facts["not_home_object"] = sorted(
    n for n in graphcodes.__all__
    if getattr(sys.modules[getattr(graphcodes, n).__module__], n) is not getattr(graphcodes, n))
facts["not_held_after_use"] = sorted(n for n in graphcodes.__all__ if n not in vars(graphcodes))
star = {}
exec("from graphcodes import *", star)
facts["unbound_by_star"] = sorted(n for n in graphcodes.__all__
                                  if star.get(n) is not getattr(graphcodes, n))
from graphcodes import cli, rs
facts["submodules"] = [cli is sys.modules["graphcodes.cli"], rs is sys.modules["graphcodes.rs"]]
facts["unknown"] = "no error"
try:
    graphcodes.no_such_name
except AttributeError as exc:
    facts["unknown"] = str(exc)
print(json.dumps(facts))
"""


def test_package_namespace_resolves_every_name_on_first_use():
    out, _ = _fresh_python(_NAMESPACE_FACTS)
    facts = json.loads(out)
    assert facts["unlisted_by_dir"] == []
    assert facts["held_before_use"] == []
    assert facts["not_home_object"] == []
    assert facts["not_held_after_use"] == []
    assert facts["unbound_by_star"] == []
    assert facts["submodules"] == [True, True]
    assert "no_such_name" in facts["unknown"]
