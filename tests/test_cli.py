import json

import pytest

from conftest import REF_G, REF_ROWS
from graphcodes import bounds, cli, rs
from graphcodes.construct import MODES, systematic_dsys
from graphcodes.field import GF
from graphcodes.graph import load_graph


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
    spec_file.write_text(json.dumps(systematic_dsys(load_graph(rows), GF(11)).to_dict()))
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


def test_seed_flag_accepted(ref_graph_file, capsys):
    code, _, _ = _run(capsys, ["--seed", "7", "bounds", ref_graph_file])
    assert code == 0
