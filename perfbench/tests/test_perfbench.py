"""Tests of the benchmark itself, on tiny workloads.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

workloads = run.import_package()

ROOT = BENCH.parent


def tiny(name):
    if name == "design-small":
        return workloads.DesignSmall(pairs=((1, 1), (2, 3), (3, 9)), pool=2)
    if name == "design-large":
        return workloads.DesignLarge(sizes=(13, 14), pool=2, deadline_s=5.0)
    if name == "decode-stream":
        return workloads.DecodeStream(codes=((31, 31, 1, workloads.DELIVERIES),))
    return workloads.Cli()


def result_of(capsys, wl, tmp_path, trace, seed=3):
    code = run.run(wl, seed, 0.01, trace, tmp_path)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), json.loads(lines[-2])


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in benchmark_spec()["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", ["design-small", "design-large", "decode-stream", "cli"])
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric_with_its_unit(capsys, tmp_path, name, trace):
    code, result, detail = result_of(capsys, tiny(name), tmp_path, trace)
    spec = benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["env"]["seed"] == 3 and detail["env"]["check_seed"] == run.CHECK_SEED
    assert (tmp_path / "results.jsonl").is_file()


def test_traced_run_splits_time_by_layer(capsys, tmp_path):
    _, result, detail = result_of(capsys, tiny("decode-stream"), tmp_path, True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["rs.decode.calls"] > 0 and m["field.mul.calls"] > 0
    assert m["rs.self_s"] + m["linalg.self_s"] > m["verify.self_s"]
    spans = json.loads(Path(detail["spans_file"]).read_text())
    assert spans["fields"] == ["name", "start", "end", "parent"]
    assert all(s[2] >= s[1] for s in spans["spans"])


def test_wrong_answer_counts_as_failed_and_exits_nonzero(capsys, tmp_path, monkeypatch):
    def garbled(spec, received, erasures=()):
        return [0] * spec.s

    monkeypatch.setattr(workloads, "subcode_decode", garbled)
    code, result, detail = result_of(capsys, tiny("decode-stream"), tmp_path, False)
    assert code == 1 and result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert detail["failed_share"] > 0


def test_wrong_bounds_witness_fails_the_golden_check(capsys, tmp_path, monkeypatch):
    real = workloads.bounds_report

    def shifted(g):
        rep = real(g)
        rep.witness_subset = tuple(reversed(rep.witness_subset)) + (0,)
        return rep

    monkeypatch.setattr(workloads, "bounds_report", shifted)
    code, result, _ = result_of(capsys, tiny("design-small"), tmp_path, False)
    assert code == 1 and result["failed"] > 0


def test_missing_golden_answer_fails_the_op(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "load_golden", lambda: {"design-small": {}})
    code, result, _ = result_of(capsys, tiny("design-small"), tmp_path, False)
    assert code == 1 and result["failed"] == result["attempted"]


def test_deadline_miss_counts_as_failed(capsys, tmp_path, monkeypatch):
    real = workloads.bounds_report

    def slow(g):
        time.sleep(0.2)
        return real(g)

    monkeypatch.setattr(workloads, "bounds_report", slow)
    wl = workloads.DesignLarge(sizes=(8,), pool=1, deadline_s=0.05)
    code, result, detail = result_of(capsys, wl, tmp_path, False)
    assert result["correct"] is True and code == 0
    assert result["failed"] == result["attempted"] == 4
    assert detail["failed_share"] == 1.0


def test_tail_leaves_ten_samples_beyond():
    lat = [float(i) for i in range(100)]
    value, pct = run.tail(lat)
    assert value == 89.0 and pct == 90.0
    assert sum(x > value for x in lat) == 10


def test_speed_probe_scales_by_the_nearest_probes():
    probe = run.SpeedProbe("python")
    probe.starts = [float(i) for i in range(8)]
    probe.samples = [0.01] * 5 + [0.02] * 3
    assert probe.scale_at(0.0) == pytest.approx(probe.nominal_s / 0.01)
    assert probe.scale_at(7.5) == pytest.approx(probe.nominal_s / 0.02)


def test_compare_marks_wide_spread_unresolved(capsys, tmp_path):
    def write(path, values):
        with open(path, "w") as fh:
            for v in values:
                fh.write(json.dumps({"workload": "cli", "trace": False, "attempted": 10,
                                     "failed": 0, "metrics": {
                                         "ops_per_s": {"value": v, "unit": "1/s"}}}) + "\n")

    write(tmp_path / "a.jsonl", [10.0, 10.1, 9.9, 10.0])
    write(tmp_path / "b.jsonl", [5.0, 15.0, 9.0, 11.0])
    run.compare([tmp_path / "a.jsonl", tmp_path / "b.jsonl"])
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if "ops_per_s" in l)
    assert "unresolved" in line and "ratio=" in line
    run.compare([tmp_path / "a.jsonl", tmp_path / "a.jsonl"])
    line = next(l for l in capsys.readouterr().out.splitlines() if "ops_per_s" in l)
    assert "within-bound" in line


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
