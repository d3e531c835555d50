"""graphcodes benchmark.

Run one workload and print its metrics; the last stdout line is the result:

    python3 perfbench/run.py --workload design-small --seed 1 --seconds 20 --trace 0

``--trace 0`` times ops with nothing instrumented and reports the end-to-end
metrics.  ``--trace 1`` runs the same ops untraced and then traced (set-up
included), and reports per-layer self time and counts plus the tracing
overhead.  The metrics printed, and their units, are those ``BENCHMARK.json``
lists.
Every run appends its full record (environment, failures, tail percentile)
to ``<out>/results.jsonl``; a traced run also writes its span log there.

Compare two sets of runs, per workload and metric:

    python3 perfbench/run.py --compare base/results.jsonl change/results.jsonl

The package is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

CHECK_SEED = 7919  # second seed on which a claimed gain must also hold
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # samples the tail percentile leaves above it
CLI_REPEATS = 5


class SetupError(Exception):
    pass


def load_spec() -> dict:
    """BENCHMARK.json: the metric names, units and bounds."""
    try:
        return json.loads(BENCHMARK_JSON.read_text())
    except (OSError, ValueError) as exc:
        raise SetupError("cannot read %s: %s" % (BENCHMARK_JSON, exc))


def import_package():
    """Import graphcodes from ROOT/src, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "graphcodes" / "__init__.py").is_file():
        raise SetupError("no graphcodes package under %s" % src)
    sys.path.insert(0, str(src))
    import graphcodes
    if Path(graphcodes.__file__).resolve().parent != (src / "graphcodes").resolve():
        raise SetupError("graphcodes imported from %s, not %s" % (graphcodes.__file__, src))
    import workloads
    return workloads


# -- environment ----------------------------------------------------------------

def git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a repo."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def package_version(name: str):
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "numpy": package_version("numpy"),
            "scipy": package_version("scipy"), "nproc": os.cpu_count(),
            "commit": git_commit(ROOT), "seed": seed, "check_seed": CHECK_SEED}


# -- running ops ------------------------------------------------------------------

@dataclass
class Tally:
    latencies: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (stratum, reason)
    wrong: int = 0
    missed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.wrong + self.missed


class _Field:
    """A log/antilog field of order 64, as the probe's arithmetic."""

    def __init__(self):
        self.exp = [(i * 37 + 5) % 63 + 1 for i in range(128)]
        self.log = [0] + [(i * 11) % 63 for i in range(1, 64)]

    def add(self, a, b):
        return a ^ b

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]


def python_loop() -> int:
    """Row-vector times matrix over a small field, in pure Python: the kind
    of loop the in-process workloads spend their time in."""
    gf = _Field()
    rows = [[(i * j + i) % 64 for j in range(9)] for i in range(4)]
    weight = 0
    for k in range(1000):
        out = [0] * 9
        for vi, row in zip((k % 64, (k >> 2) % 64, 5, 7), rows):
            for j, rj in enumerate(row):
                if rj:
                    out[j] = gf.add(out[j], gf.mul(vi, rj))
        weight += sum(1 for v in out if v)
    return weight


def interpreter_start() -> None:
    """A bare interpreter start, the floor of every CLI call."""
    from workloads import cli_env
    subprocess.run([sys.executable, "-c", "pass"], env=cli_env(), check=True,
                   capture_output=True, timeout=60)


# kind: (task, nominal seconds).  Times are reported as on a machine where the
# probe takes its nominal seconds.
PROBES = {"python": (python_loop, 0.01), "interpreter": (interpreter_start, 0.05)}
PROBE_GAP = 10  # a probe before any op starting this many nominal probe times after the last
PROBE_NEAREST = 5  # a time is scaled by the median of this many probes nearest to it


class SpeedProbe:
    """Times a fixed task, independent of graphcodes, between the timed ones.

    Other tenants of a shared machine slow everything it runs, by up to 2x for
    minutes at a time, so raw times from runs a few minutes apart differ by
    more than the bounds.  Times of a like kind of work move with the probe's,
    so scaling each time by the probes taken around it cancels most of that
    drift.  The collector is off during a probe, so the heap the workload
    holds cannot slow it.
    """

    def __init__(self, kind: str):
        self.task, self.nominal_s = PROBES[kind]
        self.starts: list = []
        self.samples: list = []
        self.spent_s = 0.0
        self.last = float("-inf")

    def take(self) -> None:
        gc.disable()
        start = perf_counter()
        try:
            self.task()
        finally:
            end = perf_counter()
            gc.enable()
        self.starts.append(start)
        self.samples.append(end - start)
        self.spent_s += end - start
        self.last = end

    def maybe(self) -> None:
        if perf_counter() - self.last >= PROBE_GAP * self.nominal_s:
            self.take()

    def scale_at(self, when: float) -> float:
        """Factor that turns a time measured at ``when`` into a nominal one."""
        at = bisect.bisect_left(self.starts, when)
        lo = max(0, min(at - PROBE_NEAREST // 2, len(self.samples) - PROBE_NEAREST))
        return self.nominal_s / statistics.median(self.samples[lo:lo + PROBE_NEAREST])


def run_items(wl, state, items, tally: Tally, tracer=None, probe=None) -> Tally:
    """Closed loop, one client: each op starts when the previous one ends."""
    from workloads import DeadlineMiss
    for item in items:
        if probe is not None:
            probe.maybe()
        start = perf_counter()
        out = exc = None
        try:
            if tracer is None:
                out = wl.call(state, item)
            else:
                with tracer.span("bench.op"):
                    out = wl.call(state, item)
        except (DeadlineMiss, subprocess.TimeoutExpired):
            exc = "deadline"
        except Exception as e:  # an unexpected exception is a failed op
            exc = "%s: %s" % (type(e).__name__, e)
        tally.latencies.append(perf_counter() - start)
        tally.starts.append(start)
        if exc == "deadline":
            tally.missed += 1
            tally.failures.append((item.stratum, "deadline miss"))
            continue
        if exc is None:
            if tracer is not None:
                with tracer.paused():
                    exc = wl.check(state, item, out)
            else:
                exc = wl.check(state, item, out)
        if exc is not None:
            tally.wrong += 1
            tally.failures.append((item.stratum, exc))
    return tally


def tail(latencies: list) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile leaving TAIL_BEYOND
    samples above it; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_run(wl, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    from workloads import load_golden
    load_golden()  # the benchmark's own data, kept out of setup_s
    rounds = wl.rounds_for(seconds)
    setup_times, setup_starts = [], []
    setup_probe, op_probe = SpeedProbe("python"), SpeedProbe(wl.probe)
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            wl.teardown(state)
            state = None
        gc.collect()  # every set-up starts from the same heap
        setup_probe.take()
        start = perf_counter()
        state = wl.setup(seed, rounds)
        setup_times.append(perf_counter() - start)
        setup_starts.append(start)
    setup_probe.take()
    tally = Tally()
    try:
        for problem in state.setup_problems:
            tally.wrong += 1
            tally.failures.append(("setup", problem))
        wl.warm_up(state)
        gc.collect()
        start = perf_counter()
        run_items(wl, state, state.items, tally, probe=op_probe)
        loop_s = perf_counter() - start - op_probe.spent_s
    finally:
        wl.teardown(state)
    lat = tally.latencies
    tail_s, tail_pct = tail(lat)
    by_stratum: dict = {}
    for item, secs in zip(state.items, lat):
        by_stratum.setdefault(item.stratum, []).append(secs)
    raw = {
        "ops_per_s": (tally.attempted - tally.failed) / loop_s,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(setup_times),
    }
    scaled = [secs * op_probe.scale_at(t) for t, secs in zip(tally.starts, lat)]
    scaled_tail_s, _ = tail(scaled)
    metrics = {
        # the loop time scaled as its ops were
        "ops_per_s": raw["ops_per_s"] * sum(lat) / sum(scaled),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "op_tail_ms": scaled_tail_s * 1e3,
        "setup_s": statistics.median(secs * setup_probe.scale_at(t)
                                     for t, secs in zip(setup_starts, setup_times)),
        "peak_rss_mb": peak_rss_mb(children=wl.name == "cli"),
    }
    detail = {"rounds": rounds, "ops": len(lat), "tail_percentile": tail_pct,
              "tail_samples_beyond": TAIL_BEYOND if len(lat) > TAIL_BEYOND else 0,
              "setup_runs_s": setup_times, "loop_s": loop_s, "raw": raw,
              "probe": wl.probe, "probe_s": statistics.median(op_probe.samples),
              "probes": len(op_probe.samples),
              "setup_probe_s": statistics.median(setup_probe.samples),
              "stratum_p50_ms": {k: statistics.median(v) * 1e3
                                 for k, v in sorted(by_stratum.items())}}
    return metrics, tally, detail


def cli_startup_ms() -> dict:
    """Bare interpreter and package import cost, medians of CLI_REPEATS runs."""
    from workloads import cli_env
    env = cli_env()

    def median_ms(code):
        runs = []
        for _ in range(CLI_REPEATS):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, timeout=60)
            runs.append(perf_counter() - start)
        return statistics.median(runs) * 1e3

    interpreter = median_ms("pass")
    return {"cli.interpreter_ms": interpreter,
            "cli.import_ms": median_ms("import graphcodes.cli") - interpreter}


def traced_run(wl, seed: int, out_dir: Path) -> tuple[dict, Tally, dict]:
    import workloads
    tally = Tally()
    ref_state = wl.setup(seed, wl.trace_rounds)
    try:
        ref_state.extra["in_process"] = True
        wl.warm_up(ref_state)
        gc.collect()
        ref = run_items(wl, ref_state, ref_state.items, Tally())
    finally:
        wl.teardown(ref_state)

    tracer = Tracer()
    tracer.install([workloads])
    tracer.active = True
    try:
        with tracer.span("bench.setup"):
            state = wl.setup(seed, wl.trace_rounds)
        state.extra["in_process"] = True
        for problem in state.setup_problems:
            tally.wrong += 1
            tally.failures.append(("setup", problem))
        try:
            gc.collect()
            run_items(wl, state, state.items, tally, tracer)
        finally:
            tracer.active = False
            wl.teardown(state)
    finally:
        tracer.uninstall()
    tally.wrong += ref.wrong
    tally.failures += ref.failures

    traced_s = sum(tally.latencies)
    c = state.counters
    extra = {"verify.codewords": float(c["verify.codewords"]),
             "bounds.inexact_share": c["bounds.inexact"] / max(1, c["bounds.reports"]),
             "verify.fast_read_hit_share": c["fast_read.hits"] / max(1, c["fast_read.calls"]),
             "trace_overhead_share": traced_s / sum(ref.latencies) - 1.0,
             "trace.ops": float(tally.attempted),
             "cli.interpreter_ms": 0.0, "cli.import_ms": 0.0, "cli.command_ms": 0.0}
    if wl.name == "cli":
        extra.update(cli_startup_ms())
        extra["cli.command_ms"] = statistics.median(ref.latencies) * 1e3
    metrics = {m["name"]: layer_value(m["name"], tracer, extra)
               for m in load_spec()["per_layer"]}

    spans_path = out_dir / ("spans-%s-seed%d.json" % (wl.name, seed))
    tracer.write(spans_path)
    detail = {"spans": len(tracer.spans), "spans_dropped": tracer.dropped,
              "spans_file": str(spans_path), "untraced_s": sum(ref.latencies),
              "traced_s": traced_s}
    return metrics, tally, detail


def layer_value(name: str, tracer: Tracer, extra: dict) -> float:
    """The per-layer metric ``name``: an entry of ``extra``, or read from the
    trace by its suffix (``<layer>.self_s``, ``<fn>.self_s``, ``<fn>.total_s``,
    ``<fn>.calls``).  A function the workload never calls reads 0."""
    if name in extra:
        return extra[name]
    base, _, kind = name.rpartition(".")
    if kind == "self_s" and base in LAYERS + ("bench",):
        return tracer.layer_self_s().get(base, 0.0)
    if base in tracer.names:
        if kind == "self_s":
            return tracer.self_s.get(base, 0.0)
        if kind == "total_s":
            return tracer.total_s.get(base, 0.0)
        if kind == "calls":
            return float(tracer.calls.get(base, 0))
    raise SetupError("the trace gives no per-layer metric %r" % name)


def run(wl, seed: int, seconds: float, trace: bool, out_dir: Path) -> int:
    """Run one workload, record it, and print the result as the last line."""
    wanted = load_spec()["per_layer" if trace else "end_to_end"]
    out_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        metrics, tally, detail = traced_run(wl, seed, out_dir)
    else:
        metrics, tally, detail = timed_run(wl, seed, seconds)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SetupError("the run gives no metric %s" % ", ".join(missing))
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = dict(result, workload=wl.name, trace=trace, seconds=seconds,
                  failed_share=tally.failed / max(1, tally.attempted),
                  failures=tally.failures[:20], env=environment(seed), **detail)
    with open(out_dir / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({k: record[k] for k in record if k not in result}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- compare ------------------------------------------------------------------------

def load_bounds() -> dict:
    return {m["name"]: (m["bound"], m["better"]) for m in load_spec()["end_to_end"]}


def load_records(path) -> dict:
    """{(workload, metric): [values]} over every run recorded in a results file."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            values = {k: v["value"] for k, v in rec["metrics"].items()}
            if not rec["trace"]:
                values["failed_share"] = rec["failed"] / rec["attempted"]
            for name, value in values.items():
                out.setdefault((rec["workload"], name), []).append(value)
    return out


def summary(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(q1: float, med: float, q3: float) -> float:
    return (q3 - q1) / med if med else 0.0


def compare(paths: list) -> int:
    bounds = load_bounds()
    sides = [load_records(p) for p in paths]
    keys = sorted(set().union(*sides))
    for wl, metric in keys:
        cells = []
        stats = []
        for side in sides:
            values = side.get((wl, metric))
            if not values:
                cells.append("-")
                stats.append(None)
                continue
            med, q1, q3 = summary(values)
            stats.append((med, q1, q3))
            cells.append("%.6g [%.6g, %.6g] n=%d spread=%.3f"
                         % (med, q1, q3, len(values), spread(q1, med, q3)))
        note = ""
        bound, better = bounds.get(metric, (None, None))
        if len(stats) == 2 and None not in stats:
            (m0, *_), (m1, *_) = stats
            note = "ratio=%.4f (base %.6g)" % (m1 / m0, m0) if m0 else "base 0"
        if bound is not None and None not in stats:
            if any(spread(q1, med, q3) > bound for med, q1, q3 in stats):
                note += " unresolved"
            elif len(stats) == 2:
                change = (stats[1][0] - stats[0][0]) / stats[0][0]
                worse = change > bound if better == "lower" else -change > bound
                note += " worse" if worse else " within-bound"
        print("%-14s %-32s %s  %s" % (wl, metric, "  |  ".join(cells), note))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("design-small", "design-large",
                                               "decode-stream", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".perfbench-out",
                        help="directory for results.jsonl and span logs")
    parser.add_argument("--compare", nargs="+", metavar="RESULTS",
                        help="summarize one results file or compare two")
    args = parser.parse_args(argv)
    if args.compare and len(args.compare) > 2:
        parser.error("--compare takes one or two results files")
    if not args.compare and args.workload is None:
        parser.error("--workload is required")
    try:
        if args.compare:
            return compare(args.compare)
        workloads = import_package()
        return run(workloads.make(args.workload), args.seed, args.seconds,
                   bool(args.trace), Path(args.out))
    except SetupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
