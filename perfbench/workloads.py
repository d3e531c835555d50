"""The benchmark's four workloads: inputs, the timed call, and the answer check.

Each workload is a stream of *rounds*.  A round holds one op for every
stratum of the workload (size, density, field kind, delivery path), so
every round has the same mix of cheap and expensive ops and only the graph
contents, messages and error patterns depend on the seed.  A run executes a
fixed number of rounds, sized so that it lasts about ``--seconds`` at the
commit that defined the benchmark; fixed work keeps latency percentiles
comparable between commits instead of depending on where a time limit cut
the stream.

Graphs come from per-stratum pools: pool member ``i`` of a stratum is
generated from a string seed naming the stratum and ``i``, and the run seed
picks members.  Every pool member has a golden answer recorded at the commit
that defined the benchmark (``golden.json``, written by
``record_golden.py``), so every op is compared against a known answer
whatever the run seed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from graphcodes import (GF, ConstraintGraph, NoMatchingError, bounds_report,
                        smallest_prime_at_least, subcode_decode, subcode_encode,
                        systematic_dsys, systematic_fast_read)
from graphcodes import cli
from graphcodes.errors import DecodingError
from graphcodes.verify import verification_report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_PATH = HERE / "golden.json"

DENSITIES = (0.35, 0.55, 0.75, 0.9)  # the acceptance corpus densities


class DeadlineMiss(BaseException):
    """Raised from SIGALRM when an op overruns its deadline.

    A BaseException so that no ``except Exception`` in the code under test
    can swallow it.
    """


@contextlib.contextmanager
def deadline(seconds: float | None):
    if seconds is None:
        yield
        return

    def expire(signum, frame):
        raise DeadlineMiss()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def digest(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@functools.cache
def load_golden() -> dict:
    """Golden answers, read once per process (callers only read the dict)."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def random_graph(rng: random.Random, s: int, n: int, density: float) -> ConstraintGraph:
    """Random s x n constraint graph with no empty rows or columns."""
    rows = [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(s)]
    for i in range(s):
        if not any(rows[i]):
            rows[i][rng.randrange(n)] = 1
    for j in range(n):
        if not any(rows[i][j] for i in range(s)):
            rows[rng.randrange(s)][j] = 1
    return ConstraintGraph.from_rows(rows)


def neighborhood(g: ConstraintGraph, rows) -> set:
    return {j for i in rows for j in range(g.n) if g.adjacency[i][j]}


def generator_problems(g: ConstraintGraph, G, matching) -> list:
    """Structural checks on a systematic generator, independent of the package."""
    problems = []
    if any(a == 0 and v != 0 for arow, grow in zip(g.adjacency, G)
           for a, v in zip(arow, grow)):
        problems.append("generator violates the zero pattern")
    for i, c in enumerate(matching):
        if any(G[r][c] != (1 if r == i else 0) for r in range(len(G))):
            problems.append("matched column %d is not a unit column" % c)
            break
    return problems


@dataclass
class Item:
    stratum: str
    key: str | None  # golden key; None when the answer is checked from the input
    data: dict


@dataclass
class State:
    items: list
    golden: dict
    counters: Counter = field(default_factory=Counter)
    setup_problems: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


class Workload:
    name = ""
    nominal_round_s = 1.0  # one round's duration at the commit that defined the benchmark
    trace_rounds = 1  # rounds in each pass of a traced run
    probe = "python"  # the speed probe whose kind of work the ops resemble

    def rounds_for(self, seconds: float) -> int:
        return max(1, math.ceil(seconds / self.nominal_round_s))

    def setup(self, seed: int, rounds: int) -> State:
        raise NotImplementedError

    def warm_up(self, state: State) -> None:
        pass

    def call(self, state: State, item: Item):
        raise NotImplementedError

    def answer(self, item: Item, out):
        """(canonical answer for the golden digest, list of invariant problems)."""
        raise NotImplementedError

    def check(self, state: State, item: Item, out) -> str | None:
        """None when the answer is right, else the reason it is wrong."""
        answer, problems = self.answer(item, out)
        if problems:
            return "; ".join(problems)
        if item.key is not None:
            if item.key not in state.golden:
                return "no golden answer for %s" % item.key
            want = state.golden[item.key]  # null: the graph missed its deadline while recording
            if want is not None and digest(answer) != want:
                return "answer differs from the golden answer for %s" % item.key
        return None

    def teardown(self, state: State) -> None:
        pass


# -- design-small --------------------------------------------------------------

SMALL_PAIRS = tuple((s, n) for s in range(1, 6) for n in range(s, 10))
SMALL_POOL = 8
MAX_CODEWORDS = 1 << 16


def ext_dims(s: int, n: int) -> tuple[int, int]:
    """(s, m): m smallest with 2^m >= n, s lowered until (2^m)^s <= 2^16."""
    m = max(1, (n - 1).bit_length())
    while (1 << m) ** s > MAX_CODEWORDS:
        s -= 1
    return s, m


def small_graph(s: int, n: int, density: float, i: int) -> ConstraintGraph:
    rng = random.Random("design-small/%d/%d/%s/%d" % (s, n, density, i))
    return random_graph(rng, s, n, density)


def design_answer(g: ConstraintGraph, out, with_distance: bool):
    if "witness" in out:
        w = out["witness"]
        problems = [] if w and len(neighborhood(g, w)) < len(w) else [
            "NoMatchingError witness %r does not violate Hall's condition" % (w,)]
        return {"no_matching": list(w)}, problems
    rep, spec = out["report"], out["spec"]
    problems = generator_problems(g, spec.G, spec.matching)
    if spec.claimed_distance != rep.d_sys or tuple(spec.matching) != rep.witness_matching:
        problems.append("construction disagrees with the bounds report")
    answer = {"bounds": rep.to_dict(), "T": spec.T, "G": spec.G}
    if with_distance:
        ver = out["verify"]
        want = ver["distance"] == spec.claimed_distance if spec.distance_exact else (
            ver["distance"] >= spec.claimed_distance)
        if not want:
            problems.append("exhaustive distance %d contradicts the claim %d"
                            % (ver["distance"], spec.claimed_distance))
        if ver["rank_G"] != g.s or not ver["valid_pattern"] or not ver["systematic"]:
            problems.append("verification report flags the code")
        answer["distance"] = ver["distance"]
        answer["witness_message"] = ver["witness_message"]
    return answer, problems


class DesignSmall(Workload):
    """Acceptance-corpus graphs; the exhaustive distance oracle does nearly all the work."""

    name = "design-small"
    nominal_round_s = 2.55

    def __init__(self, pairs=SMALL_PAIRS, pool=SMALL_POOL):
        self.pairs = pairs
        self.pool = pool

    def round_strata(self, r: int):
        """(kind, s, n, density, p, m) for every op of round r: per (s, n) pair
        two ops over GF(p) and one over GF(2^m), densities rotating."""
        out = []
        for p, (s, n) in enumerate(self.pairs):
            for slot, kind in enumerate(("prime", "prime", "ext")):
                density = DENSITIES[(3 * p + slot + r) % len(DENSITIES)]
                if kind == "ext":
                    s_k, m = ext_dims(s, n)
                    out.append((kind, s_k, n, density, 2, m))
                else:
                    out.append((kind, s, n, density, smallest_prime_at_least(n), 1))
        return out

    def item(self, fields: dict, kind, s, n, density, p, m, i) -> Item:
        gf = fields.get((p, m))
        if gf is None:
            gf = fields[(p, m)] = GF(p, m)
        key = "%s/%dx%d/%s/%d" % (kind, s, n, density, i)
        return Item("%s-%dx%d" % (kind, s, n), key,
                    {"graph": small_graph(s, n, density, i), "gf": gf})

    def setup(self, seed, rounds):
        rng = random.Random(seed)
        fields: dict = {}
        items = []
        for r in range(rounds):
            batch = [self.item(fields, *stratum, rng.randrange(self.pool))
                     for stratum in self.round_strata(r)]
            rng.shuffle(batch)
            items += batch
        return State(items, load_golden()[self.name])

    def call(self, state, item):
        g, gf = item.data["graph"], item.data["gf"]
        try:
            report = bounds_report(g)
        except NoMatchingError as exc:
            return {"witness": exc.witness}
        spec = systematic_dsys(g, gf)
        state.counters["verify.codewords"] += gf.q ** g.s - 1
        state.counters["bounds.reports"] += 1
        state.counters["bounds.inexact"] += not report.search_exact
        return {"report": report, "spec": spec, "verify": verification_report(spec, g)}

    def answer(self, item, out):
        return design_answer(item.data["graph"], out, with_distance=True)


# -- design-large --------------------------------------------------------------

LARGE_S = tuple(range(8, 21))
LARGE_POOL = 4
LARGE_DEADLINE_S = 2.0


def large_graph(s: int, density: float, i: int) -> ConstraintGraph:
    rng = random.Random("design-large/%d/%s/%d" % (s, density, i))
    n = rng.randint(2 * s, 5 * s // 2)
    return random_graph(rng, s, n, density)


class DesignLarge(Workload):
    """Larger graphs; the exact k_sys search and the 2^s subset sweep do the work."""

    name = "design-large"
    nominal_round_s = 26.0

    def __init__(self, sizes=LARGE_S, pool=LARGE_POOL, deadline_s=LARGE_DEADLINE_S):
        self.sizes = sizes
        self.pool = pool
        self.deadline_s = deadline_s

    def item(self, fields: dict, s, density, i) -> Item:
        g = large_graph(s, density, i)
        p = smallest_prime_at_least(g.n)
        gf = fields.get(p)
        if gf is None:
            gf = fields[p] = GF(p)
        return Item("s%d" % s, "%d/%s/%d" % (s, density, i), {"graph": g, "gf": gf})

    def setup(self, seed, rounds):
        rng = random.Random(seed)
        fields: dict = {}
        items = []
        for _ in range(rounds):
            batch = [self.item(fields, s, density, rng.randrange(self.pool))
                     for s in self.sizes for density in DENSITIES]
            rng.shuffle(batch)
            items += batch
        return State(items, load_golden()[self.name])

    def call(self, state, item):
        g, gf = item.data["graph"], item.data["gf"]
        with deadline(self.deadline_s):
            try:
                report = bounds_report(g)
            except NoMatchingError as exc:
                return {"witness": exc.witness}
            spec = systematic_dsys(g, gf)
        state.counters["bounds.reports"] += 1
        state.counters["bounds.inexact"] += not report.search_exact
        return {"report": report, "spec": spec}

    def answer(self, item, out):
        return design_answer(item.data["graph"], out, with_distance=False)


# -- decode-stream ---------------------------------------------------------------

DELIVERIES = ("clean", "errors", "erasures", "beyond")
# (n, p, m, deliveries).  At n=255 a t+1-error word costs a second 3-4 s
# Berlekamp-Welch solve per round, which would halve the rounds a run holds
# and leave the tail percentile to a handful of samples;
# the beyond-radius path is exercised at n=31 and n=63.
DECODE_CODES = ((31, 31, 1, DELIVERIES), (63, 2, 6, DELIVERIES),
                (255, 2, 8, ("clean", "errors", "erasures")))
DECODE_S = 16
DECODE_DENSITY = 0.75


def decode_graph(n: int) -> ConstraintGraph:
    rng = random.Random("decode-stream/%d/%d" % (n, DECODE_S))
    return random_graph(rng, DECODE_S, n, DECODE_DENSITY)


def code_answer(spec) -> dict:
    return {"T": spec.T, "G": spec.G, "k": spec.rs.k, "matching": list(spec.matching)}


class DecodeStream(Workload):
    """Words for three codes over four delivery paths; the RS decoders dominate."""

    name = "decode-stream"
    nominal_round_s = 3.7

    def __init__(self, codes=DECODE_CODES):
        self.codes = codes

    def setup(self, seed, rounds):
        rng = random.Random(seed)
        golden = load_golden()[self.name]
        state = State([], golden)
        specs = []
        for n, p, m, deliveries in self.codes:
            # fixed codes: their construction time and dimension do not vary with the seed
            spec = systematic_dsys(decode_graph(n), GF(p, m))
            key = "%d/%d" % (n, DECODE_S)
            if key not in golden or digest(code_answer(spec)) != golden[key]:
                state.setup_problems.append("code %s differs from the golden code" % key)
            specs.append((spec, deliveries))
        for _ in range(rounds):
            batch = []
            for spec, deliveries in specs:
                for delivery in deliveries:
                    batch.append(self.word(rng, spec, delivery))
            rng.shuffle(batch)
            state.items += batch
        return state

    @staticmethod
    def word(rng: random.Random, spec, delivery: str) -> Item:
        gf, n, k = spec.gf, spec.n, spec.rs.k
        t = (n - k) // 2
        message = [rng.randrange(gf.q) for _ in range(spec.s)]
        sent = subcode_encode(spec, message)
        received = list(sent)
        erasures: tuple = ()
        if delivery == "erasures":
            erasures = tuple(sorted(rng.sample(range(n), n - k)))
            for j in erasures:
                received[j] = 0
        elif delivery != "clean":
            count = rng.randint(1, t) if delivery == "errors" else t + 1
            for j in rng.sample(range(n), count):
                received[j] = gf.add(received[j], rng.randrange(1, gf.q))
        return Item("n%d-%s" % (n, delivery), None,
                    {"spec": spec, "message": message, "received": received,
                     "erasures": erasures, "delivery": delivery, "t": t})

    def call(self, state, item):
        spec, received = item.data["spec"], item.data["received"]
        message, clean = systematic_fast_read(spec, received)
        state.counters["fast_read.calls"] += 1
        if clean:
            state.counters["fast_read.hits"] += 1
            return message
        try:
            return subcode_decode(spec, received, item.data["erasures"])
        except DecodingError:
            return None

    def answer(self, item, out):
        d = item.data
        if d["delivery"] != "beyond":
            ok = out == d["message"]
            return out, [] if ok else ["decoded %r, sent %r (%s)"
                                       % (out, d["message"], item.stratum)]
        if out is None:
            return None, []
        near = sum(a != b for a, b in zip(subcode_encode(d["spec"], out), d["received"]))
        return out, [] if near <= d["t"] else [
            "t+1 errors decoded to a codeword %d symbols away" % near]


# -- cli -------------------------------------------------------------------------

CLI_KINDS = ("bounds", "construct", "verify", "encode", "decode-clean",
             "decode-error", "demo-paper-example")
CLI_TIMEOUT_S = 60.0
CLI_P = 7


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_subprocess(argv, cwd) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "-m", "graphcodes.cli", *argv],
                          cwd=cwd, env=cli_env(), capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout


def run_cli_in_process(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def json_stdout(value) -> str:
    return json.dumps(value, indent=2) + "\n"


class Cli(Workload):
    """CLI subprocess calls; interpreter start and package import dominate."""

    name = "cli"
    nominal_round_s = 2.1
    trace_rounds = 20  # traced ops run in-process and take milliseconds
    probe = "interpreter"

    def setup(self, seed, rounds):
        golden = load_golden()[self.name]
        work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        state = State([], golden, extra={"dir": work, "in_process": False})
        graph_path, code_path = work / "graph.json", work / "code.json"
        g = ConstraintGraph.from_rows(golden["adjacency"])
        graph_path.write_text(json.dumps(g.to_dict()) + "\n", encoding="utf-8")
        spec = systematic_dsys(g, GF(CLI_P))
        if spec.G != golden["G"]:
            state.setup_problems.append("3x7 code differs from the golden generator")
        code_path.write_text(json_stdout(spec.to_dict()), encoding="utf-8")

        rng = random.Random(seed)
        G = golden["G"]
        for _ in range(rounds):
            batch = []
            for kind in CLI_KINDS:
                message = [rng.randrange(CLI_P) for _ in range(len(G))]
                codeword = [sum(m * row[j] for m, row in zip(message, G)) % CLI_P
                            for j in range(len(G[0]))]
                want = {"stdout_digest": golden["stdout"].get(kind)}
                if kind == "bounds":
                    argv = ["bounds", str(graph_path)]
                elif kind == "construct":
                    argv = ["construct", str(graph_path)]
                elif kind == "verify":
                    argv = ["verify", str(code_path), str(graph_path)]
                elif kind == "encode":
                    argv = ["encode", str(code_path), ",".join(map(str, message))]
                    want = {"stdout": json_stdout(codeword)}
                elif kind.startswith("decode"):
                    if kind == "decode-error":
                        j = rng.randrange(len(codeword))
                        codeword[j] = (codeword[j] + rng.randrange(1, CLI_P)) % CLI_P
                    argv = ["decode", str(code_path), ",".join(map(str, codeword))]
                    want = {"stdout": json_stdout(message)}
                else:
                    argv = ["demo-paper-example"]
                batch.append(Item(kind, None, dict(want, argv=argv)))
            rng.shuffle(batch)
            state.items += batch
        return state

    def warm_up(self, state):
        """One call of each kind, so that bytecode caches exist before timing."""
        seen = set()
        for item in state.items:
            if item.stratum not in seen:
                seen.add(item.stratum)
                self.call(state, item)

    def call(self, state, item):
        if state.extra["in_process"]:
            return run_cli_in_process(item.data["argv"])
        return run_cli_subprocess(item.data["argv"], state.extra["dir"])

    def answer(self, item, out):
        code, stdout = out
        problems = [] if code == 0 else ["exit code %d" % code]
        if "stdout" in item.data:
            if stdout != item.data["stdout"]:
                problems.append("stdout %r, expected %r" % (stdout, item.data["stdout"]))
        elif digest(stdout) != item.data["stdout_digest"]:
            problems.append("stdout of %s differs from the golden output" % item.stratum)
        return stdout, problems

    def teardown(self, state):
        shutil.rmtree(state.extra["dir"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (DesignSmall, DesignLarge, DecodeStream, Cli)}


def make(name: str) -> Workload:
    return WORKLOADS[name]()
