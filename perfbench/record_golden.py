"""Record golden answers for every pool member of every workload.

Run from the repository root at the commit whose answers are the reference:

    python3 perfbench/record_golden.py

It rewrites perfbench/golden.json.  The benchmark compares each op's answer
with these digests.  An op whose graph missed its deadline while recording
has no golden answer (null) and is checked by its invariants alone.
"""

from __future__ import annotations

import json
import sys

from run import import_package

workloads = import_package()
from graphcodes import GF, systematic_dsys  # noqa: E402
from graphcodes.cli import DEMO_ADJACENCY  # noqa: E402


def answer_digest(wl, item):
    try:
        out = wl.call(workloads.State([], {}), item)
    except workloads.DeadlineMiss:
        return None
    answer, problems = wl.answer(item, out)
    if problems:
        raise SystemExit("%s: %s" % (item.key, problems))
    return workloads.digest(answer)


def design_small() -> dict:
    wl = workloads.DesignSmall()
    golden = {}
    fields: dict = {}
    strata = {st for r in range(len(workloads.DENSITIES)) for st in wl.round_strata(r)}
    for stratum in sorted(strata):
        for i in range(wl.pool):
            item = wl.item(fields, *stratum, i)
            golden[item.key] = answer_digest(wl, item)
    return golden


def design_large() -> dict:
    wl = workloads.DesignLarge()
    golden = {}
    fields: dict = {}
    for s in wl.sizes:
        for density in workloads.DENSITIES:
            for i in range(wl.pool):
                item = wl.item(fields, s, density, i)
                golden[item.key] = answer_digest(wl, item)
                print(item.key, golden[item.key], file=sys.stderr)
    return golden


def decode_stream() -> dict:
    wl = workloads.DecodeStream()
    return {"%d/%d" % (n, workloads.DECODE_S): workloads.digest(workloads.code_answer(
                systematic_dsys(workloads.decode_graph(n), GF(p, m))))
            for n, p, m, _ in wl.codes}


def cli() -> dict:
    wl = workloads.Cli()
    g_rows = [list(r) for r in DEMO_ADJACENCY]
    spec = systematic_dsys(workloads.ConstraintGraph.from_rows(g_rows), GF(workloads.CLI_P))
    golden = {"adjacency": g_rows, "G": spec.G, "stdout": {}}
    state = None
    workloads.load_golden = lambda: {wl.name: dict(golden, stdout={})}  # setup reads it
    try:
        state = wl.setup(0, 1)
        for item in state.items:
            if "stdout_digest" in item.data:
                code, stdout = workloads.run_cli_in_process(item.data["argv"])
                if code != 0:
                    raise SystemExit("%s exited %d" % (item.stratum, code))
                golden["stdout"][item.stratum] = workloads.digest(stdout)
    finally:
        if state is not None:
            wl.teardown(state)
    return golden


def main() -> None:
    golden = {"cli": cli(), "decode-stream": decode_stream(),
              "design-small": design_small(), "design-large": design_large()}
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
