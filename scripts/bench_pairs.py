"""Paired benchmark runs of two checkouts, summarised into one BENCH file.

For each workload, runs ``perfbench/run.py --trace 0`` in a parent and a
change checkout, one pair per seed (seeds seed_base, seed_base + 1, ...),
alternating which side runs first, then one ``--trace 1`` run per side on
the first seed for the per-layer metrics. Each side runs its own
benchmark from its own directory. The output JSON holds, per workload and
end-to-end metric, each side's median and quartiles over its runs, the
pairs the change won (ties count for neither side) and two verdicts:
``resolved`` (a gain that the parent's own spread cannot explain) and
``within_bound`` (no worse than the metric's ``BENCHMARK.json`` bound).
Per workload it also holds each side's CPU seconds (user + sys of the
benchmark process) as minimum, median and quartiles, since the minimum is
the reading least moved by a busy host. A benchmark run spends a fixed
budget of host time, so its CPU seconds follow the budget; the CPU
milliseconds per simulation run (``cpu_ms_per_run``, CPU seconds over the
runs attempted) are the figure to compare. Last come the traced
per-layer metrics, every seed and record digest, the failed-run counts,
and the host's CPU count and Python version.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workloads deep_queue headline --pairs 10 --seed-base 71 --out BENCH_14.json

Standard library only. Runs one benchmark process at a time.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
DIGEST = re.compile(r"^\s*digest\s+sha256:([0-9a-f]+)", re.MULTILINE)


def quartiles(values: list[float]) -> dict:
    """Median and the first and third quartiles (``statistics.quantiles``'
    default, exclusive method); a single value is all three."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize_metric(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One end-to-end metric over paired runs: parent[i] and change[i] ran on
    the same seed. A pair is won when the change reads better, lost when it
    reads worse; equal readings count for neither.

    The gain is ``resolved`` when the change won at least nine pairs in ten
    and its median gain exceeds the parent's interquartile range. It is
    ``within_bound`` when the change's median is worse than the parent's by
    no more than bound, a fraction of the parent's median."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    if better not in ("higher", "lower"):
        raise ValueError("better must be 'higher' or 'lower', got %r" % better)
    sign = 1 if better == "higher" else -1
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    lost = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    sides = {"parent": quartiles(parent), "change": quartiles(change)}
    gap = sign * (sides["change"]["median"] - sides["parent"]["median"])
    iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
    return {
        "better": better,
        "parent": sides["parent"],
        "change": sides["change"],
        "pairs": len(parent),
        "pairs_won": won,
        "pairs_lost": lost,
        # the median gain in the better direction, and the parent's spread
        # it is held against
        "median_gain": gap,
        "parent_iqr": iqr,
        "resolved": won >= math.ceil(0.9 * len(parent)) and gap > iqr,
        "bound": bound,
        "within_bound": gap >= -bound * abs(sides["parent"]["median"]),
    }


def summarize_cpu(seconds: list[float]) -> dict:
    """One side's CPU seconds over its runs: the minimum beside the median
    and quartiles."""
    return {"min": min(seconds), **quartiles(seconds)}


def run_bench(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in checkout; returns its result line plus the
    record digest it printed and the run's CPU seconds (user + sys)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("benchmark in %s exited %d: %s"
                           % (checkout, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    match = DIGEST.search(proc.stdout)
    result["digest"] = match.group(1) if match else None
    result["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return result


def bench_workload(checkouts: dict, workload: str, seeds: list[int], seconds: float,
                   metrics: dict) -> dict:
    """Paired runs of one workload; metrics maps each end-to-end metric's
    name to its ``better`` direction and its bound."""
    runs = {side: [] for side in SIDES}
    for k, seed in enumerate(seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_bench(checkouts[side], workload, seed, seconds, 0))
        print("%s seed %d: %s" % (workload, seed, ", ".join(
            "%s %.4g" % (side, runs[side][-1]["metrics"]["runs_per_s"]["value"])
            for side in SIDES)), file=sys.stderr, flush=True)
    traced = {side: run_bench(checkouts[side], workload, seeds[0], seconds, 1) for side in SIDES}
    end_to_end = {}
    for name, (better, bound) in metrics.items():
        values = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in SIDES}
        end_to_end[name] = summarize_metric(values["parent"], values["change"], better, bound)
        end_to_end[name]["unit"] = runs["parent"][0]["metrics"][name]["unit"]
    return {
        "seeds": seeds,
        "first": ["parent" if k % 2 == 0 else "change" for k in range(len(seeds))],
        "end_to_end": end_to_end,
        "cpu_s": {side: summarize_cpu([run["cpu_s"] for run in runs[side]]) for side in SIDES},
        "cpu_ms_per_run": {side: summarize_cpu([1e3 * run["cpu_s"] / run["attempted"]
                                                for run in runs[side]]) for side in SIDES},
        "runs": {side: [{**{name: m["value"] for name, m in run["metrics"].items()},
                         "cpu_s": run["cpu_s"]} for run in runs[side]] for side in SIDES},
        "failed": {side: sum(run["failed"] for run in runs[side]) for side in SIDES},
        "attempted": {side: sum(run["attempted"] for run in runs[side]) for side in SIDES},
        "digests": {side: sorted({run["digest"] for run in runs[side]}) for side in SIDES},
        "per_layer": {
            "seed": seeds[0],
            **{side: {name: m["value"] for name, m in traced[side]["metrics"].items()}
               for side in SIDES},
            "digests": {side: traced[side]["digest"] for side in SIDES},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as fh:
        metrics = {m["name"]: (m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}
    seeds = list(range(args.seed_base, args.seed_base + args.pairs))
    out = {
        "host": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "seconds": args.seconds,
        "workloads": {w: bench_workload(checkouts, w, seeds, args.seconds, metrics)
                      for w in args.workloads},
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
