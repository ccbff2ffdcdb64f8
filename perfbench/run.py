"""Benchmark for the blocksched sweep engine.

Run from the repository root:

    python3 perfbench/run.py --workload headline --seed 1 --seconds 20 --trace 0

Each invocation sets the workload up (imports, corpus and scenario
loading, input generation) once before the first pass, once after each
pass and, if that makes fewer than nine, again at the end; setup_s is the
median. It runs full passes of the workload's grid through
``runner.run_sweep`` until --seconds of host time are spent, each pass
into a fresh, empty records directory that is deleted afterwards
(run_sweep skips combinations whose record file exists, so a reused
directory would time only the resume path).

Every pass is checked: each summary record must be in range and match its
grid cell, one sampled cell is re-run in-process and must reproduce its
record byte for byte, and every record must equal the one the first pass
wrote for the same cell. The sha256 of the sorted canonical records is
printed so two commits can show that simulated statistics are unchanged.
Exceptions and failed checks count as failed runs.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes over a one-seed grid and prints the per-layer metrics from
the traced passes, with the tracing overhead as traced over untraced wall
time. Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace

import probe as probe_mod
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 9

# Per-layer self-time shares are grouped by the module that owns each span.
SHARE_GROUPS = ("linksim", "schedulers", "predictor", "traces", "model", "metrics", "runner")


@dataclass
class PassResult:
    wall_s: float
    completed: int
    run_ns: list[int]
    spans: dict = field(default_factory=dict)  # name -> [calls, inclusive ns, self ns]


class Bench:
    def __init__(self, lib, probe, work_dir: str, seed: int) -> None:
        self.lib = lib
        self.probe = probe
        self.work_dir = work_dir
        self.rng = random.Random("rerun/%d" % seed)
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, bytes] = {}  # record file name -> bytes of its first pass
        self.digest = ""
        self.digest_records = 0

    # -- one pass ------------------------------------------------------

    def run_pass(self, wl, tracing: bool) -> PassResult:
        records_dir = tempfile.mkdtemp(prefix="records-", dir=self.work_dir)
        try:
            self.probe.drain()
            self.probe.install(tracing)
            try:
                started = time.perf_counter()
                try:
                    self.lib.runner.run_sweep(wl.traces, wl.scenarios, wl.schedulers, wl.seeds,
                                              wl.params, records_dir=records_dir, jobs=wl.jobs)
                except Exception:
                    traceback.print_exc()
                wall = time.perf_counter() - started
            finally:
                self.probe.uninstall()
            lines = self.probe.drain()
            completed = self._check(wl, records_dir)
        finally:
            shutil.rmtree(records_dir, ignore_errors=True)
        spans: dict[str, list[int]] = {}
        for line in lines:
            add_spans(spans, line.get("spans", {}))
        return PassResult(wall, completed, [line["ns"] for line in lines], spans)

    # -- output checks -------------------------------------------------

    def _check(self, wl, records_dir: str) -> int:
        """Check every record of a pass; returns how many passed."""
        runner = self.lib.runner
        cells = {runner.record_key(sched, scen.name, trace.source_tag, seed) + ".json":
                 (trace, scen, sched, seed)
                 for trace, scen, sched, seed in wl.combos()}
        self.attempted += len(cells)
        canonical = []
        completed = 0
        for name, cell in cells.items():
            try:
                with open(os.path.join(records_dir, name), "rb") as fh:
                    data = fh.read()
                record = json.loads(data)
            except (OSError, ValueError) as exc:
                self._fail("record %s unreadable: %s" % (name, exc))
                continue
            problems = record_problems(record, cell)
            first = self.reference.setdefault(name, data)
            if first != data:
                problems.append("differs from the first pass")
            if problems:
                self._fail("record %s: %s" % (name, "; ".join(problems)))
                continue
            completed += 1
            canonical.append(json.dumps(record, sort_keys=True))
        if not self.digest:
            self.digest = hashlib.sha256("\n".join(sorted(canonical)).encode()).hexdigest()
            self.digest_records = len(canonical)
        self._rerun_one(wl, records_dir, cells)
        return completed

    def _rerun_one(self, wl, records_dir: str, cells: dict) -> None:
        """Re-run one sampled cell in-process; its record must be byte-identical."""
        name = self.rng.choice(sorted(cells))
        trace, scenario, scheduler, seed = cells[name]
        self.attempted += 1
        try:
            _, report = self.probe.execute_run(trace, scenario, scheduler,
                                               replace(wl.params, seed=seed))
            fresh = (json.dumps(self.lib.runner.summary_record(report), sort_keys=True)
                     + "\n").encode()
            with open(os.path.join(records_dir, name), "rb") as fh:
                written = fh.read()
        except Exception:
            traceback.print_exc()
            self._fail("re-run of %s raised" % name)
            return
        if fresh != written:
            self._fail("re-run of %s does not reproduce its record" % name)

    def _fail(self, message: str) -> None:
        self.failed += 1
        print("CHECK FAILED: " + message, file=sys.stderr)


def add_spans(into: dict, spans: dict) -> None:
    for name, rec in spans.items():
        acc = into.setdefault(name, [0, 0, 0])
        for i in range(3):
            acc[i] += rec[i]


def record_problems(record: dict, cell) -> list[str]:
    trace, scenario, scheduler, seed = cell
    problems = []
    expected = {"scenario": scenario.name, "trace": trace.source_tag,
                "scheduler": scheduler, "seed": seed}
    for key, value in expected.items():
        if record.get(key) != value:
            problems.append("%s is %r, expected %r" % (key, record.get(key), value))
    try:
        for key in ("delivery_ratio", "utilization", "effective_utilization"):
            if not 0.0 <= record[key] <= 1.0:
                problems.append("%s %r outside [0, 1]" % (key, record[key]))
        if not 1 <= record["block_count"]:
            problems.append("block_count %r < 1" % record["block_count"])
        if not 0 <= record["on_time_count"] <= record["block_count"]:
            problems.append("on_time_count %r outside [0, block_count]" % record["on_time_count"])
        if not math.isfinite(record["qoe"]):
            problems.append("qoe %r not finite" % record["qoe"])
    except (KeyError, TypeError) as exc:
        problems.append("malformed: %r" % exc)
    return problems


# -- measurement loops -------------------------------------------------

def until_spent(seconds: float, step) -> None:
    """Call step at least once, and again while the median step still fits
    in the budget."""
    deadline = time.perf_counter() + seconds
    durations = []
    while True:
        started = time.perf_counter()
        step()
        durations.append(time.perf_counter() - started)
        if time.perf_counter() + statistics.median(durations) > deadline:
            return


def tail_ms(values_ms: list[float]) -> float:
    if len(values_ms) < 2:
        return values_ms[0]
    return statistics.quantiles(values_ms, n=10)[-1]


def peak_rss_mb(jobs: int) -> float:
    """Peak resident memory of this process, plus jobs times the largest
    worker's peak when a pool ran."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if jobs > 1:
        kib += jobs * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def timed(bench: Bench, wl, seconds: float, set_up_again):
    """Full passes until the budget is spent, with one more timed set-up
    after each pass so the set-up samples are spread over the run."""
    passes: list[PassResult] = []

    def step() -> None:
        passes.append(bench.run_pass(wl, tracing=False))
        set_up_again()

    until_spent(seconds, step)
    run_ms = [ns / 1e6 for p in passes for ns in p.run_ns]
    if not run_ms:
        raise RuntimeError("no run completed")
    metrics = {
        "runs_per_s": (sum(p.completed for p in passes) / sum(p.wall_s for p in passes), "1/s"),
        "run_ms_p50": (statistics.median(run_ms), "ms"),
        "run_ms_p90": (tail_ms(run_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb(wl.jobs), "MB"),
    }
    info = "%d passes of %d runs, %d run timings" % (len(passes), len(wl.combos()), len(run_ms))
    return metrics, info


def traced(bench: Bench, wl, seconds: float):
    wl = wl.shrunk()
    plain: list[PassResult] = []
    spanned: list[PassResult] = []

    def pair() -> None:
        plain.append(bench.run_pass(wl, tracing=False))
        spanned.append(bench.run_pass(wl, tracing=True))

    until_spent(seconds, pair)
    spans: dict[str, list[int]] = {}
    for p in spanned:
        add_spans(spans, p.spans)

    def calls(name):
        return max(spans.get(name, [0])[0], 1)

    def per_call(name, index=2, scale=1e3):
        return spans.get(name, [0, 0, 0])[index] / calls(name) / scale

    runs = calls("runner.execute_run")
    events = max(spans["linksim.advance"][0] - runs, 1)  # one empty advance ends each run
    total_ns = max(spans["runner.execute_run"][1], 1)
    plain_wall = sum(p.wall_s for p in plain)
    plain_runs = sum(len(p.run_ns) for p in plain)
    plain_busy_ns = sum(sum(p.run_ns) for p in plain)
    capacity_s = plain_wall * wl.jobs
    pickled = [len(pickle.dumps((trace, scen, sched, replace(wl.params, seed=seed))))
               for trace, scen, sched, seed in wl.combos()]
    metrics = {
        "linksim.advance_self_us": (per_call("linksim.advance"), "us"),
        "linksim.us_per_event": (spans["linksim.advance"][1] / events / 1e3, "us"),
        "linksim.events_per_run": (events / runs, "count"),
        "schedulers.select_us": (per_call("schedulers.select"), "us"),
        "schedulers.block_stats_us": (per_call("schedulers.compute_block_stats"), "us"),
        "schedulers.block_stats_per_decision": (
            spans["schedulers.compute_block_stats"][0] / calls("schedulers.select"), "count"),
        "schedulers.filter_expired_us": (per_call("schedulers.filter_expired"), "us"),
        "model.queue_remove_us": (per_call("model.queue_remove"), "us"),
        "model.generate_blocks_ms": (per_call("model.generate_blocks", scale=1e6), "ms"),
        "predictor.bytes_sent_since_us": (per_call("predictor.bytes_sent_since"), "us"),
        "predictor.ledger_entries_per_scan": (
            spans[probe_mod.LEDGER_ENTRIES][1] / calls(probe_mod.LEDGER_ENTRIES), "count"),
        "traces.time_to_send_us": (per_call("traces.time_to_send"), "us"),
        "metrics.build_report_ms": (per_call("metrics.build_report", scale=1e6), "ms"),
        "runner.sweep_overhead_ms_per_run": (
            (capacity_s * 1e9 - plain_busy_ns) / max(plain_runs, 1) / 1e6, "ms"),
        "runner.task_pickle_bytes": (statistics.mean(pickled), "bytes"),
        "runner.worker_busy_ratio": (plain_busy_ns / 1e9 / capacity_s, "ratio"),
        "trace.overhead_ratio": (sum(p.wall_s for p in spanned) / plain_wall, "ratio"),
    }
    shares = dict.fromkeys(SHARE_GROUPS, 0)
    for name, (_, _, self_ns) in spans.items():
        group = name.partition(".")[0]
        if group in shares and name != probe_mod.LEDGER_ENTRIES:
            shares[group] += self_ns
    for group, self_ns in shares.items():
        metrics["share.%s" % group] = (100.0 * self_ns / total_ns, "%")
    info = "%d untraced + %d traced passes of %d runs" % (len(plain), len(spanned),
                                                         len(wl.combos()))
    return metrics, info


# -- entry point -------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="host seconds to spend measuring (at least one full pass runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one-second runs on a reduced grid, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, workloads.PACKAGE)):
        print("error: %s not found; run from a blocksched checkout"
              % os.path.join(SRC, workloads.PACKAGE), file=sys.stderr)
        return 2
    os.chdir(ROOT)  # corpus paths become record trace tags; keep them relative
    sys.path.insert(0, SRC)
    setup_s, lib, wl = workloads.set_up(SRC, args.workload, args.seed, args.tiny)
    setup_samples = [setup_s]

    def set_up_again() -> None:
        setup_samples.append(workloads.time_set_up(SRC, args.workload, args.seed, args.tiny))

    work_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        probe = probe_mod.Probe(lib, os.path.join(work_dir, "runs.jsonl"))
        try:
            bench = Bench(lib, probe, work_dir, args.seed)
            if args.trace:
                metrics, info = traced(bench, wl, args.seconds)
            else:
                metrics, info = timed(bench, wl, args.seconds, set_up_again)
                while len(setup_samples) < SETUP_REPS:
                    set_up_again()
                metrics["setup_s"] = (statistics.median(setup_samples), "s")
        finally:
            probe.close()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print("workload %s  seed %d  trace %d  jobs %d  %s"
          % (wl.name, args.seed, args.trace, wl.jobs, info))
    for name, (value, unit) in metrics.items():
        print("  %-36s %14.6g %s" % (name, value, unit))
    print("  %-36s %14.6g %s  (%d of %d runs)" % (
        "failed_run_ratio", bench.failed / bench.attempted, "ratio", bench.failed, bench.attempted))
    print("  %-36s sha256:%s  (%d records)" % ("digest", bench.digest, bench.digest_records))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
