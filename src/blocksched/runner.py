"""Experiment orchestration: single runs, sweeps, tables, and tuning.

A sweep runs every (scheduler, scenario, trace, seed) combination,
persists one summary record per run, and aggregates mean metrics per
(scheduler, scenario, trace group) into a comparison table. A record is
the run's metrics.QoEReport as a dict, so its keys are the report's field
names; a table row averages the record
keys named in TABLE_METRICS. Records are
the source of truth: a table regenerated from the record files equals
the one produced by the sweep, and an interrupted sweep resumes by
skipping combinations whose record file already exists. Each record is
written, and logged, as soon as its run's result is collected (in grid
order, serially and with a process pool alike), so an interrupt or a
failing run keeps every record collected before it. A record file is
written whole or not at all (a temp file renamed into place), so an
interrupted write never leaves a truncated record behind. Threshold
tuning runs each grid cell through the same sweep engine.

A run's settings are one linksim.RunParams, which this module re-exports.
Every sweep and tuning cell is a dataclasses.replace copy of it, and
RunParams checks its ranges on every copy, so an out-of-range setting is
refused before any record is read or any cell runs. A record names its
seed and alpha but not the other settings, so resuming with a different
in-range RTT or loss rate still reads the old records.

Baseline rows carry qoe_gain_vs_baseline_pct = 100 * (qoe_proposed -
qoe_baseline) / qoe_baseline for the same scenario and trace group; the
proposed row carries its gain over the strongest baseline, so a
positive value there means it beat every competitor.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import re
from dataclasses import asdict, dataclass, replace

from .errors import ConfigurationError
from .linksim import RunParams, SimulationResult, Simulation
from .metrics import QoEReport, build_report
from .model import ScenarioConfig
from .predictor import Thresholds
from .schedulers import make_scheduler
from .traces import LinkTrace, filter_corpus, load_corpus


def execute_run(trace: LinkTrace, scenario: ScenarioConfig, scheduler_name: str,
                params: RunParams, record=None) -> tuple[SimulationResult, QoEReport]:
    """One simulation and its report; record is the optional event sink
    (see linksim.Simulation)."""
    scheduler = make_scheduler(scheduler_name, scenario, params.literal_mid_branch)
    result = Simulation(trace, scenario, scheduler, params, record=record).run()
    return result, build_report(result, trace)


# -- sweep records -----------------------------------------------------

def _slug(text: str) -> str:
    base = os.path.splitext(os.path.basename(text))[0]
    return re.sub(r"[^A-Za-z0-9_.-]", "-", base)


def record_key(scheduler: str, scenario_name: str, trace_tag: str, seed: int) -> str:
    return "%s__%s__%s__s%d" % (_slug(scheduler), _slug(scenario_name), _slug(trace_tag), seed)


def summary_record(report: QoEReport) -> dict:
    """The record of one run: the report's fields. Per-block outcomes are
    in the `run` report and the event log only."""
    return report.to_dict()


def _write_record(path: str, record: dict) -> None:
    """Write a record to a temp file beside path (a name load_records
    skips), then rename it over path."""
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "w") as fh:
            # one write of the C encoder's output; json.dump would run the
            # pure-Python encoder and write it piece by piece
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sweep_worker(args) -> dict:
    trace, scenario, scheduler_name, params = args
    _, report = execute_run(trace, scenario, scheduler_name, params)
    return summary_record(report)


def run_sweep(traces, scenarios, scheduler_names, seeds, params: RunParams,
              records_dir: str | None = None, trace_group: str = "corpus",
              jobs: int = 1, log=None) -> "ComparisonTable":
    """Run the full grid and aggregate. traces/scenarios are parsed objects;
    seeds is the list of per-run seeds. params.seed is ignored. Two grid
    cells with the same record_key are a ConfigurationError, raised before
    any run."""
    traces = list(traces)
    scenarios = list(scenarios)
    if not traces:
        raise ConfigurationError("sweep has no traces to run")
    if not scenarios or not scheduler_names or not seeds:
        raise ConfigurationError("sweep needs at least one scenario, scheduler, and seed")
    combos = {}
    for scenario in scenarios:
        for scheduler_name in scheduler_names:
            for trace in traces:
                for seed in seeds:
                    key = record_key(scheduler_name, scenario.name, trace.source_tag, seed)
                    # a repeated cell would be run and averaged twice, yet
                    # leave one record file
                    if key in combos:
                        raise ConfigurationError("sweep grid repeats the run %s" % key)
                    combos[key] = (trace, scenario, scheduler_name, seed)
    if records_dir:
        os.makedirs(records_dir, exist_ok=True)
    records: list[dict] = []
    pending = []
    for key, (trace, scenario, scheduler_name, seed) in combos.items():
        path = None
        if records_dir:
            path = os.path.join(records_dir, key + ".json")
            if os.path.exists(path):
                with open(path) as fh:
                    records.append(json.load(fh))
                continue
        pending.append((path, (trace, scenario, scheduler_name, replace(params, seed=seed))))
    total = len(combos)
    done = total - len(pending)
    tasks = [args for _, args in pending]
    parallel = jobs > 1 and len(pending) > 1
    if parallel:
        # imported here, so a serial sweep and every other command never
        # load the process pool and multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    with (ProcessPoolExecutor(max_workers=jobs) if parallel else contextlib.nullcontext()) as pool:
        # results are collected lazily, in task order; each is written and
        # logged before the next is awaited
        fresh = pool.map(_sweep_worker, tasks, chunksize=1) if parallel else map(_sweep_worker, tasks)
        for (path, args), record in zip(pending, fresh):
            if path:
                _write_record(path, record)
            records.append(record)
            done += 1
            if log:
                log("run %d/%d %s/%s/%s seed=%d" % (done, total, args[2], args[1].name,
                                                    args[0].source_tag, args[3].seed))
    return build_table(records, trace_group)


# the per-run metrics a table row averages, in column order; each is a
# QoEReport field and a ComparisonRow field of the same name
TABLE_METRICS = ("delivery_ratio", "utilization", "effective_utilization", "qoe")
_TEXT_LABELS = {"effective_utilization": "effective_util"}


@dataclass(frozen=True)
class ComparisonRow:
    scheduler: str
    scenario: str
    trace_group: str
    runs: int
    delivery_ratio: float
    utilization: float
    effective_utilization: float
    qoe: float
    qoe_gain_vs_baseline_pct: float | None


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple

    def row(self, scheduler: str, scenario: str) -> ComparisonRow | None:
        for r in self.rows:
            if r.scheduler == scheduler and r.scenario == scenario:
                return r
        return None

    def to_json_lines(self) -> str:
        return "".join(json.dumps(asdict(r), sort_keys=True) + "\n" for r in self.rows)

    def to_text(self) -> str:
        headers = ["scheduler", "scenario", "trace_group", "runs",
                   *(_TEXT_LABELS.get(name, name) for name in TABLE_METRICS),
                   "qoe_gain_vs_baseline_%"]
        body = []
        for r in self.rows:
            gain = "-" if r.qoe_gain_vs_baseline_pct is None else "%+.2f" % r.qoe_gain_vs_baseline_pct
            body.append([r.scheduler, r.scenario, r.trace_group, str(r.runs),
                         *("%.4f" % getattr(r, name) for name in TABLE_METRICS), gain])
        widths = [max(len(h), *(len(row[i]) for row in body)) if body else len(h)
                  for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        return "\n".join(lines) + "\n"


def _mean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values)


def build_table(records, trace_group: str = "corpus") -> ComparisonTable:
    """Aggregate per-run summary records into mean-metric rows."""
    records = sorted(records, key=lambda r: (r["scheduler"], r["scenario"], r["trace"], r["seed"]))
    if not records:
        raise ConfigurationError("no run records to aggregate")
    groups: dict[tuple, list[dict]] = {}
    for rec in records:
        groups.setdefault((rec["scheduler"], rec["scenario"]), []).append(rec)
    means = {
        key: {"runs": len(rs), **{name: _mean(r[name] for r in rs) for name in TABLE_METRICS}}
        for key, rs in groups.items()
    }
    scenarios = sorted({s for _, s in means})
    rows = []
    for scenario in scenarios:
        by_sched = {sched: m for (sched, s), m in means.items() if s == scenario}
        proposed_qoe = by_sched.get("proposed", {}).get("qoe")
        baseline_qoes = {s: m["qoe"] for s, m in by_sched.items() if s != "proposed"}
        order = sorted(by_sched, key=lambda s: (s != "proposed", s))
        for sched in order:
            m = by_sched[sched]
            gain = None
            if sched == "proposed":
                if baseline_qoes:
                    best = max(baseline_qoes.values())
                    if best > 0:
                        gain = 100.0 * (proposed_qoe - best) / best
            elif proposed_qoe is not None and m["qoe"] > 0:
                gain = 100.0 * (proposed_qoe - m["qoe"]) / m["qoe"]
            rows.append(ComparisonRow(scheduler=sched, scenario=scenario,
                                      trace_group=trace_group, **m,
                                      qoe_gain_vs_baseline_pct=gain))
    return ComparisonTable(rows=tuple(rows))


def load_records(records_dir: str) -> list[dict]:
    try:
        names = sorted(os.listdir(records_dir))
    except OSError as exc:
        raise ConfigurationError("cannot list records dir %s: %s" % (records_dir, exc)) from exc
    records = []
    for name in names:
        if name.endswith(".json"):
            with open(os.path.join(records_dir, name)) as fh:
                records.append(json.load(fh))
    if not records:
        raise ConfigurationError("no .json run records under %s" % records_dir)
    return records


# -- threshold tuning ---------------------------------------------------

@dataclass(frozen=True)
class TuneResult:
    best_low_mbps: float
    best_high_mbps: float
    cells: tuple  # dicts with low_mbps, high_mbps, mean_qoe, runs


def tune_thresholds(grid_low_mbps, grid_high_mbps, traces, scenario: ScenarioConfig,
                    params: RunParams, seeds=(0,), cells_path: str | None = None,
                    log=None) -> TuneResult:
    """Grid-search (L, H) by mean proposed-scheduler QoE over the given
    traces; ties prefer the smallest (L, H). Every cell is persisted when
    cells_path is given."""
    pairs = [(lo, hi) for lo in grid_low_mbps for hi in grid_high_mbps]
    if not pairs:
        raise ConfigurationError("empty threshold grid")
    for lo, hi in pairs:
        if not 0 < lo < hi:
            raise ConfigurationError("grid pair (%r, %r) violates 0 < L < H" % (lo, hi))
    traces = list(traces)
    if not traces:
        raise ConfigurationError("threshold tuning has no traces to run")
    cells = []
    for lo, hi in sorted(pairs):
        cell_params = replace(params, thresholds=Thresholds.from_mbps(lo, hi))
        (row,) = run_sweep(traces, [scenario], ["proposed"], seeds, cell_params).rows
        cells.append({"low_mbps": lo, "high_mbps": hi, "mean_qoe": row.qoe, "runs": row.runs})
        if log:
            log("tune cell L=%.3g H=%.3g mean_qoe=%.4f" % (lo, hi, cells[-1]["mean_qoe"]))
    best = max(cells, key=lambda c: (c["mean_qoe"], -c["low_mbps"], -c["high_mbps"]))
    if cells_path:
        with open(cells_path, "w") as fh:
            for cell in cells:
                fh.write(json.dumps(cell, sort_keys=True))
                fh.write("\n")
    return TuneResult(best_low_mbps=best["low_mbps"], best_high_mbps=best["high_mbps"],
                      cells=tuple(cells))


def load_filtered_corpus(corpus_dir: str, fmt: str | None = None) -> list[LinkTrace]:
    """Load every trace file in a directory and apply the corpus filter."""
    kept = filter_corpus(load_corpus(corpus_dir, fmt))
    if not kept:
        raise ConfigurationError(
            "corpus %s is empty after filtering (keep: mean < 3 Mbps and min > 0.2 Mbps)"
            % corpus_dir)
    return kept
