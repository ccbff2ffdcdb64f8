"""Command-line interface.

Subcommands: run (one simulation), sweep (schedulers x scenarios x corpus
x seeds into records plus a comparison table), tune (threshold grid
search on the training split), traces (parse / filter / split /
synthesize), and report (re-render a table from records).

Results go to stdout or files; progress goes to stderr. Exit codes:
0 success, 1 configuration problem, 2 simulation invariant violation.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ConfigurationError, IllegalStateError, SimulationInvariantError
from .model import load_scenario
from .runner import (
    RunParams,
    build_table,
    execute_run,
    load_filtered_corpus,
    load_records,
    run_sweep,
    tune_thresholds,
)
from .metrics import run_report_json
from .predictor import Thresholds
from .schedulers import SCHEDULER_NAMES
from .traces import load_corpus, load_trace, split_corpus, synthesize_trace, trace_passes_filter
from .units import bytes_per_s_to_mbps


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _add_run_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--duration-s", type=float, required=True, help="workload generation horizon")
    parser.add_argument("--rtt-ms", type=float, default=RunParams.rtt_s * 1000.0)
    parser.add_argument("--loss-rate", type=float, default=RunParams.loss_rate)
    parser.add_argument("--alpha", type=float, default=RunParams.alpha, help="utilization weight in QoE")
    parser.add_argument("--threshold-low-mbps", type=float,
                        default=bytes_per_s_to_mbps(RunParams.thresholds.low))
    parser.add_argument("--threshold-high-mbps", type=float,
                        default=bytes_per_s_to_mbps(RunParams.thresholds.high))
    parser.add_argument("--literal-mid-branch", action="store_true",
                        help="replay the original mid-regime no-op comparison lines")


def _default_group(trace_paths) -> str:
    """The trace group label when --group is not given: the base name of
    the one directory that holds every trace, else "corpus"."""
    dirs = {os.path.normpath(os.path.dirname(path)) for path in trace_paths}
    return os.path.basename(dirs.pop()) if len(dirs) == 1 else "corpus"


def _params_from_args(args, seed: int = 0) -> RunParams:
    return RunParams(
        duration_s=args.duration_s,
        seed=seed,
        rtt_s=args.rtt_ms / 1000.0,
        loss_rate=args.loss_rate,
        alpha=args.alpha,
        thresholds=Thresholds.from_mbps(args.threshold_low_mbps, args.threshold_high_mbps),
        literal_mid_branch=args.literal_mid_branch,
    )


def _cmd_run(args) -> int:
    params = _params_from_args(args, args.seed)
    trace = load_trace(args.trace, args.trace_format)
    scenario = load_scenario(args.scenario)
    if args.event_log:
        with open(args.event_log, "w") as log:
            result, report = execute_run(
                trace, scenario, args.scheduler, params,
                record=lambda rec: log.write(json.dumps(rec, sort_keys=True) + "\n"))
        _log("event log written to %s" % args.event_log)
    else:
        result, report = execute_run(trace, scenario, args.scheduler, params)
    text = run_report_json(result, report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            fh.write("\n")
        _log("report written to %s" % args.out)
    else:
        print(text)
    return 0


def _cmd_sweep(args) -> int:
    params = _params_from_args(args)
    scenarios = [load_scenario(path) for path in args.scenarios]
    traces = load_filtered_corpus(args.corpus, args.trace_format)
    os.makedirs(args.out_dir, exist_ok=True)
    records_dir = args.records_dir or os.path.join(args.out_dir, "records")
    group = args.group or _default_group(t.source_tag for t in traces)
    table = run_sweep(traces, scenarios, args.schedulers, args.seeds, params,
                      records_dir=records_dir, trace_group=group, jobs=args.jobs, log=_log)
    table_txt = os.path.join(args.out_dir, "table.txt")
    table_jsonl = os.path.join(args.out_dir, "table.jsonl")
    with open(table_txt, "w") as fh:
        fh.write(table.to_text())
    with open(table_jsonl, "w") as fh:
        fh.write(table.to_json_lines())
    print(table.to_text(), end="")
    _log("table written to %s and %s; records under %s" % (table_txt, table_jsonl, records_dir))
    return 0


def _cmd_tune(args) -> int:
    params = _params_from_args(args)
    scenario = load_scenario(args.scenario)
    corpus = load_filtered_corpus(args.corpus, args.trace_format)
    train, _ = split_corpus(corpus, args.train_fraction, args.split_seed)
    if not train:
        raise ConfigurationError("training split is empty (corpus of %d, fraction %r)"
                                 % (len(corpus), args.train_fraction))
    cells_path = None
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        cells_path = os.path.join(args.out_dir, "tune_cells.jsonl")
    result = tune_thresholds(args.grid_low_mbps, args.grid_high_mbps, train, scenario,
                             params, seeds=args.seeds, cells_path=cells_path, log=_log)
    print(json.dumps({"best_low_mbps": result.best_low_mbps,
                      "best_high_mbps": result.best_high_mbps,
                      "cells": list(result.cells)}, sort_keys=True))
    if cells_path:
        _log("cells written to %s" % cells_path)
    return 0


def _trace_stats(trace) -> dict:
    return {
        "source": trace.source_tag,
        "samples": len(trace.samples),
        "duration_s": trace.duration_s,
        "mean_mbps": bytes_per_s_to_mbps(trace.mean_throughput()),
        "min_mbps": bytes_per_s_to_mbps(trace.min_throughput()),
        "passes_filter": trace_passes_filter(trace),
    }


def _cmd_traces_parse(args) -> int:
    trace = load_trace(args.input, args.trace_format, bucket_s=args.bucket_s)
    if args.out:
        trace.write_csv(args.out)
        _log("csv written to %s" % args.out)
    print(json.dumps(_trace_stats(trace), sort_keys=True))
    return 0


def _cmd_traces_filter(args) -> int:
    lines = []
    kept = 0
    for trace in load_corpus(args.corpus, args.trace_format):
        stats = _trace_stats(trace)
        kept += 1 if stats["passes_filter"] else 0
        lines.append(json.dumps(stats, sort_keys=True))
    if args.manifest:
        with open(args.manifest, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        _log("manifest written to %s" % args.manifest)
    else:
        print("\n".join(lines))
    _log("kept %d trace(s)" % kept)
    return 0


def _cmd_traces_split(args) -> int:
    traces = load_filtered_corpus(args.corpus, args.trace_format)
    train, test = split_corpus(traces, args.train_fraction, args.seed)
    train_tags = {t.source_tag for t in train}
    lines = [json.dumps({"source": t.source_tag,
                         "split": "train" if t.source_tag in train_tags else "test"},
                        sort_keys=True)
             for t in sorted(traces, key=lambda t: t.source_tag)]
    if args.manifest:
        with open(args.manifest, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        _log("manifest written to %s" % args.manifest)
    else:
        print("\n".join(lines))
    return 0


def _cmd_traces_synthesize(args) -> int:
    params = {}
    for key in ("mbps", "low_mbps", "high_mbps", "period_s", "start_mbps", "end_mbps", "jitter_mbps"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    trace = synthesize_trace(args.kind, args.duration_s, seed=args.seed,
                             sample_s=args.sample_s, **params)
    trace.write_csv(args.out)
    _log("trace written to %s" % args.out)
    print(json.dumps(_trace_stats(trace), sort_keys=True))
    return 0


def _cmd_report(args) -> int:
    records = load_records(args.records)
    table = build_table(records, args.group or _default_group(r["trace"] for r in records))
    text = table.to_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        _log("table written to %s" % args.out)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(table.to_json_lines())
        _log("json table written to %s" % args.json_out)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="blocksched",
                                     description="Deadline- and priority-aware block "
                                                 "scheduling simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation and emit its report")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--trace", required=True)
    p_run.add_argument("--scheduler", default="proposed", choices=SCHEDULER_NAMES)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--trace-format", choices=("csv", "opportunity"), default=None)
    p_run.add_argument("--out", default=None, help="report JSON path (default: stdout)")
    p_run.add_argument("--event-log", default=None, help="optional JSONL event log path")
    _add_run_params(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the full comparison grid")
    p_sweep.add_argument("--corpus", required=True, help="directory of trace files")
    p_sweep.add_argument("--scenarios", nargs="+", required=True)
    p_sweep.add_argument("--schedulers", nargs="+", default=list(SCHEDULER_NAMES),
                         choices=SCHEDULER_NAMES)
    p_sweep.add_argument("--seeds", nargs="+", type=int, default=[0])
    p_sweep.add_argument("--trace-format", choices=("csv", "opportunity"), default=None)
    p_sweep.add_argument("--out-dir", required=True)
    p_sweep.add_argument("--records-dir", default=None,
                         help="per-run record files (default: OUT_DIR/records)")
    p_sweep.add_argument("--group", default=None, help="trace group label (default: corpus dirname)")
    p_sweep.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    _add_run_params(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_tune = sub.add_parser("tune", help="grid-search regime thresholds on the train split")
    p_tune.add_argument("--corpus", required=True)
    p_tune.add_argument("--scenario", required=True)
    p_tune.add_argument("--grid-low-mbps", nargs="+", type=float, default=[0.4, 0.8, 1.2])
    p_tune.add_argument("--grid-high-mbps", nargs="+", type=float, default=[1.8, 2.3, 2.8])
    p_tune.add_argument("--seeds", nargs="+", type=int, default=[0])
    p_tune.add_argument("--train-fraction", type=float, default=0.8)
    p_tune.add_argument("--split-seed", type=int, default=0)
    p_tune.add_argument("--trace-format", choices=("csv", "opportunity"), default=None)
    p_tune.add_argument("--out-dir", default=None)
    _add_run_params(p_tune)
    p_tune.set_defaults(func=_cmd_tune)

    p_traces = sub.add_parser("traces", help="trace corpus utilities")
    tsub = p_traces.add_subparsers(dest="traces_command", required=True)

    tp = tsub.add_parser("parse", help="parse one trace and report stats")
    tp.add_argument("--input", required=True)
    tp.add_argument("--trace-format", choices=("csv", "opportunity"), default=None)
    tp.add_argument("--bucket-s", type=float, default=1.0)
    tp.add_argument("--out", default=None, help="write normalized csv here")
    tp.set_defaults(func=_cmd_traces_parse)

    tf = tsub.add_parser("filter", help="apply corpus eligibility filters")
    tf.add_argument("--corpus", required=True)
    tf.add_argument("--trace-format", choices=("csv", "opportunity"), default=None)
    tf.add_argument("--manifest", default=None)
    tf.set_defaults(func=_cmd_traces_filter)

    ts = tsub.add_parser("split", help="deterministic train/test split of the filtered "
                                      "corpus, the split tune uses")
    ts.add_argument("--corpus", required=True)
    ts.add_argument("--trace-format", choices=("csv", "opportunity"), default=None)
    ts.add_argument("--train-fraction", type=float, default=0.8)
    ts.add_argument("--seed", type=int, default=0)
    ts.add_argument("--manifest", default=None)
    ts.set_defaults(func=_cmd_traces_split)

    ty = tsub.add_parser("synthesize", help="generate a synthetic capacity trace")
    ty.add_argument("--kind", required=True, choices=("constant", "square_wave", "ramp"))
    ty.add_argument("--duration-s", type=float, required=True)
    ty.add_argument("--sample-s", type=float, default=1.0)
    ty.add_argument("--seed", type=int, default=0)
    ty.add_argument("--out", required=True)
    ty.add_argument("--mbps", type=float, default=None)
    ty.add_argument("--low-mbps", type=float, default=None)
    ty.add_argument("--high-mbps", type=float, default=None)
    ty.add_argument("--period-s", type=float, default=None)
    ty.add_argument("--start-mbps", type=float, default=None)
    ty.add_argument("--end-mbps", type=float, default=None)
    ty.add_argument("--jitter-mbps", type=float, default=None)
    ty.set_defaults(func=_cmd_traces_synthesize)

    p_report = sub.add_parser("report", help="re-render a comparison table from records")
    p_report.add_argument("--records", required=True)
    p_report.add_argument("--group", default=None,
                          help="trace group label (default: the records' trace dirname, "
                               "as sweep labels it)")
    p_report.add_argument("--out", default=None)
    p_report.add_argument("--json-out", default=None)
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; those are
        # configuration problems here
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ConfigurationError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (SimulationInvariantError, IllegalStateError) as exc:
        print("invariant violation: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
