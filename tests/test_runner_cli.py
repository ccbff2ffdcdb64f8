"""Experiment harness: sweeps, records, tables, tuning, and the CLI."""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from blocksched import runner
from blocksched.cli import _params_from_args, build_parser, main
from blocksched.errors import ConfigurationError, IllegalStateError, SimulationInvariantError
from blocksched.runner import (
    RunParams,
    build_table,
    execute_run,
    load_filtered_corpus,
    load_records,
    record_key,
    run_sweep,
    tune_thresholds,
)
from blocksched.model import load_scenario
from blocksched.traces import load_trace, split_corpus, synthesize_trace
from conftest import CORPUS_DIR, REPO_ROOT, SCENARIO_DIR, element, quick_params, scenario_of

SCENARIO_1 = os.path.join(SCENARIO_DIR, "scenario_1.json")

# every key of every event-log record, by kind
RECORD_KEYS = {
    "block_arrival": {"kind", "t", "block_id"},
    "block_expired": {"kind", "t", "block_id"},
    "block_complete": {"kind", "t", "block_id", "on_time"},
    "send": {"kind", "t", "packet_id", "size", "retransmission", "thr_instant", "arrives"},
    "ack": {"kind", "t", "packet_id", "thr_smoothed"},
    "loss": {"kind", "t", "packet_id", "thr_smoothed", "requeued"},
    "slot_discard": {"kind", "t", "packet_id"},
    "decision": {"kind", "t", "selected", "reason", "regime", "score", "smoothed_bw",
                 "eligible"},
}


def small_scenario():
    return scenario_of(
        element(element_id=0, priority=0, deadline_s=0.15, block_size_bytes=3000, period_s=0.2),
        element(element_id=1, priority=1, deadline_s=0.25, block_size_bytes=6000, period_s=0.25),
        name="mini")


def small_corpus():
    return [synthesize_trace("constant", duration_s=12.0, seed=0, mbps=1.0),
            synthesize_trace("square_wave", duration_s=12.0, seed=0,
                             low_mbps=0.5, high_mbps=2.5, period_s=4.0),
            synthesize_trace("ramp", duration_s=12.0, seed=0,
                             start_mbps=0.4, end_mbps=2.0)]


def write_corpus(dirpath) -> str:
    os.makedirs(dirpath, exist_ok=True)
    for i, trace in enumerate(small_corpus()):
        trace.write_csv(os.path.join(str(dirpath), "t%02d.csv" % i))
    return str(dirpath)


class TestExecuteRun:
    def test_identical_params_identical_report(self):
        trace = small_corpus()[1]
        params = quick_params(duration_s=2.0, seed=5)
        _, a = execute_run(trace, small_scenario(), "proposed", params)
        _, b = execute_run(trace, small_scenario(), "proposed", params)
        assert a.to_json() == b.to_json()

    def test_block_live_to_the_last_ulp_does_not_abort_the_run(self):
        # a block of this run is checked one ulp inside its window, where
        # now > E + D and now - E > D used to disagree
        trace = load_trace(os.path.join(CORPUS_DIR, "ramp09.csv"))
        params = RunParams(duration_s=8.0, seed=449071)
        result, report = execute_run(trace, load_scenario(SCENARIO_1), "proposed", params)
        assert report.block_count == len(result.blocks) > 0

    def test_event_log_is_json_lines(self, tmp_path, capsys):
        trace = os.path.join(str(tmp_path), "trace.csv")
        small_corpus()[1].write_csv(trace)
        path = os.path.join(str(tmp_path), "events.jsonl")
        code = main(["run", "--scenario", SCENARIO_1, "--trace", trace, "--scheduler", "proposed",
                     "--duration-s", "2", "--seed", "3", "--loss-rate", "0.05",
                     "--event-log", path])
        assert code == 0
        with open(path) as fh:
            lines = [json.loads(line) for line in fh]
        for line in lines:
            assert set(line) == RECORD_KEYS[line["kind"]], line
        assert {"send", "decision", "ack", "loss"} <= {line["kind"] for line in lines}
        records = []
        execute_run(load_trace(trace), load_scenario(SCENARIO_1), "proposed",
                    RunParams(duration_s=2.0, seed=3, loss_rate=0.05), record=records.append)
        assert lines == records

    def test_defaults_have_one_home(self, tmp_path, capsys):
        # the CLI's flags default to RunParams' fields, so the CLI's default
        # run is a default RunParams run
        trace_path = os.path.join(CORPUS_DIR, "sq01.csv")
        argv = ["run", "--scenario", SCENARIO_1, "--trace", trace_path, "--duration-s", "8"]
        params = RunParams(duration_s=8.0)
        assert _params_from_args(build_parser().parse_args(argv)) == params
        records: list[dict] = []
        execute_run(load_trace(trace_path), load_scenario(SCENARIO_1), "proposed", params,
                    record=records.append)
        log = os.path.join(str(tmp_path), "events.jsonl")
        assert main(argv + ["--event-log", log]) == 0
        with open(log) as fh:
            logged = [json.loads(line) for line in fh]
        assert records == logged
        assert any(r["kind"] == "loss" for r in records)  # the loss rate is exercised


class TestRecordKeys:
    def test_slug_drops_directories_and_extensions(self):
        assert record_key("proposed", "sc one", "traces/x y.csv", 2) == "proposed__sc-one__x-y__s2"

    def test_distinct_dimensions_distinct_keys(self):
        keys = {record_key(s, "sc", "tr", seed)
                for s in ("proposed", "fifo") for seed in (0, 1)}
        assert len(keys) == 4


class TestSweep:
    SCHEDULERS = ["proposed", "fifo", "ldf"]

    def _sweep(self, records_dir):
        return run_sweep(small_corpus(), [small_scenario()], self.SCHEDULERS, [0],
                         quick_params(duration_s=2.0), records_dir=str(records_dir),
                         trace_group="smoke")

    def test_records_and_rows(self, tmp_path):
        records_dir = tmp_path / "records"
        table = self._sweep(records_dir)
        files = sorted(os.listdir(records_dir))
        assert len(files) == 9  # 3 schedulers x 3 traces x 1 seed
        assert all(name.endswith(".json") for name in files)
        assert len(table.rows) == 3
        assert table.rows[0].scheduler == "proposed"  # listed before baselines
        assert all(r.runs == 3 and r.trace_group == "smoke" for r in table.rows)

    def test_record_is_the_report_as_a_dict(self, tmp_path):
        records_dir = tmp_path / "records"
        self._sweep(records_dir)
        trace = small_corpus()[1]
        _, report = execute_run(trace, small_scenario(), "fifo", quick_params(duration_s=2.0))
        assert runner.summary_record(report) == report.to_dict()
        name = record_key("fifo", "mini", trace.source_tag, 0) + ".json"
        with open(os.path.join(str(records_dir), name)) as fh:
            record = json.load(fh)
        assert record == report.to_dict()
        assert "blocks" not in record

    def test_gain_columns_follow_their_definitions(self, tmp_path):
        table = self._sweep(tmp_path / "records")
        proposed = table.row("proposed", "mini")
        baselines = [table.row(s, "mini") for s in ("fifo", "ldf")]
        for row in baselines:
            assert row.qoe_gain_vs_baseline_pct == pytest.approx(
                100.0 * (proposed.qoe - row.qoe) / row.qoe)
        best = max(r.qoe for r in baselines)
        assert proposed.qoe_gain_vs_baseline_pct == pytest.approx(
            100.0 * (proposed.qoe - best) / best)

    def test_resume_skips_existing_records(self, tmp_path):
        records_dir = tmp_path / "records"
        first = self._sweep(records_dir)
        stamps = {name: os.stat(os.path.join(str(records_dir), name)).st_mtime_ns
                  for name in os.listdir(records_dir)}
        second = self._sweep(records_dir)
        after = {name: os.stat(os.path.join(str(records_dir), name)).st_mtime_ns
                 for name in os.listdir(records_dir)}
        assert stamps == after  # nothing re-ran or rewrote
        assert first == second

    def test_crash_mid_write_leaves_no_partial_record(self, tmp_path, monkeypatch):
        records_dir = tmp_path / "records"
        clean = self._sweep(tmp_path / "clean")
        real_open = open
        written = []  # the paths runner opened for writing, in order

        class HalfWrite:
            """A record file whose write puts down half its bytes, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                self.fh.flush()
                raise OSError("disk full")

        def open_then_crash(path, mode="r", *args, **kw):
            # the third record written gets half its bytes, then the write fails
            fh = real_open(path, mode, *args, **kw)
            if "w" in mode:
                written.append(path)
                if len(written) == 3:
                    return HalfWrite(fh)
            return fh

        monkeypatch.setattr(runner, "open", open_then_crash, raising=False)
        with pytest.raises(OSError, match="disk full"):
            self._sweep(records_dir)
        monkeypatch.delattr(runner, "open")
        names = sorted(os.listdir(records_dir))
        assert len(names) == 2 and all(n.endswith(".json") for n in names)
        # the write went to a temp file "<record>.<pid>.tmp" beside the record
        crashed = os.path.basename(written[2]).rsplit(".", 2)[0]
        assert crashed not in names and crashed in os.listdir(tmp_path / "clean")
        resumed = self._sweep(records_dir)
        assert resumed == clean
        assert sorted(os.listdir(records_dir)) == sorted(os.listdir(tmp_path / "clean"))
        for name in os.listdir(records_dir):
            assert (records_dir / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()

    def test_interrupted_serial_sweep_keeps_finished_records(self, tmp_path, monkeypatch):
        records_dir = tmp_path / "records"
        clean = self._sweep(tmp_path / "clean")
        real_worker = runner._sweep_worker
        calls = []

        def interrupt_eighth(args):
            calls.append(args)
            if len(calls) == 8:
                raise KeyboardInterrupt
            return real_worker(args)

        monkeypatch.setattr(runner, "_sweep_worker", interrupt_eighth)
        with pytest.raises(KeyboardInterrupt):
            self._sweep(records_dir)
        names = sorted(os.listdir(records_dir))
        assert len(names) == 7 and all(n.endswith(".json") for n in names)
        calls.clear()
        resumed = self._sweep(records_dir)
        assert len(calls) == 2  # only the interrupted cell and the one after it
        assert resumed == clean
        for name in os.listdir(tmp_path / "clean"):
            assert (records_dir / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()

    def test_failing_parallel_cell_keeps_earlier_records(self, tmp_path):
        # the broken scenario's cells come after every cell of the good one;
        # its invalid deadline fails generate_blocks inside the worker
        broken = scenario_of(element(deadline_s=-1.0), name="broken")
        records_dir = tmp_path / "records"
        with pytest.raises(ConfigurationError, match="deadline_s must be positive"):
            run_sweep(small_corpus(), [small_scenario(), broken], ["fifo"], [0, 1],
                      quick_params(duration_s=2.0), records_dir=str(records_dir), jobs=2)
        names = sorted(os.listdir(records_dir))
        assert names == sorted(record_key("fifo", "mini", trace.source_tag, seed) + ".json"
                               for trace in small_corpus() for seed in (0, 1))

    def test_parallel_sweep_logs_like_serial(self, tmp_path):
        logs = {}
        for jobs in (1, 2):
            logs[jobs] = []
            run_sweep(small_corpus(), [small_scenario()], self.SCHEDULERS, [0],
                      quick_params(duration_s=2.0), records_dir=str(tmp_path / str(jobs)),
                      jobs=jobs, log=logs[jobs].append)
        assert len(logs[1]) == 9 and logs[1][-1].startswith("run 9/9 ")
        assert logs[2] == logs[1]

    def test_table_regenerates_from_records_alone(self, tmp_path):
        records_dir = tmp_path / "records"
        table = self._sweep(records_dir)
        rebuilt = build_table(load_records(str(records_dir)), "smoke")
        assert rebuilt == table

    def test_text_rendering(self, tmp_path):
        table = self._sweep(tmp_path / "records")
        text = table.to_text()
        lines = text.splitlines()
        assert lines[0].startswith("scheduler")
        assert lines[0].endswith("qoe_gain_vs_baseline_%")
        assert len(lines) == 2 + len(table.rows)

    def test_baseline_only_records_render_dash_for_gain(self):
        records = [{"scheduler": "fifo", "scenario": "mini", "trace": "t", "seed": 0,
                    "delivery_ratio": 0.5, "utilization": 0.4,
                    "effective_utilization": 0.3, "qoe": 0.84}]
        table = build_table(records, "g")
        assert table.rows[0].qoe_gain_vs_baseline_pct is None
        assert table.to_text().splitlines()[2].endswith("-")

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep([], [small_scenario()], ["fifo"], [0], quick_params(duration_s=1.0))
        with pytest.raises(ConfigurationError):
            run_sweep(small_corpus(), [small_scenario()], [], [0], quick_params(duration_s=1.0))

    @pytest.mark.parametrize("schedulers, seeds", [(["fifo"], [0, 0]), (["fifo", "fifo"], [0])])
    def test_repeated_cell_rejected_before_any_run(self, tmp_path, schedulers, seeds):
        records_dir = tmp_path / "records"
        with pytest.raises(ConfigurationError, match=r"repeats the run fifo__mini__\S+__s0"):
            run_sweep(small_corpus()[:1], [small_scenario()], schedulers, seeds,
                      quick_params(duration_s=1.0), records_dir=str(records_dir))
        assert not records_dir.exists()


class TestTuneThresholds:
    def test_singleton_grid_returns_its_pair(self, tmp_path):
        cells_path = os.path.join(str(tmp_path), "cells.jsonl")
        result = tune_thresholds([0.8], [2.3], small_corpus()[:1], small_scenario(),
                                 quick_params(duration_s=1.5), cells_path=cells_path)
        assert (result.best_low_mbps, result.best_high_mbps) == (0.8, 2.3)
        assert len(result.cells) == 1
        with open(cells_path) as fh:
            lines = [json.loads(line) for line in fh]
        assert lines == [dict(result.cells[0])]

    def test_best_cell_matches_argmax_rule(self):
        result = tune_thresholds([0.4, 0.8], [1.8, 2.3], small_corpus()[:2],
                                 small_scenario(), quick_params(duration_s=1.5),
                                 seeds=(0, 1))
        assert len(result.cells) == 4
        assert all(c["runs"] == 4 for c in result.cells)  # 2 traces x 2 seeds
        expected = max(result.cells,
                       key=lambda c: (c["mean_qoe"], -c["low_mbps"], -c["high_mbps"]))
        assert (result.best_low_mbps, result.best_high_mbps) == (
            expected["low_mbps"], expected["high_mbps"])
        # cells are enumerated in sorted grid order
        assert [(c["low_mbps"], c["high_mbps"]) for c in result.cells] == [
            (0.4, 1.8), (0.4, 2.3), (0.8, 1.8), (0.8, 2.3)]

    def test_inverted_pair_rejected(self):
        with pytest.raises(ConfigurationError):
            tune_thresholds([2.3], [0.8], small_corpus()[:1], small_scenario(),
                            quick_params(duration_s=1.0))

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            tune_thresholds([], [2.3], small_corpus()[:1], small_scenario(),
                            quick_params(duration_s=1.0))

    def test_repeated_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="repeats the run"):
            tune_thresholds([0.8], [2.3], small_corpus()[:1], small_scenario(),
                            quick_params(duration_s=1.0), seeds=(0, 0))


class TestLoadFilteredCorpus:
    def test_loads_and_keeps_in_band_traces(self, tmp_path):
        corpus = write_corpus(tmp_path / "corpus")
        traces = load_filtered_corpus(corpus)
        assert len(traces) == 3

    def test_out_of_band_corpus_is_an_error(self, tmp_path):
        d = tmp_path / "fast"
        os.makedirs(str(d))
        synthesize_trace("constant", duration_s=5.0, seed=0, mbps=8.0).write_csv(
            os.path.join(str(d), "fast.csv"))
        with pytest.raises(ConfigurationError, match="after filtering"):
            load_filtered_corpus(str(d))

    def test_missing_directory_is_an_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_filtered_corpus(os.path.join(str(tmp_path), "nope"))


class TestCli:
    def _write_trace(self, tmp_path, name="trace.csv"):
        path = os.path.join(str(tmp_path), name)
        small_corpus()[0].write_csv(path)
        return path

    def test_run_prints_report_json(self, tmp_path, capsys):
        trace = self._write_trace(tmp_path)
        code = main(["run", "--scenario", SCENARIO_1, "--trace", trace,
                     "--duration-s", "1.5", "--loss-rate", "0"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) >= {"qoe", "delivery_ratio", "utilization", "scheduler"}
        assert report["scheduler"] == "proposed"

    def test_run_reads_scenario_and_trace_files(self, tmp_path, capsys):
        trace = self._write_trace(tmp_path, "c.csv")
        code = main(["run", "--scenario", SCENARIO_1, "--trace", trace,
                     "--scheduler", "fifo", "--duration-s", "1.5", "--loss-rate", "0"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scheduler"] == "fifo"
        assert report["block_count"] == len(report["blocks"]) > 0

    def test_run_writes_report_and_event_log(self, tmp_path, capsys):
        trace = self._write_trace(tmp_path)
        out = os.path.join(str(tmp_path), "report.json")
        log = os.path.join(str(tmp_path), "events.jsonl")
        code = main(["run", "--scenario", SCENARIO_1, "--trace", trace,
                     "--duration-s", "1.5", "--scheduler", "ldf",
                     "--out", out, "--event-log", log])
        assert code == 0
        with open(out) as fh:
            assert json.load(fh)["scheduler"] == "ldf"
        with open(log) as fh:
            assert all(json.loads(line) for line in fh)

    def test_sweep_writes_tables_and_records(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "corpus")
        out_dir = os.path.join(str(tmp_path), "out")
        code = main(["sweep", "--corpus", corpus, "--scenarios", SCENARIO_1,
                     "--schedulers", "proposed", "fifo", "--seeds", "0",
                     "--duration-s", "1.5", "--out-dir", out_dir, "--jobs", "1"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "qoe_gain_vs_baseline_%" in stdout
        assert os.path.exists(os.path.join(out_dir, "table.txt"))
        assert os.path.exists(os.path.join(out_dir, "table.jsonl"))
        records = os.listdir(os.path.join(out_dir, "records"))
        assert len(records) == 6  # 2 schedulers x 3 traces

    @pytest.mark.parametrize("flag, value, message", [
        ("--alpha", "nan", "alpha must be non-negative and finite"),
        ("--loss-rate", "7", "loss_rate must be in [0, 1)"),
    ], ids=["alpha", "loss"])
    def test_resumed_sweep_checks_its_settings(self, tmp_path, capsys, flag, value, message):
        # every record exists, so the resumed sweep would run nothing and
        # print a table of records made with the old settings
        corpus = write_corpus(tmp_path / "corpus")
        out_dir = os.path.join(str(tmp_path), "out")
        argv = ["sweep", "--corpus", corpus, "--scenarios", SCENARIO_1, "--schedulers", "fifo",
                "--seeds", "0", "--duration-s", "1", "--out-dir", out_dir, "--jobs", "1"]
        assert main(argv) == 0
        with open(os.path.join(out_dir, "table.txt")) as fh:
            table = fh.read()
        capsys.readouterr()
        assert main(argv + [flag, value]) == 1
        assert message in capsys.readouterr().err
        with open(os.path.join(out_dir, "table.txt")) as fh:
            assert fh.read() == table

    def test_tune_checks_its_settings_before_any_cell(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return execute_run(*args, **kwargs)

        monkeypatch.setattr(runner, "execute_run", counting)
        corpus = write_corpus(tmp_path / "corpus")
        argv = ["tune", "--corpus", corpus, "--scenario", SCENARIO_1,
                "--grid-low-mbps", "0.8", "--grid-high-mbps", "2.3", "--duration-s", "1"]
        assert main(argv + ["--alpha", "nan"]) == 1
        assert "alpha must be non-negative and finite" in capsys.readouterr().err
        assert calls == []
        assert main(argv) == 0  # the count sees the cells of a valid tune
        assert len(calls) == 2  # one cell over the two traces of the training split

    def test_sweep_with_repeated_seeds_exits_1_and_writes_no_records(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "corpus")
        out_dir = os.path.join(str(tmp_path), "out")
        code = main(["sweep", "--corpus", corpus, "--scenarios", SCENARIO_1,
                     "--schedulers", "fifo", "--seeds", "0", "0",
                     "--duration-s", "1", "--out-dir", out_dir, "--jobs", "1"])
        assert code == 1
        assert "repeats the run fifo__scenario_1__t00__s0" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out_dir, "records"))

    def test_report_rerenders_sweep_table(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "corpus")
        out_dir = os.path.join(str(tmp_path), "out")
        main(["sweep", "--corpus", corpus, "--scenarios", SCENARIO_1,
              "--schedulers", "proposed", "fifo", "--seeds", "0",
              "--duration-s", "1.5", "--out-dir", out_dir, "--jobs", "1",
              "--group", "corpus"])
        with open(os.path.join(out_dir, "table.txt")) as fh:
            sweep_text = fh.read()
        capsys.readouterr()
        code = main(["report", "--records", os.path.join(out_dir, "records"),
                     "--group", "corpus"])
        assert code == 0
        assert capsys.readouterr().out == sweep_text

    def test_report_without_group_reproduces_sweep_tables(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "mycorpus")
        out_dir = os.path.join(str(tmp_path), "out")
        assert main(["sweep", "--corpus", corpus, "--scenarios", SCENARIO_1,
                     "--schedulers", "proposed", "fifo", "--seeds", "0",
                     "--duration-s", "1.5", "--out-dir", out_dir, "--jobs", "1"]) == 0
        text_out = os.path.join(str(tmp_path), "report.txt")
        json_out = os.path.join(str(tmp_path), "report.jsonl")
        assert main(["report", "--records", os.path.join(out_dir, "records"),
                     "--out", text_out, "--json-out", json_out]) == 0
        for sweep_name, report_path in (("table.txt", text_out), ("table.jsonl", json_out)):
            with open(os.path.join(out_dir, sweep_name), "rb") as a, open(report_path, "rb") as b:
                assert a.read() == b.read()
        with open(text_out) as fh:
            assert fh.read().splitlines()[2].split()[2] == "mycorpus"

    def test_tune_prints_best_pair(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "corpus")
        out_dir = os.path.join(str(tmp_path), "tuned")
        code = main(["tune", "--corpus", corpus, "--scenario", SCENARIO_1,
                     "--grid-low-mbps", "0.8", "--grid-high-mbps", "2.3",
                     "--duration-s", "1.5", "--train-fraction", "0.8",
                     "--out-dir", out_dir])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["best_low_mbps"] == 0.8
        assert payload["best_high_mbps"] == 2.3
        assert os.path.exists(os.path.join(out_dir, "tune_cells.jsonl"))

    def test_traces_synthesize_then_parse(self, tmp_path, capsys):
        out = os.path.join(str(tmp_path), "wave.csv")
        code = main(["traces", "synthesize", "--kind", "square_wave",
                     "--duration-s", "10", "--low-mbps", "0.5", "--high-mbps", "2.5",
                     "--period-s", "4", "--out", out])
        assert code == 0
        synth_stats = json.loads(capsys.readouterr().out)
        assert synth_stats["passes_filter"] is True
        code = main(["traces", "parse", "--input", out])
        assert code == 0
        parse_stats = json.loads(capsys.readouterr().out)
        assert parse_stats["mean_mbps"] == pytest.approx(synth_stats["mean_mbps"])

    def test_traces_filter_and_split_manifests(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "corpus")
        manifest = os.path.join(str(tmp_path), "filter.jsonl")
        assert main(["traces", "filter", "--corpus", corpus,
                     "--manifest", manifest]) == 0
        with open(manifest) as fh:
            stats = [json.loads(line) for line in fh]
        assert len(stats) == 3 and all(s["passes_filter"] for s in stats)

        manifest2 = os.path.join(str(tmp_path), "split.jsonl")
        assert main(["traces", "split", "--corpus", corpus, "--train-fraction", "0.67",
                     "--seed", "0", "--manifest", manifest2]) == 0
        with open(manifest2) as fh:
            splits = [json.loads(line)["split"] for line in fh]
        # floor(3 * 0.67) = 2 traces land in the training split
        assert sorted(splits) == ["test", "train", "train"]

    def test_traces_split_splits_the_corpus_tune_trains_on(self, tmp_path, capsys):
        corpus = str(tmp_path / "corpus")
        os.makedirs(corpus)
        bundled = ["sq01", "sq02", "sq05", "ramp01", "ramp09"]
        for name in bundled:
            shutil.copy(os.path.join(CORPUS_DIR, name + ".csv"), corpus)
        # 5 Mbps is above the corpus filter's 3 Mbps mean bound
        synthesize_trace("constant", duration_s=20.0, mbps=5.0).write_csv(
            os.path.join(corpus, "fast.csv"))
        manifest = os.path.join(str(tmp_path), "split.jsonl")
        assert main(["traces", "split", "--corpus", corpus, "--train-fraction", "0.6",
                     "--manifest", manifest]) == 0
        with open(manifest) as fh:
            lines = [json.loads(line) for line in fh]
        assert sorted(line["source"] for line in lines) == sorted(
            os.path.join(corpus, name + ".csv") for name in bundled)
        train, _ = split_corpus(load_filtered_corpus(corpus), 0.6, 0)
        assert {line["source"] for line in lines if line["split"] == "train"} == {
            t.source_tag for t in train}

    def test_usage_errors_exit_1(self, capsys):
        assert main(["run", "--scenario", "x"]) == 1  # missing required args
        assert main(["run", "--scenario", "x", "--trace", "y",
                     "--duration-s", "1", "--scheduler", "bogus"]) == 1
        assert main(["nope"]) == 1
        capsys.readouterr()
        # a removed policy's name is a usage error like any unknown one
        assert main(["run", "--scenario", "x", "--trace", "y",
                     "--duration-s", "1", "--scheduler", "sfra"]) == 1
        assert "invalid choice: 'sfra'" in capsys.readouterr().err

    def test_config_errors_exit_1(self, tmp_path, capsys):
        trace = self._write_trace(tmp_path)
        assert main(["run", "--scenario", SCENARIO_1, "--trace", trace,
                     "--duration-s", "-5"]) == 1
        assert main(["sweep", "--corpus", os.path.join(str(tmp_path), "missing"),
                     "--scenarios", SCENARIO_1, "--duration-s", "1",
                     "--out-dir", os.path.join(str(tmp_path), "o")]) == 1

    def _run_in_child(self, *args, timeout=60):
        """`blocksched` with args in a child process under a timeout, for
        inputs that would make an unchecked run loop forever."""
        return self._python_in_child("-m", "blocksched.cli", *args, timeout=timeout)

    def _python_in_child(self, *args, timeout=60):
        """The interpreter with args in a child process that imports this
        checkout's package."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO_ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        return subprocess.run([sys.executable, *args],
                              capture_output=True, text=True, timeout=timeout, env=env)

    def test_cli_import_leaves_the_process_pool_unloaded(self):
        # only a sweep with --jobs above 1 imports the pool, so run, report,
        # tune and a serial sweep never load multiprocessing
        proc = self._python_in_child(
            "-c", "import sys, blocksched.cli; print(sorted(m for m in sys.modules"
                  " if m in ('concurrent.futures.process', 'multiprocessing')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_nan_scenario_file_exits_1(self, tmp_path):
        # json reads NaN, and a NaN period would make block generation
        # loop forever, so the command runs in a child under a timeout
        data = dataclasses.asdict(load_scenario(SCENARIO_1))
        data["elements"][0]["period_s"] = float("nan")
        scenario = os.path.join(str(tmp_path), "nan.json")
        with open(scenario, "w") as fh:
            json.dump(data, fh)
        proc = self._run_in_child("run", "--scenario", scenario,
                                  "--trace", self._write_trace(tmp_path), "--duration-s", "1")
        assert proc.returncode == 1, proc.stderr
        assert "period_s must be positive and finite, got nan" in proc.stderr

    # unchecked, a non-finite horizon generates blocks forever, a NaN RTT
    # breaks the event clock and a NaN alpha scores a NaN QoE
    @pytest.mark.parametrize("flag, message", [
        ("--duration-s", "duration_s must be positive and finite"),
        ("--rtt-ms", "rtt_s must be positive and finite"),
        ("--alpha", "alpha must be non-negative and finite"),
    ], ids=["duration", "rtt", "alpha"])
    def test_non_finite_run_parameter_exits_1(self, tmp_path, flag, message):
        trace = self._write_trace(tmp_path)
        for value in ("nan", "inf"):
            args = ["run", "--scenario", SCENARIO_1, "--trace", trace, "--duration-s", "1"]
            args += [flag, value]  # a repeated --duration-s takes the last value
            proc = self._run_in_child(*args, timeout=30)
            assert proc.returncode == 1, (value, proc.stderr)
            assert message in proc.stderr and "invariant violation" not in proc.stderr, value

    def test_all_zero_trace_exits_1(self, tmp_path, capsys):
        trace = os.path.join(str(tmp_path), "dead.csv")
        with open(trace, "w") as fh:
            fh.write("0.0,0.0\n1.0,0.0\n")
        assert main(["run", "--scenario", SCENARIO_1, "--trace", trace,
                     "--duration-s", "1"]) == 1
        err = capsys.readouterr().err
        assert "zero bytes per loop" in err and "invariant violation" not in err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert main(["run", "--help"]) == 0

    def test_invariant_violations_exit_2(self, tmp_path, capsys, monkeypatch):
        import blocksched.cli as cli_module

        def boom(*args):
            raise SimulationInvariantError("synthetic failure")

        monkeypatch.setattr(cli_module, "execute_run", boom)
        trace = self._write_trace(tmp_path)
        assert main(["run", "--scenario", SCENARIO_1, "--trace", trace,
                     "--duration-s", "1"]) == 2

    def test_rtt_lost_in_rounding_exits_2(self, tmp_path, capsys):
        # a loss signal lands a rounded-away round trip after its send: the
        # response window is empty, which no configuration check can see
        trace = self._write_trace(tmp_path)
        assert main(["run", "--scenario", SCENARIO_1, "--trace", trace, "--duration-s", "1",
                     "--rtt-ms", "1e-297", "--loss-rate", "0.9"]) == 2
        assert "non-positive width" in capsys.readouterr().err

    def test_illegal_state_during_run_exits_2(self, tmp_path, capsys, monkeypatch):
        import blocksched.cli as cli_module

        def boom(*args):
            raise IllegalStateError("block (0, 3) is expired at 0.95")

        monkeypatch.setattr(cli_module, "execute_run", boom)
        trace = self._write_trace(tmp_path)
        assert main(["run", "--scenario", SCENARIO_1, "--trace", trace,
                     "--duration-s", "1"]) == 2
        err = capsys.readouterr().err
        assert "invariant violation: block (0, 3) is expired" in err
        assert "Traceback" not in err
