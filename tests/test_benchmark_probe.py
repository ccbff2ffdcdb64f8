"""The benchmark's probe reaches into the package by name; keep those names.

perfbench/probe.py wraps module globals and class attributes of the
installed package, and perfbench/run.py drives the runner through the
names below. The benchmark's own smoke test is outside this suite, so a
refactor that renames or inlines one of them is caught here instead.
"""
from __future__ import annotations

import os
import types

import pytest

from blocksched import linksim, model, predictor, runner, schedulers, traces
from conftest import REPO_ROOT, SCENARIO_DIR

PROBE_PATH = os.path.join(REPO_ROOT, "perfbench", "probe.py")
RUNNER_NAMES = ("execute_run", "build_report", "run_sweep", "record_key", "summary_record",
                "load_filtered_corpus", "RunParams")
LIB = types.SimpleNamespace(runner=runner, linksim=linksim, model=model,
                            schedulers=schedulers, predictor=predictor, traces=traces)


def load_probe() -> dict:
    """Execute probe.py from its path without importing it as a module, so
    nothing is written next to it."""
    with open(PROBE_PATH) as fh:
        source = fh.read()
    namespace = {"__name__": "perfbench_probe"}
    exec(compile(source, PROBE_PATH, "exec"), namespace)
    return namespace


PROBE = load_probe()


@pytest.mark.parametrize("span", PROBE["SPANS"], ids=lambda s: s[0])
def test_span_target_is_an_own_attribute(span):
    _, path, attr = span
    owner = PROBE["_resolve"](LIB, path)
    # the probe saves and restores owner.__dict__[attr], so an inherited or
    # re-exported name would not do
    assert callable(vars(owner).get(attr)), "%s.%s" % (path, attr)


def test_runner_names_used_by_the_benchmark():
    for name in RUNNER_NAMES:
        assert hasattr(runner, name), name
    # worker processes must look execute_run up as a module global, or the
    # probe's timing wrapper never runs
    assert "execute_run" in runner._sweep_worker.__code__.co_names


def traced_run(tmp_path, scheduler_name, record=None):
    """One short scenario_1 run under the installed, tracing probe; returns
    the probe's logged line and the (closed) probe."""
    trace = traces.synthesize_trace("constant", duration_s=4.0, seed=0, mbps=1.0)
    scenario = model.load_scenario(os.path.join(SCENARIO_DIR, "scenario_1.json"))
    probe = PROBE["Probe"](LIB, str(tmp_path / "spans.log"))
    try:
        probe.install(tracing=True)
        runner.execute_run(trace, scenario, scheduler_name, runner.RunParams(duration_s=2.0),
                           record=record)
        probe.uninstall()
        (line,) = probe.drain()
    finally:
        probe.close()
    return line, probe


@pytest.mark.parametrize("name", schedulers.SCHEDULER_NAMES)
def test_select_span_counts_every_decision(name, tmp_path):
    # the engine calls select once per decision that has an eligible block,
    # so a policy the probe misses counts 0 and a doubly wrapped select
    # counts twice
    records: list[dict] = []
    line, _ = traced_run(tmp_path, name, record=records.append)
    decisions = sum(1 for r in records if r["kind"] == "decision" and r["eligible"] > 0)
    assert decisions > 0
    assert line["spans"]["schedulers.select"][0] == decisions


def test_traced_run_records_every_span(tmp_path):
    line, probe = traced_run(tmp_path, "proposed")
    assert runner.execute_run is probe.execute_run
    assert [name for name, (calls, _, _) in line["spans"].items() if calls == 0] == []
