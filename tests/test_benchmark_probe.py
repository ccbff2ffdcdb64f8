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


def test_every_scheduler_defines_its_own_select():
    names = {cls.name for cls in schedulers.Scheduler.__subclasses__() if "select" in vars(cls)}
    assert names == set(schedulers.SCHEDULER_NAMES)


def test_traced_run_records_every_span(tmp_path):
    trace = traces.synthesize_trace("constant", duration_s=4.0, seed=0, mbps=1.0)
    scenario = model.load_scenario(os.path.join(SCENARIO_DIR, "scenario_1.json"))
    probe = PROBE["Probe"](LIB, str(tmp_path / "spans.log"))
    try:
        probe.install(tracing=True)
        runner.execute_run(trace, scenario, "proposed", runner.RunParams(duration_s=2.0))
        probe.uninstall()
        (line,) = probe.drain()
    finally:
        probe.close()
    assert runner.execute_run is probe.execute_run
    assert [name for name, (calls, _, _) in line["spans"].items() if calls == 0] == []
