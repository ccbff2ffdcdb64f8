"""Shared builders for the test suite."""
from __future__ import annotations

import os

import pytest
from hypothesis import settings

from blocksched.linksim import Simulation
from blocksched.model import Block, MediaElement, ScenarioConfig, build_packets
from blocksched.predictor import Thresholds
from blocksched.runner import RunParams

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIO_DIR = os.path.join(REPO_ROOT, "scenarios")
CORPUS_DIR = os.path.join(REPO_ROOT, "traces", "synthetic")


def element(element_id=0, priority=0, deadline_s=0.2, block_size_bytes=3000, period_s=0.15):
    return MediaElement(element_id=element_id, priority=priority, deadline_s=deadline_s,
                        block_size_bytes=block_size_bytes, period_s=period_s)


def scenario_of(*elements, name="test"):
    return ScenarioConfig(name=name, elements=list(elements))


def block_at(arrival_time=0.0, deadline_s=0.2, priority=0, total_bytes=3000,
             element_id=0, index=0) -> Block:
    block_id = (element_id, index)
    return Block(
        block_id=block_id,
        element_id=element_id,
        index=index,
        arrival_time=arrival_time,
        deadline_s=deadline_s,
        priority=priority,
        total_bytes=total_bytes,
        packets=build_packets(block_id, total_bytes),
    )


@pytest.fixture
def default_thresholds():
    return Thresholds.from_mbps(0.8, 2.3)


def quick_params(duration_s=5.0, **kw) -> RunParams:
    kw.setdefault("seed", 0)
    return RunParams(duration_s=duration_s, **kw)


def run_recorded(trace, scenario, scheduler, drive=Simulation.run, **kw):
    """Build a Simulation whose record sink is a list, drive it (a full run
    by default) and return (what drive returned, the records in engine
    order)."""
    records: list[dict] = []
    sim = Simulation(trace, scenario, scheduler, record=records.append, **kw)
    return drive(sim), records


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Repeat the acceptance-criteria verdict lines after the test run, so
    they are visible even when pytest captured the tests' stdout."""
    try:
        import test_acceptance
    except Exception:
        return
    lines = sorted(test_acceptance.CRITERION_LINES)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
