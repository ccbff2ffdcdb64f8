"""Shared builders and checks for the test suite."""
from __future__ import annotations

import math
import os

import pytest
from hypothesis import settings

from blocksched.linksim import RunParams, Simulation
from blocksched.model import Block, MediaElement, ScenarioConfig
from blocksched.predictor import Thresholds
from blocksched.traces import synthesize_trace
from blocksched.units import PACKET_PAYLOAD_BYTES

# HYPOTHESIS_PROFILE=fuzz runs the engine fuzz property at length (see
# test_engine_fuzz.py); every other property is cheap at either count.
settings.register_profile("suite", max_examples=60, deadline=None)
settings.register_profile("fuzz", max_examples=1500, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))

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
    return Block(
        block_id=(element_id, index),
        element_id=element_id,
        arrival_time=arrival_time,
        deadline_s=deadline_s,
        priority=priority,
        total_bytes=total_bytes,
    )


def built_block(**kw) -> Block:
    """block_at(**kw) with every packet built, as after the sender took
    each once; a block keeps the count, not the packets."""
    block = block_at(**kw)
    block.unsent = 0
    return block


def acked_prefix_bytes(block: Block, acked: int) -> int:
    """The bytes of a block's first acked packets: full payloads, then the
    smaller tail."""
    return min(block.total_bytes, acked * PACKET_PAYLOAD_BYTES)


def ulps_from(x: float, k: int) -> float:
    """The float k steps from x: up for positive k, down for negative."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def deep_queue_inputs(duration_s=6.0):
    """Twelve elements offering about 5 Mbps over a jittered 0.5/2.5 Mbps
    square wave: the queue grows dozens of blocks deep, so every decision
    sees many eligible blocks. Returns (scenario, trace)."""
    elements = 12
    share = 5.0 * 125000.0 / elements  # bytes/s offered per element
    members = []
    for i in range(elements):
        size = 3000 + 12000 * i // (elements - 1)
        deadline = 0.4 + 0.8 * (i * 5 % elements) / (elements - 1)
        members.append(element(element_id=i, priority=i * 7 % elements,
                               deadline_s=round(deadline, 3), block_size_bytes=size,
                               period_s=size / share))
    trace = synthesize_trace("square_wave", duration_s, seed=7, sample_s=0.5, low_mbps=0.5,
                             high_mbps=2.5, period_s=4.0, jitter_mbps=0.2,
                             source_tag="deep-square")
    return scenario_of(*members, name="deep_queue"), trace


@pytest.fixture
def default_thresholds():
    return Thresholds.from_mbps(0.8, 2.3)


def quick_params(duration_s=5.0, **kw) -> RunParams:
    kw.setdefault("seed", 0)
    return RunParams(duration_s=duration_s, **kw)


class ForcedLoss:
    """Stands in for a Simulation's loss stream: it takes the real draw for
    every send, so no other send's fate changes, and at the forced send
    indices (counted from 0 in send order) returns a value below any loss
    rate, so those sends are lost."""

    def __init__(self, stream, forced_sends):
        self.stream = stream
        self.forced_sends = frozenset(forced_sends)
        self.sends = 0

    def random(self) -> float:
        draw = self.stream.random()
        index = self.sends
        self.sends += 1
        return -1.0 if index in self.forced_sends else draw


def force_losses(sim: Simulation, forced_sends) -> Simulation:
    """Lose sim's sends at the given send indices; see ForcedLoss."""
    sim._loss_rng = ForcedLoss(sim._loss_rng, forced_sends)
    return sim


def run_recorded(trace, scenario, scheduler, params: RunParams, drive=Simulation.run,
                 forced_loss_sends=None):
    """Build a Simulation whose record sink is a list, drive it (a full run
    by default) and return (the simulation, the records in engine order).
    With forced_loss_sends, those send indices are lost too."""
    records: list[dict] = []
    sim = Simulation(trace, scenario, scheduler, params, record=records.append)
    if forced_loss_sends is not None:
        force_losses(sim, forced_loss_sends)
    drive(sim)
    return sim, records


def check_estimate(records, low) -> None:
    """Each response's sample and each decision's estimate, rebuilt from
    the log's sends and responses in log order; low is the estimate
    before the first sample."""
    inflight = {}  # packet id -> (size, send time) of the sends not yet answered
    latest = low
    for r in records:
        if r["kind"] == "send":
            inflight[tuple(r["packet_id"])] = (r["size"], r["t"])
        elif r["kind"] in ("ack", "loss"):
            packet_id = tuple(r["packet_id"])
            sent_at = inflight[packet_id][1]
            # the measured packet's own bytes count: it is still in flight
            window_bytes = sum(size for size, t in inflight.values() if t >= sent_at)
            assert r["thr_smoothed"] == window_bytes / (r["t"] - sent_at), r
            del inflight[packet_id]
            latest = r["thr_smoothed"]
        elif r["kind"] == "decision":
            assert r["smoothed_bw"] == latest, r
    assert not inflight


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
