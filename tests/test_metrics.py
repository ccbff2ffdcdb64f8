"""Delivery indicator, utilization, and session quality scores."""
from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from blocksched.errors import SimulationInvariantError
from blocksched.linksim import RunParams, Simulation
from blocksched.model import BlockAwaitingQueue
from blocksched.metrics import (
    build_report,
    channel_utilization,
    run_report_json,
    session_qoe,
    session_window_end,
)
from blocksched.schedulers import make_scheduler
from blocksched.traces import synthesize_trace
from conftest import block_at, element, run_recorded, scenario_of


def completed_on_time(arrival: float, completion: float, deadline: float) -> bool:
    """``Block.on_time`` of a block the queue completed at completion."""
    block = block_at(arrival_time=arrival, deadline_s=deadline)
    queue = BlockAwaitingQueue()
    queue.enqueue(block)
    queue.complete(block, completion)
    return block.on_time


class TestDeliveryIndicator:
    """The one on-time rule, ``Block.on_time``, against the paper's
    F - E <= D."""

    def test_on_time_inside_window(self):
        assert completed_on_time(1.0, 1.05, 0.1) is True

    def test_exactly_at_deadline_counts(self):
        assert completed_on_time(0.0, 0.1, 0.1) is True

    def test_one_millisecond_late_does_not(self):
        assert completed_on_time(0.0, 0.101, 0.1) is False

    def test_never_completed_is_late(self):
        assert block_at(arrival_time=1.0, deadline_s=0.1).on_time is False

    @given(arrival=st.floats(min_value=0, max_value=100),
           lateness=st.floats(min_value=0, max_value=10),
           deadline=st.floats(min_value=1e-3, max_value=10))
    def test_indicator_matches_inequality(self, arrival, lateness, deadline):
        completion = arrival + lateness
        expected = completion - arrival <= deadline
        assert completed_on_time(arrival, completion, deadline) == expected


class TestUtilization:
    def test_half_the_offered_bytes(self):
        assert channel_utilization(500.0, 1000.0) == 0.5

    def test_clamped_at_one(self):
        assert channel_utilization(1500.0, 1000.0) == 1.0

    def test_zero_offered_rejected(self):
        with pytest.raises(SimulationInvariantError, match="offered_bytes must be positive"):
            channel_utilization(10.0, 0.0)

    def test_negative_received_rejected(self):
        with pytest.raises(SimulationInvariantError, match="received_bytes must be non-negative"):
            channel_utilization(-1.0, 100.0)

    def test_counts_every_received_byte(self):
        # 2000 B received, only one 1000 B block of it on time: channel
        # utilization counts all 2000 B, on time or not
        assert channel_utilization(2000.0, 4000.0) == 0.5


class TestSessionQoe:
    def test_weighted_sum(self):
        assert session_qoe(1.0, 1.0, alpha=0.85) == 1.85

    def test_default_alpha(self):
        assert session_qoe(0.6, 0.4) == pytest.approx(0.6 + 0.85 * 0.4)
        assert RunParams.alpha == 0.85

    @pytest.mark.parametrize("ratio,util", [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.1)])
    def test_out_of_range_inputs_rejected(self, ratio, util):
        with pytest.raises(SimulationInvariantError, match="must be in \\[0, 1\\]"):
            session_qoe(ratio, util)

    @given(ratio=st.floats(min_value=0, max_value=1),
           util=st.floats(min_value=0, max_value=1),
           alpha=st.floats(min_value=0, max_value=2))
    def test_monotone_in_both_terms(self, ratio, util, alpha):
        qoe = session_qoe(ratio, util, alpha)
        assert qoe >= session_qoe(ratio / 2, util, alpha) - 1e-12
        assert qoe >= session_qoe(ratio, util / 2, alpha) - 1e-12


def _run(loss_rate=0.0, duration_s=4.0, deadline_s=0.2, forced=()):
    scenario = scenario_of(
        element(element_id=0, priority=0, deadline_s=deadline_s,
                block_size_bytes=3000, period_s=0.25),
        element(element_id=1, priority=1, deadline_s=deadline_s,
                block_size_bytes=6000, period_s=0.5))
    trace = synthesize_trace("constant", duration_s=30.0, seed=0, mbps=2.0)
    sim, records = run_recorded(trace, scenario, make_scheduler("proposed", scenario),
                                   RunParams(duration_s=duration_s, seed=4, loss_rate=loss_rate),
                                   forced_loss_sends=forced)
    return sim, trace, records


class TestBuildReport:
    def test_matches_independent_recomputation(self):
        sim, trace, records = _run(loss_rate=0.05)
        report = build_report(sim)
        # the paper's indicator, F - E <= D, for every block that completed
        flags = [b.completion_time is not None
                 and b.completion_time - b.arrival_time <= b.deadline_s
                 for b in sim.blocks]
        assert report.block_count == len(sim.blocks)
        assert report.on_time_count == sum(flags)
        assert report.delivery_ratio == sum(flags) / len(flags)
        offered = trace.integrate_capacity(0.0, max(sim.params.duration_s, sim.now))
        assert report.offered_bytes == offered
        delivered = sum(r["size"] for r in records
                        if r["kind"] == "send" and r["arrives"] is not None)
        assert report.utilization == min(1.0, delivered / offered)
        on_time_bytes = sum(b.total_bytes for b, f in zip(sim.blocks, flags) if f)
        assert report.effective_utilization == min(1.0, on_time_bytes / offered)
        assert report.qoe == report.delivery_ratio + 0.85 * report.utilization

    def test_retransmissions_never_double_count_received_bytes(self):
        sim, trace, _ = _run(forced=(0, 4))
        assert sim.counters["retransmission_sends"] >= 2
        report = build_report(sim)
        # a lost copy burns capacity without delivering, so sends outnumber
        # deliveries, but each packet reaches the client at most once and
        # the two utilizations stay equal while everything is on time
        assert sim.counters["sends"] > sum(b.received_packets for b in sim.blocks)
        assert report.delivery_ratio == 1.0
        assert report.utilization == pytest.approx(report.effective_utilization)

    def test_late_deliveries_split_the_two_utilizations(self):
        # deadlines shorter than one delivery round trip: packets still
        # reach the client and count as received, but no block finishes
        # inside its window, so effective utilization collapses to zero
        sim, trace, _ = _run(deadline_s=0.03, duration_s=2.0)
        report = build_report(sim)
        assert report.effective_utilization == 0.0
        assert report.utilization > 0.0

    def test_lossless_run_keeps_both_utilizations_equal(self):
        sim, trace, _ = _run()
        report = build_report(sim)
        assert report.delivery_ratio == 1.0
        assert report.utilization == pytest.approx(report.effective_utilization)

    @pytest.mark.parametrize("steps", [0, 5])
    def test_unfinished_simulation_is_refused(self, steps):
        # a run is scored only once it drained and passed its audit
        scenario = scenario_of(element())
        sim = Simulation(synthesize_trace("constant", duration_s=30.0, seed=0, mbps=2.0),
                         scenario, make_scheduler("proposed", scenario), RunParams(duration_s=2.0))
        for _ in range(steps):
            sim.advance()
        with pytest.raises(SimulationInvariantError, match="has not finished"):
            build_report(sim)

    def test_session_window_covers_overrun(self):
        sim, _, _ = _run()
        assert session_window_end(sim) == max(sim.params.duration_s, sim.now)

    def test_json_round_trip(self):
        sim, trace, _ = _run()
        report = build_report(sim)
        data = json.loads(json.dumps(report.to_dict()))
        assert data == report.to_dict()
        assert data["scheduler"] == "proposed"
        assert data["block_count"] == report.block_count
        assert "blocks" not in data
        assert data["qoe"] == report.qoe

    def test_run_report_adds_one_outcome_per_block(self):
        sim, trace, _ = _run(deadline_s=0.06)  # some blocks late, some on time
        report = build_report(sim)
        data = json.loads(run_report_json(sim, report))
        outcomes = data.pop("blocks")
        assert data == report.to_dict()
        assert len(outcomes) == report.block_count
        assert sum(o["on_time"] for o in outcomes) == report.on_time_count
        for o in outcomes:  # an int 0/1, F - E <= D for a completed block
            completion = o["completion_time"]
            assert o["on_time"] == int(completion is not None and
                                       completion - o["arrival_time"] <= o["deadline_s"])
            assert type(o["on_time"]) is int
        assert [o["block_id"] for o in outcomes] == [list(b.block_id) for b in sim.blocks]
        assert 0 < report.on_time_count < report.block_count

    def test_expired_blocks_lower_the_ratio(self):
        sim, trace, _ = _run(deadline_s=0.03, duration_s=2.0)
        report = build_report(sim)
        assert report.on_time_count < report.block_count
        assert report.delivery_ratio < 1.0
