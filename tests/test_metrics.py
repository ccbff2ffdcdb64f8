"""Delivery indicator, utilization, and session quality scores."""
from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from blocksched.linksim import RunParams
from blocksched.metrics import (
    build_report,
    channel_utilization,
    delivery_indicator,
    run_report_json,
    session_qoe,
    session_window_end,
)
from blocksched.schedulers import make_scheduler
from blocksched.traces import synthesize_trace
from conftest import element, run_recorded, scenario_of


class TestDeliveryIndicator:
    def test_on_time_inside_window(self):
        assert delivery_indicator(1.0, 1.05, 0.1) == 1

    def test_exactly_at_deadline_counts(self):
        assert delivery_indicator(0.0, 0.1, 0.1) == 1

    def test_one_millisecond_late_does_not(self):
        assert delivery_indicator(0.0, 0.101, 0.1) == 0

    def test_never_completed_is_late(self):
        assert delivery_indicator(1.0, None, 0.1) == 0

    def test_completion_before_arrival_rejected(self):
        with pytest.raises(ValueError):
            delivery_indicator(1.0, 0.9, 0.1)

    def test_non_positive_deadline_rejected(self):
        with pytest.raises(ValueError):
            delivery_indicator(1.0, 1.05, 0.0)

    @given(arrival=st.floats(min_value=0, max_value=100),
           lateness=st.floats(min_value=0, max_value=10),
           deadline=st.floats(min_value=1e-3, max_value=10))
    def test_indicator_matches_inequality(self, arrival, lateness, deadline):
        completion = arrival + lateness
        expected = 1 if completion - arrival <= deadline else 0
        assert delivery_indicator(arrival, completion, deadline) == expected


class TestUtilization:
    def test_half_the_offered_bytes(self):
        assert channel_utilization(500.0, 1000.0) == 0.5

    def test_clamped_at_one(self):
        assert channel_utilization(1500.0, 1000.0) == 1.0

    def test_zero_offered_rejected(self):
        with pytest.raises(ValueError):
            channel_utilization(10.0, 0.0)

    def test_negative_received_rejected(self):
        with pytest.raises(ValueError):
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
        with pytest.raises(ValueError):
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
    result, records = run_recorded(trace, scenario, make_scheduler("proposed"),
                                   RunParams(duration_s=duration_s, seed=4, loss_rate=loss_rate),
                                   forced_loss_sends=forced)
    return result, trace, records


class TestBuildReport:
    def test_matches_independent_recomputation(self):
        result, trace, records = _run(loss_rate=0.05)
        report = build_report(result, trace)
        flags = [delivery_indicator(b.arrival_time, b.completion_time, b.deadline_s)
                 for b in result.blocks]
        assert report.block_count == len(result.blocks)
        assert report.on_time_count == sum(flags)
        assert report.delivery_ratio == sum(flags) / len(flags)
        offered = trace.integrate_capacity(0.0, max(result.params.duration_s, result.end_time))
        assert report.offered_bytes == offered
        assert report.utilization == min(1.0, result.counters["delivered_bytes"] / offered)
        delivered = sum(r["size"] for r in records
                        if r["kind"] == "send" and r["arrives"] is not None)
        assert report.utilization == min(1.0, delivered / offered)
        on_time_bytes = sum(b.total_bytes for b, f in zip(result.blocks, flags) if f)
        assert report.effective_utilization == min(1.0, on_time_bytes / offered)
        assert report.qoe == report.delivery_ratio + 0.85 * report.utilization

    def test_retransmissions_never_double_count_received_bytes(self):
        result, trace, _ = _run(forced=(0, 4))
        assert result.counters["retransmission_sends"] >= 2
        report = build_report(result, trace)
        # a lost copy burns capacity without delivering, so sends outnumber
        # deliveries, but each packet reaches the client at most once and
        # the two utilizations stay equal while everything is on time
        assert result.counters["sends"] > result.counters["delivered_packets"]
        assert report.delivery_ratio == 1.0
        assert report.utilization == pytest.approx(report.effective_utilization)

    def test_late_deliveries_split_the_two_utilizations(self):
        # deadlines shorter than one delivery round trip: packets still
        # reach the client and count as received, but no block finishes
        # inside its window, so effective utilization collapses to zero
        result, trace, _ = _run(deadline_s=0.03, duration_s=2.0)
        report = build_report(result, trace)
        assert report.effective_utilization == 0.0
        assert report.utilization > 0.0

    def test_lossless_run_keeps_both_utilizations_equal(self):
        result, trace, _ = _run()
        report = build_report(result, trace)
        assert report.delivery_ratio == 1.0
        assert report.utilization == pytest.approx(report.effective_utilization)

    def test_session_window_covers_overrun(self):
        result, _, _ = _run()
        assert session_window_end(result) == max(result.params.duration_s, result.end_time)

    def test_json_round_trip(self):
        result, trace, _ = _run()
        report = build_report(result, trace)
        data = json.loads(report.to_json())
        assert data == report.to_dict()
        assert data["scheduler"] == "proposed"
        assert data["block_count"] == report.block_count
        assert "blocks" not in data
        assert data["qoe"] == report.qoe

    def test_run_report_adds_one_outcome_per_block(self):
        result, trace, _ = _run(deadline_s=0.06)  # some blocks late, some on time
        report = build_report(result, trace)
        data = json.loads(run_report_json(result, report))
        outcomes = data.pop("blocks")
        assert data == report.to_dict()
        assert len(outcomes) == report.block_count
        assert sum(o["on_time"] for o in outcomes) == report.on_time_count
        assert [o["block_id"] for o in outcomes] == [list(b.block_id) for b in result.blocks]
        assert 0 < report.on_time_count < report.block_count

    def test_expired_blocks_lower_the_ratio(self):
        result, trace, _ = _run(deadline_s=0.03, duration_s=2.0)
        report = build_report(result, trace)
        assert report.on_time_count < report.block_count
        assert report.delivery_ratio < 1.0
