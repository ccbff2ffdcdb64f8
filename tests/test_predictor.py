"""Bandwidth estimators and regime classification."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from blocksched.errors import ConfigurationError, SimulationInvariantError
from blocksched.predictor import (
    BandwidthPredictor,
    InflightLedger,
    Regime,
    Thresholds,
    classify_regime,
)
from blocksched.units import mbps_to_bytes_per_s

TH = Thresholds.from_mbps(0.8, 2.3)


def sent(entries, thresholds=TH):
    """A fresh predictor told of each (key, size, send time) send."""
    predictor = BandwidthPredictor(thresholds)
    for key, size, send_time in entries:
        predictor.on_send(key, size, send_time)
    return predictor


def smoothed(entries, measured, response_time):
    """The sample a fresh predictor takes from the response to measured,
    with entries sent."""
    return sent(entries).on_response(measured, response_time)


class TestSmoothed:
    def test_three_packets_in_window(self):
        entries = [("a", 1500, 0.0), ("b", 1500, 0.01), ("c", 1500, 0.02)]
        assert smoothed(entries, "a", 0.03) == 150000.0

    def test_entries_before_window_excluded(self):
        entries = [("old", 9000, -0.5), ("a", 1500, 0.0), ("b", 1500, 0.02)]
        assert smoothed(entries, "a", 0.03) == 3000 / 0.03

    def test_empty_ledger_is_zero(self):
        # a response's window holds its own packet, so only the ledger can
        # sum an empty window
        assert sent([]).ledger.bytes_sent_since(0.0) == 0

    def test_lone_packet_samples_its_own_size_and_leaves(self):
        predictor = sent([("a", 1500, 0.25)])
        assert predictor.on_response("a", 0.75) == 1500 / 0.5
        assert len(predictor.ledger) == 0
        assert predictor.ledger.total_bytes == 0
        assert "a" not in predictor.ledger

    def test_zero_width_window_is_degenerate(self):
        with pytest.raises(SimulationInvariantError, match="non-positive width"):
            smoothed([("a", 1500, 0.5)], "a", 0.5)

    def test_response_before_its_send_is_an_invariant_error(self):
        predictor = sent([("a", 1500, 0.5)])
        with pytest.raises(SimulationInvariantError, match="non-positive width"):
            predictor.on_response("a", 0.25)
        assert predictor.smoothed == TH.low  # the estimate stands

    def test_duplicate_inflight_entry_rejected(self):
        predictor = sent([("a", 1500, 0.0)])
        with pytest.raises(SimulationInvariantError, match="already inflight"):
            predictor.on_send("a", 1500, 0.1)

    def test_lookups_of_a_packet_not_inflight_are_invariant_errors(self):
        predictor = sent([("a", 1500, 0.0)])
        with pytest.raises(SimulationInvariantError, match="packet 'b' is not inflight"):
            predictor.on_response("b", 0.5)
        with pytest.raises(SimulationInvariantError, match="packet 'b' is not inflight"):
            predictor.ledger.remove("b")
        assert "a" in predictor.ledger and predictor.ledger.total_bytes == 1500

    @given(sizes=st.lists(st.integers(min_value=1, max_value=3000), min_size=1, max_size=20),
           scale=st.sampled_from([2, 3, 5]))
    def test_scales_with_bytes(self, sizes, scale):
        base = [(i, s, 0.001 * i) for i, s in enumerate(sizes)]
        scaled = [(i, s * scale, 0.001 * i) for i, s in enumerate(sizes)]
        assert smoothed(scaled, 0, 0.1) == pytest.approx(smoothed(base, 0, 0.1) * scale)


# one ledger operation: ("add", size, gap after the previous send),
# ("remove", index into the live ids), ("readd", index, gap): a
# retransmission of a live packet, or ("stale", size, how far before the
# previous send)
_gaps = st.sampled_from([0.0, 0.001, 0.0125, 0.3])
_ledger_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), st.integers(min_value=0, max_value=3000), _gaps),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("readd"), st.integers(min_value=0, max_value=63), _gaps),
    st.tuples(st.just("stale"), st.integers(min_value=1, max_value=3000),
              st.floats(min_value=1e-9, max_value=1.0)),
), max_size=40)


# the in-order fast path's operations: ("oldest",) is the response of the
# oldest inflight packet, the engine's usual case; ("remove", index) and
# ("readd", index, gap) act on the live ids in send order
_fast_path_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), st.integers(min_value=0, max_value=3000), _gaps),
    st.tuples(st.just("oldest")),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("readd"), st.integers(min_value=0, max_value=63), _gaps),
), max_size=60)


def _probe_windows(send_times):
    """Window starts below, at, between and above the given send times."""
    times = sorted(set(send_times))
    if not times:
        return [-math.inf, 0.0, math.inf]
    between = [(a + b) / 2 for a, b in zip(times, times[1:])]
    return [-math.inf, times[0] - 1.0, *times, *between, times[-1] + 1.0, math.inf]


class TestInflightLedger:
    def _check(self, ledger, model):
        assert len(ledger) == len(model)
        assert ledger.total_bytes == sum(size for size, _ in model.values())
        for w in _probe_windows(sent for _, sent in model.values()):
            assert ledger.bytes_sent_since(w) == sum(
                size for size, sent in model.values() if sent >= w)

    @given(ops=_ledger_ops)
    def test_matches_brute_force_sum(self, ops):
        ledger = InflightLedger()
        model: dict = {}  # packet id -> (size, send time), the reference
        now = 0.0
        next_id = 0
        for op in ops:
            if op[0] == "add":
                _, size, gap = op
                now += gap
                ledger.add(next_id, size, now)
                model[next_id] = (size, now)
                next_id += 1
            elif op[0] == "remove" and model:
                pid = sorted(model)[op[1] % len(model)]
                ledger.remove(pid)
                del model[pid]
            elif op[0] == "readd" and model:
                pid = sorted(model)[op[1] % len(model)]
                size, _ = model.pop(pid)
                ledger.remove(pid)
                now += op[2]
                ledger.add(pid, size, now)
                model[pid] = (size, now)
            elif op[0] == "stale" and next_id:
                _, size, back = op
                with pytest.raises(SimulationInvariantError, match="earlier than the previous send"):
                    ledger.add(next_id, size, now - back)
                assert next_id not in ledger
            self._check(ledger, model)
        for pid in list(model):
            ledger.remove(pid)
            del model[pid]
            self._check(ledger, model)
        assert ledger.total_bytes == 0
        assert ledger.bytes_sent_since(-math.inf) == 0
        assert not ledger._order  # removed entries do not pile up

    @given(ops=_fast_path_ops)
    def test_stale_entries_come_only_from_out_of_order_removals(self, ops):
        ledger = InflightLedger()
        model: dict = {}  # packet id -> (size, send time), in send order
        now = 0.0
        next_id = 0
        out_of_order = 0
        for op in ops:
            if op[0] == "add":
                _, size, gap = op
                now += gap
                ledger.add(next_id, size, now)
                model[next_id] = (size, now)
                next_id += 1
            elif model:
                ids = list(model)
                pid = ids[0] if op[0] == "oldest" else ids[op[1] % len(ids)]
                out_of_order += pid != ids[0]
                size, _ = model.pop(pid)
                ledger.remove(pid)
                if op[0] == "readd":
                    now += op[2]
                    ledger.add(pid, size, now)
                    model[pid] = (size, now)  # a dict keeps it last, in send order
            self._check(ledger, model)
            stale = len(ledger._order) - len(ledger)
            assert stale == ledger._stale <= out_of_order
            if ledger._order:  # the head is always live
                assert ledger._order[0][0] == next(iter(model))


class TestRegimes:
    def test_thresholds_from_mbps(self):
        th = Thresholds.from_mbps(0.8, 2.3)
        assert th.low == 100000.0
        assert th.high == 287500.0

    def test_inverted_thresholds_rejected(self):
        with pytest.raises(ConfigurationError):
            Thresholds.from_mbps(2.3, 0.8)

    @pytest.mark.parametrize("mbps,expected", [
        (0.5, Regime.LOW),
        (0.8, Regime.MID),   # boundary values inclusive to mid
        (1.5, Regime.MID),
        (2.3, Regime.MID),
        (2.31, Regime.HIGH),
        (3.0, Regime.HIGH),
    ])
    def test_classification(self, mbps, expected):
        th = Thresholds.from_mbps(0.8, 2.3)
        assert classify_regime(mbps_to_bytes_per_s(mbps), th) is expected

    @given(a=st.floats(min_value=0, max_value=5e5), b=st.floats(min_value=0, max_value=5e5))
    def test_monotone_in_throughput(self, a, b):
        th = Thresholds.from_mbps(0.8, 2.3)
        lo, hi = sorted((a, b))
        assert classify_regime(lo, th) <= classify_regime(hi, th)


class TestBandwidthPredictor:
    def test_starts_at_low_threshold(self):
        th = Thresholds.from_mbps(0.8, 2.3)
        predictor = BandwidthPredictor(th)
        assert predictor.smoothed == th.low
        # sitting exactly on the boundary, which classifies as mid
        assert predictor.regime is Regime.MID

    def test_response_updates_smoothed_and_regime(self):
        th = Thresholds.from_mbps(0.8, 2.3)
        predictor = sent([(i, 1500, 0.005 * i) for i in range(4)], th)
        sample = predictor.on_response(0, 0.02)
        assert sample == 6000 / 0.02
        assert predictor.smoothed == sample
        assert predictor.regime is Regime.HIGH
