"""End-to-end behavior of the event-driven link simulation."""
from __future__ import annotations

import gc
import json
import math
from dataclasses import replace

import pytest

from blocksched import linksim
from blocksched.errors import ConfigurationError, SimulationInvariantError
from blocksched.linksim import Simulation
from blocksched.model import Packet
from blocksched.predictor import Regime
from blocksched.runner import RunParams, execute_run
from blocksched.schedulers import (
    SCHEDULER_NAMES,
    DecisionReason,
    Scheduler,
    SchedulerDecision,
    make_scheduler,
    select_block_fifo,
)
from blocksched.traces import synthesize_trace
from conftest import (
    check_estimate,
    deep_queue_inputs,
    element,
    force_losses,
    run_recorded,
    scenario_of,
)

APPROX = dict(rel=1e-9, abs=1e-9)
LOSSLESS = RunParams(duration_s=2.0, loss_rate=0.0)  # the one-block runs below


def one_block_scenario(deadline_s=1.0, total_bytes=3000):
    # period equals the run length below, so exactly one block arrives
    return scenario_of(element(element_id=0, priority=0, deadline_s=deadline_s,
                               block_size_bytes=total_bytes, period_s=2.0))


def constant_trace(mbps=1.0, duration_s=30.0):
    return synthesize_trace("constant", duration_s=duration_s, seed=0, mbps=mbps)


def run_one(scenario, trace=None, scheduler="proposed", forced_loss_sends=None, **params):
    """One full run with LOSSLESS's settings, as changed by params; returns
    (sim, records)."""
    return run_recorded(
        trace if trace is not None else constant_trace(),
        scenario,
        make_scheduler(scheduler, scenario=scenario),
        replace(LOSSLESS, **params), forced_loss_sends=forced_loss_sends)


def records_of(records, kind):
    return [r for r in records if r["kind"] == kind]


class TestSingleBlockTimeline:
    """Two 1500 B packets on a constant 1 Mbps link: 12 ms per packet,
    one-way delay 40 ms."""

    def _run(self):
        return run_one(one_block_scenario())

    def test_sends_pipeline_at_transmission_cadence(self):
        sim, records = self._run()
        sends = records_of(records, "send")
        t0 = sim.blocks[0].arrival_time
        assert [r["t"] for r in sends] == [pytest.approx(t0, **APPROX),
                                           pytest.approx(t0 + 0.012, **APPROX)]
        # first send leaves the instant it was chosen, so no latency sample;
        # the second waited exactly one transmission time in the slot
        assert sends[0]["thr_instant"] is None
        assert sends[1]["thr_instant"] == pytest.approx(1500 / 0.012, **APPROX)
        # the second packet was chosen at t0, the instant the first went out
        chosen = [d["t"] for d in records_of(records, "decision") if d["selected"] is not None]
        assert chosen == [pytest.approx(t0, **APPROX)] * 2

    def test_delivery_and_ack_timing(self):
        sim, records = self._run()
        t0 = sim.blocks[0].arrival_time
        arrivals = [r["arrives"] for r in records_of(records, "send")]
        assert arrivals == [pytest.approx(t0 + 0.052, **APPROX),
                            pytest.approx(t0 + 0.064, **APPROX)]
        # the block completes at the latest arrival booked, its last packet's
        assert sim.blocks[0].completion_time == arrivals[-1]
        # a delivery writes no line of its own
        assert records_of(records, "delivered") == []
        acks = records_of(records, "ack")
        assert [r["t"] for r in acks] == [
            pytest.approx(t0 + 0.092, **APPROX), pytest.approx(t0 + 0.104, **APPROX)]
        # the first response window [t0, t0+0.092] still holds both packets,
        # including the measured one; the second only the later packet
        assert acks[0]["thr_smoothed"] == pytest.approx(3000 / 0.092, **APPROX)
        assert acks[1]["thr_smoothed"] == pytest.approx(1500 / 0.092, **APPROX)
        assert sim.now == pytest.approx(t0 + 0.104, **APPROX)

    def test_block_completes_on_time(self):
        sim, records = self._run()
        t0 = sim.blocks[0].arrival_time
        completes = records_of(records, "block_complete")
        assert len(completes) == 1
        assert completes[0]["t"] == pytest.approx(t0 + 0.064, **APPROX)
        assert completes[0]["on_time"] is True
        (block,) = sim.blocks
        assert block.completion_time == pytest.approx(t0 + 0.064, **APPROX)
        assert not block.expired
        assert block.acked_bytes == 3000


class TestLossAndRetransmission:
    def test_forced_loss_requeues_and_preempts(self):
        sim, records = run_one(one_block_scenario(), forced_loss_sends={0})
        t0 = sim.blocks[0].arrival_time
        losses = records_of(records, "loss")
        assert len(losses) == 1
        loss = losses[0]
        loss_t = loss["t"]
        assert loss_t == pytest.approx(t0 + 0.08, **APPROX)
        assert loss["requeued"] is True
        # both packets were on the wire across the loss window
        assert loss["thr_smoothed"] == pytest.approx(3000 / 0.08, **APPROX)

        after = [d for d in records_of(records, "decision")
                 if d["t"] >= loss_t and d["selected"] is not None]
        assert after[0]["selected"] == list(sim.blocks[0].block_id)
        assert after[0]["reason"] == "retransmission"

        sends = records_of(records, "send")
        assert len(sends) == 3
        assert sends[2]["packet_id"] == loss["packet_id"]  # the lost packet goes out again
        assert sends[2]["retransmission"] is True
        assert sends[2]["t"] == pytest.approx(t0 + 0.08, **APPROX)
        assert sim.counters["retransmission_sends"] == 1
        assert sim.counters["loss_signals"] == 1

        # the lost packet went out twice, and no third packet was built
        assert [r["packet_id"] for r in sends].count(loss["packet_id"]) == 2
        assert sim.blocks[0].built == sim.blocks[0].acked_packets == 2
        assert sim.blocks[0].completion_time == pytest.approx(t0 + 0.132, **APPROX)

    def test_loss_for_expired_block_is_dropped(self):
        # deadline shorter than one transmission: the block expires at the
        # second opportunity, its slot packet is discarded unsent, and the
        # eventual loss signal must not requeue anything
        sim, records = run_one(one_block_scenario(deadline_s=0.01), forced_loss_sends={0})
        t0 = sim.blocks[0].arrival_time
        discards = records_of(records, "slot_discard")
        assert len(discards) == 1
        assert discards[0]["t"] == pytest.approx(t0 + 0.012, **APPROX)
        assert sim.counters["slot_discards"] == 1

        losses = records_of(records, "loss")
        assert len(losses) == 1
        assert losses[0]["requeued"] is False
        assert records_of(records, "block_expired") != []
        assert records_of(records, "block_complete") == []
        assert sim.counters["sends"] == 1
        # the lost packet and the slot's both ended discarded, none received
        # or acked
        (block,) = sim.blocks
        assert block.expired and block.received_packets == 0
        assert (block.built, block.discarded_packets, block.acked_packets) == (2, 2, 0)


class TestDeterminism:
    def _scenario(self):
        return scenario_of(
            element(element_id=0, priority=0, deadline_s=0.15, block_size_bytes=3000, period_s=0.2),
            element(element_id=1, priority=1, deadline_s=0.25, block_size_bytes=6000, period_s=0.25))

    def test_same_seed_same_run(self):
        trace = synthesize_trace("square_wave", duration_s=20.0, seed=0,
                                 low_mbps=0.5, high_mbps=2.5, period_s=4.0)
        kw = dict(duration_s=3.0, seed=7, loss_rate=0.3)
        a, a_records = run_one(self._scenario(), trace=trace, **kw)
        b, b_records = run_one(self._scenario(), trace=trace, **kw)
        assert a_records == b_records
        assert a.counters == b.counters

    def test_different_seed_different_run(self):
        trace = constant_trace()
        _, a_records = run_one(self._scenario(), trace=trace, duration_s=3.0, seed=1)
        _, b_records = run_one(self._scenario(), trace=trace, duration_s=3.0, seed=2)
        assert ([r for r in a_records if r["kind"] != "decision"]
                != [r for r in b_records if r["kind"] != "decision"])


def test_each_decision_gets_the_predictor_readings_in_order():
    # the engine passes a decision's five inputs by position; each call must
    # see the regime and smoothed estimate the decision record logs, and the
    # module's feature builder, which the benchmark probe wraps
    seen = []

    def spy(now, blocks, regime, smoothed_bw, features):
        seen.append((now, regime, smoothed_bw, len(blocks), features))
        return select_block_fifo(now, blocks, regime, smoothed_bw, features)

    # about 3.6 Mbps offered over a 0.5/4 Mbps square wave, so the estimate
    # visits all three regimes
    scenario = scenario_of(
        element(element_id=0, priority=0, deadline_s=0.1, block_size_bytes=3000, period_s=0.02),
        element(element_id=1, priority=1, deadline_s=0.2, block_size_bytes=15000, period_s=0.05))
    trace = synthesize_trace("square_wave", duration_s=20.0, seed=0,
                             low_mbps=0.5, high_mbps=4.0, period_s=4.0)
    _, records = run_recorded(trace, scenario, Scheduler("spy", spy),
                              replace(LOSSLESS, duration_s=10.0))
    logged = [(r["t"], r["regime"], r["smoothed_bw"], r["eligible"])
              for r in records_of(records, "decision") if r["eligible"]]
    assert [(t, int(regime), bw, n) for t, regime, bw, n, _ in seen] == logged
    assert {regime for _, regime, _, _, _ in seen} == set(Regime)
    for _, regime, bw, _, features in seen:
        assert type(regime) is Regime and type(bw) is float
        assert features is linksim.compute_block_stats


class TestConservation:
    """Two elements over a 0.5/2.5 Mbps square wave with 2% loss."""

    def _inputs(self):
        scenario = scenario_of(
            element(element_id=0, priority=0, deadline_s=0.1, block_size_bytes=3000, period_s=0.15),
            element(element_id=1, priority=1, deadline_s=0.2, block_size_bytes=7500, period_s=0.25))
        trace = synthesize_trace("square_wave", duration_s=20.0, seed=0,
                                 low_mbps=0.5, high_mbps=2.5, period_s=4.0)
        return scenario, trace

    @pytest.mark.parametrize("scheduler", ["proposed", "fifo", "ldf", "rswn"])
    def test_every_block_and_packet_resolves(self, scheduler):
        scenario, trace = self._inputs()
        sim, records = run_one(scenario, trace=trace, scheduler=scheduler,
                                  duration_s=6.0, seed=3, loss_rate=0.02)
        c = sim.counters
        assert c["sends"] == len(records_of(records, "send"))
        assert c["loss_signals"] == len(records_of(records, "loss"))
        assert sum(b.acked_bytes for b in sim.blocks) == sum(
            r["size"] for r in records_of(records, "send") if r["arrives"] is not None)
        arrivals = {}  # block id -> the client arrivals its sends booked
        for r in records_of(records, "send"):
            if r["arrives"] is not None:
                arrivals.setdefault(tuple(r["packet_id"][:2]), []).append(r["arrives"])
        for block in sim.blocks:
            assert block.acked_packets + block.discarded_packets == block.built
            if block.completion_time is not None:
                assert not block.expired
                assert block.received_packets == block.packet_count
                assert block.completion_time == max(arrivals[block.block_id])
            else:
                assert block.expired

    def test_empty_forced_loss_set_changes_no_record(self):
        # the forced-loss stand-in takes the real draw at every send
        scenario, trace = self._inputs()
        kw = dict(duration_s=6.0, seed=3, loss_rate=0.02)
        plain, plain_records = run_one(scenario, trace=trace, **kw)
        forced, forced_records = run_one(scenario, trace=trace, forced_loss_sends=(), **kw)
        assert forced_records == plain_records
        assert forced.counters == plain.counters
        assert plain.counters["loss_signals"] > 0

    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    def test_recording_only_observes(self, scheduler):
        scenario, trace = self._inputs()
        params = RunParams(duration_s=6.0, seed=3, loss_rate=0.02)
        records: list[dict] = []
        on, on_report = execute_run(trace, scenario, scheduler, params, record=records.append)
        off, off_report = execute_run(trace, scenario, scheduler, params, record=None)
        assert on_report.to_dict() == off_report.to_dict()
        assert on.counters == off.counters
        assert len(records_of(records, "send")) == on.counters["sends"] > 0

    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    def test_smoothed_estimates_match_an_inflight_replay(self, scheduler):
        # a long round trip keeps dozens of packets in flight and loss adds
        # retransmissions; each response's sample and each decision's
        # estimate are recomputed from the records alone by brute force
        scenario = scenario_of(
            element(element_id=0, priority=0, deadline_s=1.2, block_size_bytes=15000, period_s=0.2),
            element(element_id=1, priority=1, deadline_s=2.0, block_size_bytes=30000, period_s=0.25))
        _, trace = self._inputs()
        sim, records = run_one(scenario, trace=trace, scheduler=scheduler,
                                  duration_s=6.0, seed=3, rtt_s=0.6, loss_rate=0.05)
        check_estimate(records, sim.params.thresholds.low)
        responses = len(records_of(records, "ack")) + len(records_of(records, "loss"))
        assert responses == sim.counters["sends"]
        assert sim.counters["retransmission_sends"] > 0

    def test_delivered_bytes_bounded_by_link_capacity(self):
        scenario = scenario_of(element(element_id=0, priority=0, deadline_s=0.5,
                                       block_size_bytes=15000, period_s=0.1))
        trace = constant_trace(mbps=1.0)
        sim, _ = run_one(scenario, trace=trace, duration_s=5.0, seed=2)
        offered = trace.integrate_capacity(0.0, sim.now)
        assert sum(b.acked_bytes for b in sim.blocks) <= offered + 1e-6

    def test_sends_stay_inside_block_windows(self):
        scenario = scenario_of(
            element(element_id=0, priority=0, deadline_s=0.1, block_size_bytes=3000, period_s=0.15),
            element(element_id=1, priority=1, deadline_s=0.2, block_size_bytes=7500, period_s=0.2))
        trace = synthesize_trace("square_wave", duration_s=20.0, seed=0,
                                 low_mbps=0.4, high_mbps=2.0, period_s=3.0)
        sim, records = run_one(scenario, trace=trace, duration_s=6.0, seed=5, loss_rate=0.05)
        windows = {b.block_id: (b.arrival_time, b.expires_at) for b in sim.blocks}
        sends = records_of(records, "send")
        assert sends
        for send in sends:
            element_id, index, _ = send["packet_id"]
            arrival, expiry = windows[(element_id, index)]
            assert arrival <= send["t"] < expiry


class TestSendPath:
    """What a send books ahead: the packet's client arrival, the delivered
    counters and the response events."""

    def test_delivery_is_booked_at_send(self):
        scenario = one_block_scenario()
        sim = Simulation(constant_trace(), scenario, make_scheduler("fifo", scenario),
                         LOSSLESS)
        block = sim.blocks[0]
        assert block.built == 0  # built at first take, not up front
        while sim.counters["sends"] == 0:
            sim.advance()
        # the sent packet is held by its ack event alone
        (first,) = [payload for _, kind, _, payload in sim._heap if kind == linksim._ACK]
        assert first.packet_id == (block.block_id, 0) and first.sent
        # 12 ms on the wire plus a 40 ms one-way delay, known at the send,
        # whose instant the predictor's ledger holds
        sent_at = sim.predictor.ledger.send_time(first)
        assert first.client_receive_time == pytest.approx(sent_at + 0.052, **APPROX)
        # only the block's last packet gets a delivered event
        assert not [kind for _, kind, _, _ in sim._heap if kind == linksim._PACKET_DELIVERED]
        assert sim.blocks[0].received_packets == 1
        assert sim.blocks[0].acked_bytes == 0  # counted at the ack
        assert sim.blocks[0].completion_time is None  # completion waits for the arrival

    def test_one_delivered_event_per_fully_received_block(self):
        # a delivery is booked at its send; only a block's last arriving
        # packet gets a heap event, and each delivered packet one ack
        scenario, trace = TestConservation()._inputs()
        kinds = []

        def drive(sim):
            while (step := sim.advance()) is not None:
                kinds.append(step[1])

        sim, _ = run_recorded(trace, scenario, make_scheduler("proposed", scenario=scenario),
                              RunParams(duration_s=6.0, seed=3, loss_rate=0.02), drive=drive)
        received = [b for b in sim.blocks if b.received_packets == b.packet_count]
        delivered = sum(b.received_packets for b in sim.blocks)
        assert kinds.count(linksim._PACKET_DELIVERED) == len(received) < delivered
        assert kinds.count(linksim._ACK) == delivered

    def test_expiry_filter_runs_only_at_the_watermark(self, monkeypatch):
        # below the queue's expiry watermark no block can have expired, so
        # the send opportunity does not call the filter at all
        at_watermark = []
        original = linksim.filter_expired

        def recording(queue, now):
            at_watermark.append(now >= queue.next_expiry)
            return original(queue, now)

        monkeypatch.setattr(linksim, "filter_expired", recording)
        scenario, trace = deep_queue_inputs(duration_s=4.0)
        sim = Simulation(trace, scenario, make_scheduler("fifo", scenario=scenario),
                         RunParams(duration_s=4.0, seed=1))
        kinds = []
        while (step := sim.advance()) is not None:
            kinds.append(step[1])
        assert any(b.expired for b in sim.blocks)
        assert all(at_watermark)
        assert 0 < len(at_watermark) < kinds.count(linksim._SEND_OPPORTUNITY)


def live_packets(baseline) -> int:
    """The Packet objects alive now that are not among baseline's."""
    known = {id(packet) for packet in baseline}
    return sum(1 for o in gc.get_objects() if type(o) is Packet and id(o) not in known)


class TestPacketLifetime:
    """A packet is held only while the sender needs it: in the selection
    slot, on the wire or in its block's pending list."""

    def test_no_packet_outlives_a_lossy_run(self):
        # acks, losses for expired blocks, slot discards and the expiry
        # filter's discards all drop their packets
        baseline = [o for o in gc.get_objects() if type(o) is Packet]  # kept alive, so ids stay
        scenario, trace = deep_queue_inputs(duration_s=4.0)
        sim, records = run_recorded(trace, scenario, make_scheduler("fifo", scenario=scenario),
                                       RunParams(duration_s=4.0, seed=2, loss_rate=0.05))
        c = sim.counters
        assert any(b.expired for b in sim.blocks) and c["slot_discards"] > 0
        unrequeued = [r for r in records_of(records, "loss") if not r["requeued"]]
        # some packet was discarded while it waited in a pending list
        assert (sum(b.discarded_packets for b in sim.blocks)
                > c["slot_discards"] + len(unrequeued) > c["slot_discards"])
        assert sum(b.built for b in sim.blocks) > 0
        gc.collect()
        assert live_packets(baseline) == 0

    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    def test_live_packets_are_the_slot_the_ledger_and_the_pending_lists(self, scheduler):
        # a 600 ms round trip keeps hundreds of packets in flight
        rate = 6e6 / 8 / 3  # bytes/s offered per element
        scenario = scenario_of(*(
            element(element_id=i, priority=priority, deadline_s=deadline,
                    block_size_bytes=size, period_s=size / rate)
            for i, (priority, deadline, size) in enumerate(
                [(1, 0.85, 20000), (0, 1.0, 40000), (2, 0.7, 60000)])))
        trace = synthesize_trace("square_wave", 4.0, seed=3, sample_s=0.5, low_mbps=4.0,
                                 high_mbps=9.0, period_s=2.0, jitter_mbps=0.5)
        baseline = [o for o in gc.get_objects() if type(o) is Packet]
        sim = Simulation(trace, scenario, make_scheduler(scheduler, scenario=scenario),
                         RunParams(duration_s=2.0, seed=1, rtt_s=0.6, loss_rate=0.02))
        steps = most_inflight = 0
        while sim.advance() is not None:
            steps += 1
            if steps % 101 == 0:
                held = (len(sim.predictor.ledger) + sum(len(b.pending) for b in sim.blocks)
                        + (sim._slot is not None))
                assert live_packets(baseline) == held, steps
                most_inflight = max(most_inflight, len(sim.predictor.ledger))
        assert most_inflight > 200
        assert sim.counters["loss_signals"] > 0
        assert live_packets(baseline) == 0


def one_block_sim() -> Simulation:
    """A lossless fifo run of one_block_scenario, not yet started."""
    scenario = one_block_scenario()
    return Simulation(constant_trace(), scenario, make_scheduler("fifo", scenario), LOSSLESS)


class TestTieOrder:
    """``advance`` merges three sources by the documented tie order: the
    one pending send opportunity (a field) first, the heap's delivered, ack
    and loss events next, by kind, and the block arrivals (a cursor over
    the sorted blocks) last."""

    HEAP_KINDS = {"delivered": linksim._PACKET_DELIVERED, "ack": linksim._ACK,
                  "loss": linksim._LOSS_SIGNAL}

    @staticmethod
    def _stubbed_sim():
        """one_block_sim with every handler replaced by a no-op, so events
        can be injected at any instant without payloads."""
        sim = one_block_sim()
        for name in ("_on_send_opportunity", "_on_block_delivered", "_on_ack",
                     "_on_loss_signal", "_on_block_arrival"):
            setattr(sim, name, lambda *args: None)
        return sim

    @staticmethod
    def _steps(sim):
        steps = []
        while (step := sim.advance()) is not None:
            steps.append(step)
        return steps

    @pytest.mark.parametrize("kind", HEAP_KINDS.values(), ids=list(HEAP_KINDS))
    def test_send_opportunity_runs_before_a_heap_event_at_its_instant(self, kind):
        sim = self._stubbed_sim()
        sim.advance()  # the block's arrival
        t = sim.now + 0.25
        sim._push(t, kind, None)  # pushed first, and still second
        sim._opportunity_at = t
        assert self._steps(sim) == [(t, linksim._SEND_OPPORTUNITY), (t, kind)]

    def test_send_opportunity_runs_before_an_arrival_at_its_instant(self):
        sim = self._stubbed_sim()
        t = sim.blocks[0].arrival_time
        sim._opportunity_at = t
        assert self._steps(sim) == [(t, linksim._SEND_OPPORTUNITY), (t, linksim._BLOCK_ARRIVAL)]

    @pytest.mark.parametrize("kind", HEAP_KINDS.values(), ids=list(HEAP_KINDS))
    def test_arrival_runs_after_a_heap_event_at_its_instant(self, kind):
        sim = self._stubbed_sim()
        t = sim.blocks[0].arrival_time
        sim._push(t, kind, None)
        assert self._steps(sim) == [(t, kind), (t, linksim._BLOCK_ARRIVAL)]

    def test_arrival_runs_before_a_later_heap_event(self):
        sim = self._stubbed_sim()
        t = sim.blocks[0].arrival_time
        later = math.nextafter(t, math.inf)
        sim._push(later, linksim._ACK, None)
        assert self._steps(sim) == [(t, linksim._BLOCK_ARRIVAL), (later, linksim._ACK)]


class TestGuards:
    def test_stale_event_is_an_invariant_error(self):
        # through the heap
        sim = one_block_sim()
        first = sim.advance()
        assert first is not None
        sim._push(first[0] - 0.5, linksim._ACK, None)
        with pytest.raises(SimulationInvariantError, match="clock regression"):
            while sim.advance() is not None:
                pass

    @pytest.mark.parametrize("field", ["_opportunity_at", "_arrival_at"])
    def test_stale_opportunity_or_arrival_is_an_invariant_error(self, field):
        # through the opportunity field and through the arrival cursor's
        # next instant
        sim = one_block_sim()
        first = sim.advance()
        assert first is not None
        setattr(sim, field, first[0] - 0.5)
        with pytest.raises(SimulationInvariantError, match="clock regression"):
            sim.advance()

    def test_second_pending_send_opportunity_is_an_invariant_error(self):
        # a send books the next opportunity at the end of its wire time; one
        # already pending then would be overwritten and lost
        sim = one_block_sim()

        def booking(now, blocks, regime, smoothed_bw, features):
            sim._ensure_opportunity(now)  # a second opportunity, booked mid-send
            return select_block_fifo(now, blocks, regime, smoothed_bw, features)

        sim.scheduler = Scheduler("booking", booking)
        with pytest.raises(SimulationInvariantError, match="already pending at a send"):
            sim.run()

    def test_pending_send_opportunity_after_drain_is_an_invariant_error(self):
        sim = self._drained()
        sim._opportunity_at = sim.now + 1.0
        with pytest.raises(SimulationInvariantError, match="still pending after drain"):
            sim._finalize()

    def test_arrival_cursor_short_of_the_blocks_is_an_invariant_error(self):
        sim = one_block_sim()  # its one block never arrived
        with pytest.raises(SimulationInvariantError, match="0 of 1 blocks arrived"):
            sim._finalize()

    def test_ledger_byte_drift_is_an_invariant_error(self):
        scenario = one_block_scenario()
        sim = Simulation(constant_trace(), scenario, make_scheduler("fifo", scenario),
                         LOSSLESS)
        sim.advance()
        sim.predictor.ledger._total += 1  # add/remove accounting drifts by one byte
        with pytest.raises(SimulationInvariantError, match="1 bytes"):
            sim.run()

    @staticmethod
    def _drained():
        """A lossless one-block run drained of events, before its audit."""
        scenario = one_block_scenario()
        sim = Simulation(constant_trace(), scenario, make_scheduler("fifo", scenario),
                         LOSSLESS)
        while sim.advance() is not None:
            pass
        assert sim.blocks[0].completion_time is not None
        return sim

    @pytest.mark.parametrize("tamper", ["unbuilt", "unacked", "unreceived"])
    def test_completed_block_short_of_packets_is_an_invariant_error(self, tamper):
        # a completed block must have built, delivered, and got acks for,
        # every packet
        sim = self._drained()
        block = sim.blocks[0]
        if tamper == "unbuilt":
            block.unsent += 1
        elif tamper == "unacked":
            block.acked_packets -= 1
        else:
            block.received_packets -= 1
        with pytest.raises(SimulationInvariantError, match="completed with"):
            sim._finalize()

    @pytest.mark.parametrize("step", [-1, 1], ids=["fewer", "more"])
    def test_received_count_off_the_ack_count_is_an_invariant_error(self, step):
        # every packet that reached the client got its ack, so a drained
        # block's received and acked counts agree. This block expired with
        # both packets delivered (the loss signal comes at t0 + 80 ms, the
        # window closes at t0 + 90 ms), so the completed-block audit above
        # does not read its counts
        scenario = one_block_scenario(deadline_s=0.09)
        sim = force_losses(Simulation(constant_trace(), scenario,
                                      make_scheduler("fifo", scenario), LOSSLESS), {0})
        while sim.advance() is not None:
            pass
        (block,) = sim.blocks
        assert block.expired and block.received_packets == block.acked_packets == 2
        block.received_packets += step
        with pytest.raises(SimulationInvariantError,
                           match="received %d packets but 2 were acked" % (2 + step)):
            sim._finalize()

    @pytest.mark.parametrize("offset", [0.0, -0.5, math.nan], ids=["at", "before", "nan"])
    def test_completion_at_or_before_arrival_is_an_invariant_error(self, offset):
        # a block's last packet leaves the wire after the block arrived and
        # reaches the client later still, so it completes strictly after
        # its arrival; NaN fails that comparison too
        sim = self._drained()
        block = sim.blocks[0]
        block.completion_time = block.arrival_time + offset
        with pytest.raises(SimulationInvariantError, match="not after its arrival"):
            sim._finalize()

    def test_lost_packet_dropped_without_discard_is_an_invariant_error(self):
        # every built packet must end acked or discarded; one that leaves
        # its pending list any other way fails the run. The loss signal
        # comes at t0 + 80 ms, the window closes at t0 + 90 ms and the last
        # ack at t0 + 104 ms, so the block ends expired
        scenario = one_block_scenario(deadline_s=0.09)
        sim = force_losses(Simulation(constant_trace(), scenario,
                                      make_scheduler("fifo", scenario), LOSSLESS), {0})
        block = sim.blocks[0]
        while not block.pending:
            sim.advance()
        sim.queue.take(block)  # taken, then neither sent nor discarded
        with pytest.raises(SimulationInvariantError,
                           match=r"built 2 packets but 1 were acked and 0 discarded"):
            sim.run()

    def test_rtt_lost_in_rounding_is_refused_before_the_run(self):
        # a loss signal at t + rtt_s must land after t at the latest send
        # instant, the latest expiry, so half the RTT, the one-way delay,
        # must survive the addition there; a 1e-300 s RTT used to leave a
        # loss signal's response window without width, mid-run
        scenario = one_block_scenario()
        sim = Simulation(constant_trace(), scenario, make_scheduler("fifo", scenario), LOSSLESS)
        last = max(block.expires_at for block in sim.blocks)
        least = 2 * math.ulp(last)  # last + ulp(last) is the next float
        for rtt_s in (1e-300, least / 2):
            with pytest.raises(ConfigurationError, match="lost to float rounding"):
                Simulation(constant_trace(), scenario, make_scheduler("fifo", scenario),
                           replace(LOSSLESS, rtt_s=rtt_s))
        # the least accepted RTT runs, its loss signals included
        sim, _ = run_one(scenario, scheduler="fifo", rtt_s=least, loss_rate=0.5)
        assert sim.counters["loss_signals"] > 0

    def test_run_twice_rejected(self):
        scenario = one_block_scenario()
        sim = Simulation(constant_trace(), scenario, make_scheduler("fifo", scenario),
                         LOSSLESS)
        sim.run()
        with pytest.raises(SimulationInvariantError):
            sim.run()

    @pytest.mark.parametrize("kw", [
        {"duration_s": 0.0}, {"duration_s": -1.0}, {"rtt_s": 0.0},
        {"loss_rate": -0.1}, {"loss_rate": 1.0},
        *({name: value} for name in ("duration_s", "rtt_s", "alpha")
          for value in (math.nan, math.inf, -math.inf)),
        {"loss_rate": math.nan}])
    def test_bad_parameters_rejected(self, kw):
        args = dict(duration_s=2.0, seed=0, loss_rate=0.0)
        args.update(kw)
        (name,) = kw
        with pytest.raises(ConfigurationError, match=name):
            RunParams(**args)

    def test_replace_checks_the_copy(self):
        with pytest.raises(ConfigurationError, match="rtt_s must be positive and finite"):
            replace(LOSSLESS, rtt_s=math.nan)


def count_feature_builds(monkeypatch, calls):
    """Count each call of the feature builder the engine calls."""
    original = linksim.compute_block_stats

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(linksim, "compute_block_stats", counting)


class TestFeatureBuilds:
    """Only proposed builds features, through the module-level
    ``compute_block_stats`` the engine calls: once per eligible block on a
    decision no retransmission settles, and none on one it does."""

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_each_policy_builds_only_what_it_reads(self, monkeypatch, name):
        calls = [0]
        per_decision = []  # (eligible, reason, builds) per decision

        def sink(record):
            if record["kind"] == "decision":
                per_decision.append((record["eligible"], record["reason"], calls[0]))
                calls[0] = 0

        count_feature_builds(monkeypatch, calls)
        scenario, trace = deep_queue_inputs(duration_s=4.0)
        Simulation(trace, scenario, make_scheduler(name, scenario=scenario),
                   RunParams(duration_s=4.0, seed=1), record=sink).run()
        assert calls[0] == 0  # every build happened inside a decision
        busy = [entry for entry in per_decision if entry[0] > 0]
        assert max(eligible for eligible, _, _ in busy) >= 20  # the queue really is deep
        for eligible, reason, builds in busy:
            fresh = name == "proposed" and reason != "retransmission"
            assert builds == (eligible if fresh else 0)
        if name == "proposed":
            assert any(reason == "retransmission" for _, reason, _ in busy)

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_past_deadline_block_reaching_a_decision_is_illegal(self, name):
        scenario = one_block_scenario(deadline_s=0.1)
        sim = Simulation(constant_trace(), scenario, make_scheduler(name, scenario=scenario),
                         LOSSLESS)
        block = sim.blocks[0]
        sim.queue.enqueue(block)  # skip the expiry filter a send opportunity runs first
        with pytest.raises(SimulationInvariantError, match="is expired at"):
            sim._fill_slot(block.arrival_time + 0.5)

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_stale_sendable_index_is_an_invariant_error(self, name):
        scenario = one_block_scenario()
        sim = Simulation(constant_trace(), scenario, make_scheduler(name, scenario=scenario),
                         LOSSLESS)
        block = sim.blocks[0]
        sim.queue.enqueue(block)
        block.unsent = 0  # behind the queue's back: only its take counts a packet out
        with pytest.raises(SimulationInvariantError, match="nothing to send"):
            sim._fill_slot(block.arrival_time)

    @pytest.mark.parametrize("case", ["not_queued", "nothing_to_send"])
    def test_policy_selecting_outside_the_sendable_index_is_an_invariant_error(self, case):
        # the policy sees only sendable blocks, so choosing any other block is
        # its fault: a block never queued, or one queued with every packet
        # out. The other block is sendable, so the policy is asked
        scenario = scenario_of(*(element(element_id=i, priority=i, deadline_s=5.0,
                                         block_size_bytes=3000, period_s=2.0) for i in (0, 1)))
        stubborn = Scheduler("stubborn", lambda *args: SchedulerDecision(
            chosen, DecisionReason.FIRST_BLOCK))
        sim = Simulation(constant_trace(), scenario, stubborn, LOSSLESS)
        chosen, other = sorted(sim.blocks, key=lambda b: b.block_id)
        sim.queue.enqueue(other)
        if case == "nothing_to_send":
            sim.queue.enqueue(chosen)
            while chosen.unsent:
                sim.queue.take(chosen)
        assert sim.queue.sendable() == [other]
        with pytest.raises(SimulationInvariantError,
                           match=r"block \(0, 0\) has nothing to send"):
            sim._fill_slot(other.arrival_time)


class TestSerialization:
    def test_event_and_decision_records_are_json_ready(self):
        _, records = run_one(one_block_scenario(), forced_loss_sends={0})
        for record in records:
            assert json.loads(json.dumps(record)) == record  # lists, not tuples
        events = [r for r in records if r["kind"] != "decision"]
        decisions = records_of(records, "decision")
        kinds = {r["kind"] for r in events}
        assert kinds == {"block_arrival", "send", "ack", "loss", "block_complete"}
        sends = records_of(records, "send")
        assert sends[0]["packet_id"] == [0, 0, 0]
        assert sends[0]["arrives"] is None  # the forced loss
        assert all(r["arrives"] > r["t"] for r in sends[1:])
        chosen = [d for d in decisions if d["selected"] is not None]
        assert chosen
        assert chosen[0]["selected"] == [0, 0]
        assert all(d["regime"] in (0, 1, 2) for d in decisions)
