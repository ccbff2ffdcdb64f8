"""End-to-end behavior of the event-driven link simulation."""
from __future__ import annotations

import gc
import json
import math
from dataclasses import replace

import pytest

from blocksched import linksim, schedulers
from blocksched.errors import ConfigurationError, IllegalStateError, SimulationInvariantError
from blocksched.linksim import Simulation
from blocksched.model import Packet
from blocksched.runner import RunParams, execute_run
from blocksched.schedulers import SCHEDULER_NAMES, make_scheduler
from blocksched.traces import synthesize_trace
from conftest import (EagerFeatures, deep_queue_inputs, element, force_losses, run_recorded,
                      scenario_of)

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
    (result, records)."""
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
        result, records = self._run()
        sends = records_of(records, "send")
        t0 = result.blocks[0].arrival_time
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
        result, records = self._run()
        t0 = result.blocks[0].arrival_time
        arrivals = [r["arrives"] for r in records_of(records, "send")]
        assert arrivals == [pytest.approx(t0 + 0.052, **APPROX),
                            pytest.approx(t0 + 0.064, **APPROX)]
        # the block keeps the latest arrival booked, its completion instant
        assert result.blocks[0].latest_receive_time == arrivals[-1]
        # a delivery writes no line of its own
        assert records_of(records, "delivered") == []
        acks = records_of(records, "ack")
        assert [r["t"] for r in acks] == [
            pytest.approx(t0 + 0.092, **APPROX), pytest.approx(t0 + 0.104, **APPROX)]
        # the first response window [t0, t0+0.092] still holds both packets,
        # including the measured one; the second only the later packet
        assert acks[0]["thr_smoothed"] == pytest.approx(3000 / 0.092, **APPROX)
        assert acks[1]["thr_smoothed"] == pytest.approx(1500 / 0.092, **APPROX)
        assert result.end_time == pytest.approx(t0 + 0.104, **APPROX)

    def test_block_completes_on_time(self):
        result, records = self._run()
        t0 = result.blocks[0].arrival_time
        completes = records_of(records, "block_complete")
        assert len(completes) == 1
        assert completes[0]["t"] == pytest.approx(t0 + 0.064, **APPROX)
        assert completes[0]["on_time"] is True
        assert result.blocks[0].completion_time == pytest.approx(t0 + 0.064, **APPROX)
        assert result.counters["blocks_completed"] == 1
        assert result.counters["blocks_expired"] == 0
        assert result.counters["delivered_bytes"] == 3000


class TestLossAndRetransmission:
    def test_forced_loss_requeues_and_preempts(self):
        result, records = run_one(one_block_scenario(), forced_loss_sends={0})
        t0 = result.blocks[0].arrival_time
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
        assert after[0]["selected"] == list(result.blocks[0].block_id)
        assert after[0]["reason"] == "retransmission"

        sends = records_of(records, "send")
        assert len(sends) == 3
        assert sends[2]["packet_id"] == loss["packet_id"]  # the lost packet goes out again
        assert sends[2]["retransmission"] is True
        assert sends[2]["t"] == pytest.approx(t0 + 0.08, **APPROX)
        assert result.counters["retransmission_sends"] == 1
        assert result.counters["loss_signals"] == 1

        # the lost packet went out twice, and no third packet was built
        assert [r["packet_id"] for r in sends].count(loss["packet_id"]) == 2
        assert result.blocks[0].built == result.blocks[0].acked_packets == 2
        assert result.blocks[0].completion_time == pytest.approx(t0 + 0.132, **APPROX)

    def test_loss_for_expired_block_is_dropped(self):
        # deadline shorter than one transmission: the block expires at the
        # second opportunity, its slot packet is discarded unsent, and the
        # eventual loss signal must not requeue anything
        result, records = run_one(one_block_scenario(deadline_s=0.01), forced_loss_sends={0})
        t0 = result.blocks[0].arrival_time
        discards = records_of(records, "slot_discard")
        assert len(discards) == 1
        assert discards[0]["t"] == pytest.approx(t0 + 0.012, **APPROX)
        assert result.counters["slot_discards"] == 1

        losses = records_of(records, "loss")
        assert len(losses) == 1
        assert losses[0]["requeued"] is False
        assert records_of(records, "block_expired") != []
        assert records_of(records, "block_complete") == []
        assert result.counters == {**result.counters, "sends": 1,
                                   "delivered_packets": 0, "blocks_expired": 1}
        # the lost packet and the slot's both ended discarded, none acked
        block = result.blocks[0]
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
        result, records = run_one(scenario, trace=trace, scheduler=scheduler,
                                  duration_s=6.0, seed=3, loss_rate=0.02)
        c = result.counters
        assert c["blocks_completed"] + c["blocks_expired"] == len(result.blocks)
        assert c["sends"] == len(records_of(records, "send"))
        assert c["loss_signals"] == len(records_of(records, "loss"))
        assert c["delivered_bytes"] == sum(r["size"] for r in records_of(records, "send")
                                           if r["arrives"] is not None)
        arrivals = {}  # block id -> the client arrivals its sends booked
        for r in records_of(records, "send"):
            if r["arrives"] is not None:
                arrivals.setdefault(tuple(r["packet_id"][:2]), []).append(r["arrives"])
        for block in result.blocks:
            assert block.acked_packets + block.discarded_packets == block.built
            if block.completion_time is not None:
                assert not block.expired
                assert block.is_fully_received()
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
        assert on_report.to_json() == off_report.to_json()
        assert on.counters == off.counters
        assert len(records_of(records, "send")) == on.counters["sends"] > 0

    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    def test_smoothed_estimates_match_an_inflight_replay(self, scheduler):
        # a long round trip keeps dozens of packets in flight and loss adds
        # retransmissions; each response's estimate is recomputed from the
        # send/ack/loss records alone by brute force
        scenario = scenario_of(
            element(element_id=0, priority=0, deadline_s=1.2, block_size_bytes=15000, period_s=0.2),
            element(element_id=1, priority=1, deadline_s=2.0, block_size_bytes=30000, period_s=0.25))
        _, trace = self._inputs()
        result, records = run_one(scenario, trace=trace, scheduler=scheduler,
                                  duration_s=6.0, seed=3, rtt_s=0.6, loss_rate=0.05)
        inflight: dict = {}  # packet id -> (size, send time)
        responses = 0
        for r in records:
            pid = tuple(r.get("packet_id", ()))
            if r["kind"] == "send":
                inflight[pid] = (r["size"], r["t"])
            elif r["kind"] in ("ack", "loss"):
                _, start = inflight[pid]
                sent_since = sum(size for size, sent in inflight.values() if sent >= start)
                assert r["thr_smoothed"] == sent_since / (r["t"] - start)
                del inflight[pid]
                responses += 1
        assert inflight == {}
        assert responses == result.counters["sends"]
        assert result.counters["retransmission_sends"] > 0

    def test_delivered_bytes_bounded_by_link_capacity(self):
        scenario = scenario_of(element(element_id=0, priority=0, deadline_s=0.5,
                                       block_size_bytes=15000, period_s=0.1))
        trace = constant_trace(mbps=1.0)
        result, _ = run_one(scenario, trace=trace, duration_s=5.0, seed=2)
        offered = trace.integrate_capacity(0.0, result.end_time)
        assert result.counters["delivered_bytes"] <= offered + 1e-6

    def test_sends_stay_inside_block_windows(self):
        scenario = scenario_of(
            element(element_id=0, priority=0, deadline_s=0.1, block_size_bytes=3000, period_s=0.15),
            element(element_id=1, priority=1, deadline_s=0.2, block_size_bytes=7500, period_s=0.2))
        trace = synthesize_trace("square_wave", duration_s=20.0, seed=0,
                                 low_mbps=0.4, high_mbps=2.0, period_s=3.0)
        result, records = run_one(scenario, trace=trace, duration_s=6.0, seed=5, loss_rate=0.05)
        windows = {b.block_id: (b.arrival_time, b.expires_at) for b in result.blocks}
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
        sim = Simulation(constant_trace(), scenario, make_scheduler("fifo"),
                         LOSSLESS)
        block = sim.blocks[0]
        assert block.built == 0  # built at first take, not up front
        while sim.counters["sends"] == 0:
            sim.advance()
        # the sent packet is held by its ack event alone
        (first,) = [payload for _, kind, _, payload in sim._heap if kind == linksim._ACK]
        assert first.packet_id == (block.block_id, 0) and first.send_time is not None
        # 12 ms on the wire plus a 40 ms one-way delay, known at the send
        assert first.client_receive_time == pytest.approx(first.send_time + 0.052, **APPROX)
        assert block.latest_receive_time == first.client_receive_time
        assert sim.counters["delivered_packets"] == 1
        assert sim.counters["delivered_bytes"] == first.size_bytes
        assert sim.blocks[0].received_packets == 1
        assert sim.blocks[0].completion_time is None  # completion waits for the arrival

    def test_one_delivered_event_per_fully_received_block(self):
        # a delivery is booked at its send; only a block's last arriving
        # packet gets a heap event, and each delivered packet one ack
        scenario, trace = TestConservation()._inputs()
        kinds = []

        def drive(sim):
            while (step := sim.advance()) is not None:
                kinds.append(step[1])
            return sim

        sim, _ = run_recorded(trace, scenario, make_scheduler("proposed", scenario=scenario),
                              RunParams(duration_s=6.0, seed=3, loss_rate=0.02), drive=drive)
        received = [b for b in sim.blocks if b.is_fully_received()]
        delivered = sim.counters["delivered_packets"]
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
        assert sim.counters["blocks_expired"] > 0
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
        result, records = run_recorded(trace, scenario, make_scheduler("fifo", scenario=scenario),
                                       RunParams(duration_s=4.0, seed=2, loss_rate=0.05))
        c = result.counters
        assert c["blocks_expired"] > 0 and c["slot_discards"] > 0
        unrequeued = [r for r in records_of(records, "loss") if not r["requeued"]]
        # some packet was discarded while it waited in a pending list
        assert (sum(b.discarded_packets for b in result.blocks)
                > c["slot_discards"] + len(unrequeued) > c["slot_discards"])
        assert sum(b.built for b in result.blocks) > 0
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
                held = (len(sim.ledger) + sum(len(b.pending) for b in sim.blocks)
                        + (sim._slot is not None))
                assert live_packets(baseline) == held, steps
                most_inflight = max(most_inflight, len(sim.ledger))
        assert most_inflight > 200
        assert sim.counters["loss_signals"] > 0
        assert live_packets(baseline) == 0


class TestGuards:
    def test_stale_event_is_an_invariant_error(self):
        scenario = one_block_scenario()
        sim = Simulation(constant_trace(), scenario, make_scheduler("fifo"),
                         LOSSLESS)
        first = sim.advance()
        assert first is not None
        sim._push(first[0] - 0.5, linksim._SEND_OPPORTUNITY, None)
        with pytest.raises(SimulationInvariantError, match="clock regression"):
            while sim.advance() is not None:
                pass

    def test_ledger_byte_drift_is_an_invariant_error(self):
        sim = Simulation(constant_trace(), one_block_scenario(), make_scheduler("fifo"),
                         LOSSLESS)
        sim.advance()
        sim.ledger._total += 1  # add/remove accounting drifts by one byte
        with pytest.raises(SimulationInvariantError, match="1 bytes"):
            sim.run()

    @pytest.mark.parametrize("tamper", ["unbuilt", "unacked"])
    def test_completed_block_short_of_packets_is_an_invariant_error(self, tamper):
        # a completed block must have built, and got acks for, every packet
        sim = Simulation(constant_trace(), one_block_scenario(), make_scheduler("fifo"),
                         LOSSLESS)
        while sim.advance() is not None:
            pass
        block = sim.blocks[0]
        assert block.completion_time is not None
        if tamper == "unbuilt":
            block.built -= 1
        else:
            block.acked_packets -= 1
        with pytest.raises(SimulationInvariantError, match="completed with"):
            sim._finalize()

    def test_lost_packet_dropped_without_discard_is_an_invariant_error(self):
        # every built packet must end acked or discarded; one that leaves
        # its pending list any other way fails the run. The loss signal
        # comes at t0 + 80 ms, the window closes at t0 + 90 ms and the last
        # ack at t0 + 104 ms, so the block ends expired
        sim = force_losses(Simulation(constant_trace(), one_block_scenario(deadline_s=0.09),
                                      make_scheduler("fifo"), LOSSLESS), {0})
        block = sim.blocks[0]
        while not block.pending:
            sim.advance()
        block.pending.pop()
        sim.queue.pending_changed(block)
        with pytest.raises(SimulationInvariantError,
                           match=r"built 2 packets but 1 were acked and 0 discarded"):
            sim.run()

    def test_rtt_lost_in_rounding_is_an_invariant_error(self):
        # t + rtt_s rounds back to t, so the loss signal's response window
        # has no width and no estimate exists
        sim = force_losses(Simulation(constant_trace(), one_block_scenario(),
                                      make_scheduler("fifo"), replace(LOSSLESS, rtt_s=1e-300)),
                           {0})
        assert sim.blocks[0].arrival_time > 0
        with pytest.raises(SimulationInvariantError, match="non-positive width"):
            sim.run()

    def test_run_twice_rejected(self):
        sim = Simulation(constant_trace(), one_block_scenario(), make_scheduler("fifo"),
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


def count_flag_builds(monkeypatch, calls):
    """Count one per block each time a context builds its retransmission
    flags."""
    original = schedulers.SchedulingContext.retransmission.fget

    def counting(ctx):
        if ctx._retransmission is None:
            calls[0] += len(ctx.blocks)
        return original(ctx)

    monkeypatch.setattr(schedulers.SchedulingContext, "retransmission", property(counting))


class TestFeatureBuilds:
    """Features are built only for policies that read them, once per
    eligible block per decision, through the module-level
    ``compute_block_stats`` the engine calls; retransmission flags are
    built only for the policy that reads them."""

    FEATURE_READERS = ("proposed",)
    FLAG_READERS = ("proposed",)

    def _calls_per_decision(self, monkeypatch, name, wrap=lambda scheduler: scheduler,
                            install=count_feature_builds):
        """Run the deep-queue scenario counting what ``install`` counts (the
        feature builds by default); returns (eligible, calls) for every
        decision with a block to choose from."""
        calls = [0]
        per_decision = []

        def sink(record):
            if record["kind"] == "decision":
                per_decision.append((record["eligible"], calls[0]))
                calls[0] = 0

        install(monkeypatch, calls)
        scenario, trace = deep_queue_inputs(duration_s=4.0)
        scheduler = wrap(make_scheduler(name, scenario=scenario))
        Simulation(trace, scenario, scheduler, RunParams(duration_s=4.0, seed=1),
                   record=sink).run()
        assert calls[0] == 0  # every build happened inside a decision
        busy = [pair for pair in per_decision if pair[0] > 0]
        assert max(eligible for eligible, _ in busy) >= 20  # the queue really is deep
        return busy

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_each_policy_builds_only_what_it_reads(self, monkeypatch, name):
        for eligible, builds in self._calls_per_decision(monkeypatch, name):
            assert builds == (eligible if name in self.FEATURE_READERS else 0)

    @pytest.mark.parametrize("name", ["proposed", "fifo"])
    def test_repeated_reads_build_once(self, monkeypatch, name):
        busy = self._calls_per_decision(monkeypatch, name, wrap=EagerFeatures)
        assert all(builds == eligible for eligible, builds in busy)

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_each_policy_asks_for_retransmission_flags_only_if_it_reads_them(
            self, monkeypatch, name):
        for eligible, asks in self._calls_per_decision(
                monkeypatch, name, install=count_flag_builds):
            assert asks == (eligible if name in self.FLAG_READERS else 0)

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_past_deadline_block_reaching_a_decision_is_illegal(self, name):
        scenario = one_block_scenario(deadline_s=0.1)
        sim = Simulation(constant_trace(), scenario, make_scheduler(name, scenario=scenario),
                         LOSSLESS)
        block = sim.blocks[0]
        sim.queue.enqueue(block)  # skip the expiry filter a send opportunity runs first
        with pytest.raises(IllegalStateError, match="is expired at"):
            sim._fill_slot(block.arrival_time + 0.5)

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_stale_sendable_index_is_an_invariant_error(self, name):
        scenario = one_block_scenario()
        sim = Simulation(constant_trace(), scenario, make_scheduler(name, scenario=scenario),
                         LOSSLESS)
        block = sim.blocks[0]
        sim.queue.enqueue(block)
        block.unsent = 0  # without telling the queue through pending_changed
        with pytest.raises(SimulationInvariantError, match="nothing to send"):
            sim._fill_slot(block.arrival_time)


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
