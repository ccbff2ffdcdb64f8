"""The engine's invariants over generated scenarios, traces and parameters.

Each draw is run under every policy. A run must finish, which means every
``_finalize`` invariant held (every block and packet resolved, the
inflight ledger drained, sends matched by responses). On top of that:
nothing is sent after its block's deadline, a block reported on time
finished inside its window, the link never delivers more than the trace
offered, a second run gives the same records, forcing the scheduling
features to be built for every decision changes no record, every
decision's regime is the class of its smoothed estimate, the queue's
sendable index equals a full scan of the queue and its expiry watermark
is at or below every queued block's ``expires_at`` at every decision,
and every expiry filter returns what a full scan of the queue before it
finds (with those checks on, the records are again the same). Packets
are built at first take: while a block is queued, its built and unsent
counts make its packet count, and after the run the packets the log's
sends and slot discards name for a block are its built count's indices
0..n-1, first named in that order, and each ended acked or discarded.
An auditor rebuilds the report's session numbers from the event log, the
scenario, the trace and alpha alone, and they must equal
``build_report``'s exactly. The delivery booked at each send must hold
up: each block's received count and latest receive time are those of its
sends' ``arrives``, each completed block has one ``block_complete``
line, at the latest ``arrives`` of its packets, and the acks come in the
send order of the sends that were not lost.

The suite profile keeps this short; ``HYPOTHESIS_PROFILE=fuzz`` runs it at
length.
"""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksched import linksim
from blocksched.errors import ConfigurationError
from blocksched.linksim import RunParams
from blocksched.metrics import build_report
from blocksched.model import BlockAwaitingQueue, MediaElement, ScenarioConfig
from blocksched.predictor import Thresholds, classify_regime
from blocksched.schedulers import SCHEDULER_NAMES, make_scheduler
from blocksched.traces import synthesize_trace
from blocksched.units import PACKET_PAYLOAD_BYTES
from conftest import EagerFeatures, run_recorded

# one draw runs every policy four times, so it gets a fifth of the
# profile's example count
EXAMPLES = max(1, settings.default.max_examples // 5)

positive_mbps = st.floats(0.2, 8.0)
mbps_or_zero = st.one_of(st.just(0.0), positive_mbps)  # zero gives a dead segment


@st.composite
def scenarios(draw, rtt_s):
    count = draw(st.integers(1, 5))
    priorities = draw(st.permutations(range(count)))
    elements = []
    for element_id, priority in enumerate(priorities):
        # whole packets plus a tail packet of 0..payload-1 more bytes
        size = (draw(st.integers(1, 10)) * PACKET_PAYLOAD_BYTES
                + draw(st.integers(0, PACKET_PAYLOAD_BYTES - 1)))
        elements.append(MediaElement(
            element_id=element_id, priority=priority,
            deadline_s=rtt_s * draw(st.floats(0.25, 8.0)),  # below and above the RTT
            block_size_bytes=size, period_s=draw(st.floats(0.02, 1.0))))
    return ScenarioConfig(name="fuzz", elements=elements)


@st.composite
def traces(draw):
    """Constant, square-wave or ramp capacity, optionally jittered. Each
    draw has at least one sample at its peak rate, so it carries bytes
    however short it is, and many have zero-capacity stretches."""
    kind = draw(st.sampled_from(["constant", "square_wave", "ramp"]))
    peak = draw(positive_mbps)
    samples = draw(st.integers(2 if kind == "ramp" else 1, 12))  # often shorter than the run
    if kind == "constant":
        params = {"mbps": peak}
    elif kind == "square_wave":
        # a square wave opens with its "low" level, here the peak
        params = {"low_mbps": peak, "high_mbps": draw(mbps_or_zero),
                  "period_s": draw(st.floats(0.2, 3.0))}
    else:
        ends = draw(st.permutations([draw(mbps_or_zero), peak]))
        params = {"start_mbps": ends[0], "end_mbps": ends[1]}
    if draw(st.booleans()):
        # below the peak, so jitter can zero a sample but never the peak's
        params["jitter_mbps"] = peak * draw(st.floats(0.05, 0.9))
    sample_s = draw(st.sampled_from([0.05, 0.25, 1.0]))
    return synthesize_trace(kind, sample_s * samples, seed=draw(st.integers(0, 1 << 16)),
                            sample_s=sample_s, source_tag="fuzz", **params)


@st.composite
def draws(draw):
    rtt_s = draw(st.floats(0.01, 0.3))
    low = draw(st.floats(0.1, 3.0))
    scenario = draw(scenarios(rtt_s))
    trace = draw(traces())
    params = RunParams(
        duration_s=draw(st.floats(0.3, 3.0)),
        seed=draw(st.integers(0, 1 << 16)),
        rtt_s=rtt_s,
        loss_rate=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.4))),
        thresholds=Thresholds.from_mbps(low, low + draw(st.floats(0.1, 3.0))),
        literal_mid_branch=draw(st.booleans()),
        alpha=draw(st.floats(0.0, 2.0)),
    )
    return {"scenario": scenario, "trace": trace, "params": params}


def run_policy(case, name, wrap=lambda scheduler: scheduler):
    scenario, params = case["scenario"], case["params"]
    scheduler = wrap(make_scheduler(name, scenario, params.literal_mid_branch))
    return run_recorded(case["trace"], scenario, scheduler, params)


_sendable = BlockAwaitingQueue.sendable


def checked_sendable(queue):
    """The queue's sendable index, asserted equal to a full scan, with the
    expiry watermark asserted a lower bound on the queued blocks'
    ``expires_at``; the engine reads both at every decision. Every queued
    block's built and unsent counts add up to its packet count."""
    ready = _sendable(queue)
    assert ready == [b for b in queue if (b.pending or b.unsent) and not b.expired]
    for b in queue:
        assert b.built + b.unsent == b.packet_count, b.block_id
    assert queue.next_expiry <= min((b.expires_at for b in queue), default=math.inf)
    return ready


_filter_expired = linksim.filter_expired


def checked_filter_expired(queue, now):
    """The expiry filter, asserted equal to a full scan of the queue taken
    before the call."""
    before = list(queue)
    expired = _filter_expired(queue, now)
    assert expired == [b for b in before if now - b.arrival_time > b.deadline_s], now
    return expired


def audit_report(records, scenario, trace, duration_s, alpha) -> dict | None:
    """The report's session numbers rebuilt from the event log: block sizes
    and deadlines come from the scenario's elements, arrivals and
    completions from the log, and the window ends at the later of the run
    length and the last record. None when the run made no blocks."""
    elements = {e.element_id: e for e in scenario.elements}
    arrivals = {}
    completions = {}
    delivered = 0
    for r in records:
        if r["kind"] == "block_arrival":
            arrivals[tuple(r["block_id"])] = r["t"]
        elif r["kind"] == "block_complete":
            completions[tuple(r["block_id"])] = r["t"]
        elif r["kind"] == "send" and r["arrives"] is not None:
            delivered += r["size"]
    if not arrivals:
        return None
    on_time = [block_id for block_id, finish in completions.items()
               if finish - arrivals[block_id] <= elements[block_id[0]].deadline_s]
    on_time_bytes = sum(elements[block_id[0]].block_size_bytes for block_id in on_time)
    offered = trace.integrate_capacity(0.0, max(duration_s, max(r["t"] for r in records)))
    ratio = len(on_time) / len(arrivals)
    util = min(1.0, delivered / offered)
    return {
        "block_count": len(arrivals),
        "on_time_count": len(on_time),
        "delivery_ratio": ratio,
        "delivered_bytes": delivered,
        "utilization": util,
        "effective_utilization": min(1.0, on_time_bytes / offered),
        "qoe": ratio + alpha * util,
    }


def check_built_packets(result, records) -> None:
    """Packets are built at first take, in index order. A built packet is
    sent or discarded from the selection queue, so the packets a block's
    sends and slot discards name are its built count's (block_id, 0..n-1),
    first named in index order; a completed block built all of them, and
    each built packet ended acked or discarded."""
    named = {}  # block id -> packet indices, in order of first naming
    acks = {}  # block id -> ack lines
    for r in records:
        if r["kind"] in ("send", "slot_discard"):
            element_id, index, i = r["packet_id"]
            named.setdefault((element_id, index), {})[i] = None
        elif r["kind"] == "ack":
            block_id = tuple(r["packet_id"][:2])
            acks[block_id] = acks.get(block_id, 0) + 1
    for block in result.blocks:
        assert list(named.get(block.block_id, ())) == list(range(block.built)), block.block_id
        assert block.built <= block.packet_count
        if block.completion_time is not None:
            assert block.built == block.packet_count
        assert block.acked_packets == acks.get(block.block_id, 0), block.block_id
        assert block.acked_packets + block.discarded_packets == block.built, block.block_id


def check_deliveries(result, records) -> None:
    """The deliveries the engine books at send time, checked against the
    log: received counts, latest receive times, completion lines and the
    order of the acks."""
    arrives = {}  # packet id -> client arrival, from the one send that was not lost
    completes = {}  # block id -> the t of its block_complete line
    for r in records:
        if r["kind"] == "send" and r["arrives"] is not None:
            assert tuple(r["packet_id"]) not in arrives, r
            arrives[tuple(r["packet_id"])] = r["arrives"]
        elif r["kind"] == "block_complete":
            assert tuple(r["block_id"]) not in completes, r
            completes[tuple(r["block_id"])] = r["t"]
    for block in result.blocks:
        received = [arrives[(*block.block_id, i)] for i in range(block.packet_count)
                    if (*block.block_id, i) in arrives]
        assert block.received_packets == len(received), block.block_id
        assert block.latest_receive_time == max(received, default=-math.inf), block.block_id
        if block.completion_time is None:
            assert block.block_id not in completes
        else:
            assert completes[block.block_id] == block.completion_time == max(received)
    acks = [tuple(r["packet_id"]) for r in records if r["kind"] == "ack"]
    assert acks == list(arrives)  # a dict keeps the sends' order


@settings(max_examples=EXAMPLES)
@given(draws())
def test_engine_invariants_hold_on_generated_inputs(case):
    for name in SCHEDULER_NAMES:
        result, records = run_policy(case, name)  # finishing means _finalize passed
        blocks = {block.block_id: block for block in result.blocks}
        for record in records:
            if record["kind"] == "send":
                element_id, index, _ = record["packet_id"]
                assert not blocks[(element_id, index)].past_deadline(record["t"]), record
            elif record["kind"] == "block_complete":
                block = blocks[tuple(record["block_id"])]
                in_window = record["t"] - block.arrival_time <= block.deadline_s
                assert record["on_time"] == in_window, record
            elif record["kind"] == "decision":
                regime = classify_regime(record["smoothed_bw"], case["params"].thresholds)
                assert record["regime"] == regime, record
        check_built_packets(result, records)
        check_deliveries(result, records)
        offered = case["trace"].integrate_capacity(0.0, result.end_time)
        assert result.counters["delivered_bytes"] <= offered * (1 + 1e-9) + 1e-6

        audit = audit_report(records, case["scenario"], case["trace"],
                             case["params"].duration_s, case["params"].alpha)
        if audit is None:
            with pytest.raises(ConfigurationError):
                build_report(result, case["trace"])
        else:
            report = build_report(result, case["trace"])
            assert audit == {key: getattr(report, key) for key in audit}

        again = run_policy(case, name)
        assert again[1] == records
        eager = run_policy(case, name, wrap=EagerFeatures)
        assert eager[1] == records
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(BlockAwaitingQueue, "sendable", checked_sendable)
            patch.setattr(linksim, "filter_expired", checked_filter_expired)
            checked = run_policy(case, name)
        assert checked[1] == records
