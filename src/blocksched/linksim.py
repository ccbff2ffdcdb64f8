"""Event-driven sender over a capacity-limited link.

The link transmits one packet at a time; how long a packet occupies the
link comes from integrating the capacity trace. A depth-1 selection
queue sits in front of the wire: while one packet transmits, the policy
has already chosen the next one, so a packet's sending latency (time
from entering the selection queue to leaving the sender) reflects how
long the previous packet took. The event log's ``thr_instant`` is a
packet's size over that latency; nothing else reads it.

A run's settings are one ``RunParams``, the one home of each setting's
default and range check; the engine and the report read it whole.

Receiver feedback is modeled with a fixed round trip: a delivered packet
reaches the client one propagation delay after it leaves the wire and
its acknowledgement returns one propagation delay later; a lost packet
never reaches the client and its loss signal reaches the sender one full
round trip after the send. Acknowledgements and loss signals are never
lost themselves. Each send takes one draw from a dedicated seeded loss
stream, so a run is a pure function of its configuration.

The engine schedules events; the awaiting queue (``model``) owns each
queued block's packets. ``_fill_slot`` has it ``take`` the chosen block's
next packet, built then, so a block that expires unsent builds none, and a
loss signal hands the packet to its ``lost``, which requeues it or, for an
expired block, discards it. A packet holds its block, so every handler
reaches the block from the packet alone.

A packet is held only while the sender needs it: by the selection slot,
on the wire by its response event and the predictor's inflight ledger,
and by its block's ``pending`` list after a loss, so a run's memory grows
with what is in flight.

Sends are serial and the delay is fixed, so both the client arrival and
the response of a packet are known when it is sent. The send applies the
delivery's bookkeeping (the packet's ``client_receive_time`` and the
block's received count) and schedules the ack or loss signal. A block
gets one delivered event, at the arrival of its last packet. Each send
ends strictly after the one before it, so arrivals never decrease in
send order, and that event's instant is the block's latest arrival: the
queue's ``complete`` takes it as the completion time if the block is
still live. The engine's ``block_complete`` flag is ``Block.on_time``,
the rule every report reads, and only an on-time completion is told to
the policy (``note_on_time``).

A finished ``Simulation`` is the run's result. Its outcome lives in its
blocks; ``counters`` keeps what no block holds: ``sends``,
``retransmission_sends``, ``loss_signals`` and ``slot_discards``.

Event kinds at equal timestamps process in a fixed order:
send_opportunity, packet_delivered (a block's last packet), ack,
loss_signal, block_arrival. Only the middle three share a heap, ordered
by (time, kind, seq). At most one send opportunity is ever pending, so
it lives in one field, ``_opportunity_at`` (infinity when none is
pending), and the arrivals are ``self.blocks``, which ``generate_blocks``
sorts by (arrival time, block id), read through a cursor. ``advance``
merges the three sources: the opportunity runs at or before any other
event at its instant, as its kind is first, and an arrival only before a
strictly later event, as its kind is last; arrivals at one instant run
in the blocks' order. One heap of all five kinds would run the same
events in the same order (``tests/test_engine_fuzz.py`` checks this).

Recording is opt-in. Pass ``record``, a callable taking one dict, and the
simulation hands it a JSON-ready record for every event and scheduling
decision, in engine order; with ``record=None`` (the default, used by
sweeps and tuning) no record is built. Only ``blocksched run
--event-log`` and the tests turn it on; the event log is one JSON object
per line in that same order. Each record carries ``kind`` and ``t``;
the other keys per kind are listed in the README.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable

from .errors import ConfigurationError, SimulationInvariantError
from .model import (
    Block,
    BlockAwaitingQueue,
    Packet,
    ScenarioConfig,
    filter_expired,
    generate_blocks,
)
from .predictor import BandwidthPredictor, Thresholds
from .schedulers import Scheduler, SchedulerDecision, compute_block_stats
from .traces import LinkTrace

_LOSS_STREAM_OFFSET = 0x1F3A9C


# event kinds; their order is the tie order at equal timestamps
_SEND_OPPORTUNITY = 0
_PACKET_DELIVERED = 1
_ACK = 2
_LOSS_SIGNAL = 3
_BLOCK_ARRIVAL = 4

_INF = math.inf


@dataclass(frozen=True)
class RunParams:
    """Every setting of a run except the trace, scenario and policy. The CLI's
    flags default to the class attributes; every copy is range-checked,
    ``dataclasses.replace``'s too. The report reads alpha and the horizon,
    make_scheduler literal_mid_branch, and the engine the rest."""

    duration_s: float
    seed: int = 0
    rtt_s: float = 0.08
    loss_rate: float = 0.005
    alpha: float = 0.85  # utilization weight in QoE
    thresholds: Thresholds = Thresholds.from_mbps(0.8, 2.3)  # frozen, so shared
    literal_mid_branch: bool = False

    def __post_init__(self) -> None:
        # unchecked, an infinite horizon generates blocks forever, a NaN RTT
        # breaks the event clock and a NaN alpha scores a NaN QoE
        if not math.isfinite(self.duration_s) or self.duration_s <= 0:
            raise ConfigurationError("duration_s must be positive and finite, got %r" % self.duration_s)
        if not math.isfinite(self.rtt_s) or self.rtt_s <= 0:
            raise ConfigurationError("rtt_s must be positive and finite, got %r" % self.rtt_s)
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError("loss_rate must be in [0, 1), got %r" % self.loss_rate)
        if not math.isfinite(self.alpha) or self.alpha < 0:
            raise ConfigurationError("alpha must be non-negative and finite, got %r" % self.alpha)


def _packet_ref(packet: Packet) -> list:
    """A packet id as a flat JSON list: element id, block index, packet index."""
    element_id, block_index = packet.block.block_id
    return [element_id, block_index, packet.index]


class Simulation:
    """One run of one scheduler over one trace and scenario.

    A run refuses an RTT that float addition loses at its latest send
    instant, the latest block's ``expires_at``: there a loss signal at
    ``t + rtt_s`` would land on ``t`` itself, an empty response window.
    RunParams cannot check this, since the instant depends on the
    scenario's deadlines, so the check follows block generation.
    """

    def __init__(self, trace: LinkTrace, scenario: ScenarioConfig, scheduler: Scheduler,
                 params: RunParams, *, record: Callable[[dict], None] | None = None) -> None:
        self.trace = trace
        self.scenario = scenario
        self.scheduler = scheduler
        self.params = params
        # read on every send
        self.rtt_s = params.rtt_s
        self.one_way_delay_s = params.rtt_s / 2.0
        self.loss_rate = params.loss_rate
        self.record = record

        self.now = 0.0
        self.queue = BlockAwaitingQueue()
        self.predictor = BandwidthPredictor(params.thresholds)
        self.blocks = generate_blocks(scenario, params.duration_s, params.seed)
        if self.blocks:
            # half the RTT must survive too: the one-way delay is added to
            # a send's end and again to its arrival
            last = max(block.expires_at for block in self.blocks)
            if not last + self.one_way_delay_s > last:
                raise ConfigurationError(
                    "rtt_s %r is lost to float rounding at the run's latest send instant %r"
                    % (params.rtt_s, last))
        self._loss_rng = random.Random(_LOSS_STREAM_OFFSET + params.seed)
        self._heap: list[tuple] = []
        self._seq = 0
        self._slot: Packet | None = None
        self._opportunity_at = _INF  # the one pending send opportunity
        # the next block to arrive is self.blocks[self._cursor]
        self._cursor = 0
        self._arrival_at = self.blocks[0].arrival_time if self.blocks else _INF
        self.counters = {
            "sends": 0,
            "retransmission_sends": 0,
            "loss_signals": 0,
            "slot_discards": 0,
        }
        self.finished = False

    # -- event plumbing ------------------------------------------------

    def _push(self, time_s: float, kind: int, payload) -> None:
        """Schedule a heap event; kind is one of the event-kind ints."""
        heappush(self._heap, (time_s, kind, self._seq, payload))
        self._seq += 1

    def _clock_regression(self, time_s: float) -> SimulationInvariantError:
        return SimulationInvariantError("clock regression: %r -> %r" % (self.now, time_s))

    def advance(self):
        """Process the earliest pending event, by the tie order; returns
        (time, kind), with the kind as its event-kind int, or None when no
        event is pending. Events may never run behind the clock."""
        heap = self._heap
        at = self._opportunity_at
        arrival_at = self._arrival_at
        # the tie order puts the heap's kinds after the opportunity's and
        # before the arrivals'
        if heap and (time_s := heap[0][0]) < at and time_s <= arrival_at:
            time_s, kind, _, payload = heappop(heap)
            if time_s < self.now:
                raise self._clock_regression(time_s)
            self.now = time_s
            if kind == _ACK:
                self._on_ack(time_s, payload)
            elif kind == _PACKET_DELIVERED:
                self._on_block_delivered(time_s, payload)
            elif kind == _LOSS_SIGNAL:
                self._on_loss_signal(time_s, payload)
            else:
                raise SimulationInvariantError("unknown heap event kind %r" % kind)
            return time_s, kind
        if at <= arrival_at:
            if at == _INF:
                return None
            if at < self.now:
                raise self._clock_regression(at)
            self.now = at
            self._opportunity_at = _INF
            self._on_send_opportunity(at)
            return at, _SEND_OPPORTUNITY
        if arrival_at < self.now:
            raise self._clock_regression(arrival_at)
        self.now = arrival_at
        blocks = self.blocks
        cursor = self._cursor
        block = blocks[cursor]
        cursor += 1
        self._cursor = cursor
        self._arrival_at = blocks[cursor].arrival_time if cursor < len(blocks) else _INF
        self._on_block_arrival(arrival_at, block)
        return arrival_at, _BLOCK_ARRIVAL

    def run(self) -> None:
        """Process every event, then audit the drained run."""
        if self.finished:
            raise SimulationInvariantError("simulation already ran")
        while self.advance() is not None:
            pass
        self._finalize()
        self.finished = True

    def _ensure_opportunity(self, time_s: float) -> None:
        if self._opportunity_at == _INF:
            self._opportunity_at = time_s

    # -- handlers ------------------------------------------------------

    def _on_block_arrival(self, t: float, block: Block) -> None:
        self.queue.enqueue(block)
        if self.record is not None:
            self.record({"kind": "block_arrival", "t": t, "block_id": list(block.block_id)})
        self._ensure_opportunity(t)

    def _record_expiry(self, block: Block, t: float) -> None:
        if self.record is not None:
            self.record({"kind": "block_expired", "t": t, "block_id": list(block.block_id)})

    def _fill_slot(self, t: float) -> None:
        """Let the policy choose a block at t and put the packet the queue's
        ``take`` gives for it in the selection queue; with nothing eligible
        the policy is not asked and the slot stays empty."""
        queue = self.queue
        eligible = queue.sendable()
        for b in eligible:
            if not (b.unsent or b.pending) or b.expired:
                raise SimulationInvariantError(
                    "sendable index holds block %r, which has nothing to send" % (b.block_id,))
        # the queue was filtered at this instant, so no eligible block can be
        # past its deadline; the policy may never see one. Below the expiry
        # watermark no queued block can be, so only a later t is checked
        if t >= queue.next_expiry:
            for b in eligible:
                if t >= b.expires_at:  # past_deadline(t)
                    raise SimulationInvariantError("block %r is expired at %r" % (b.block_id, t))
        regime = self.predictor.regime
        smoothed = self.predictor.smoothed
        if not eligible:
            if self.record is not None:
                self.record({"kind": "decision", "t": t, "selected": None,
                             "reason": "none_eligible", "regime": int(regime), "score": None,
                             "smoothed_bw": smoothed, "eligible": 0})
            return
        # proposed builds its features through its features argument, the
        # baselines read block fields; the module global is passed so that a
        # wrapper installed on it sees every call
        decision: SchedulerDecision = self.scheduler.select(t, eligible, regime, smoothed,
                                                            compute_block_stats)
        block = decision.selected
        if self.record is not None:
            self.record({"kind": "decision", "t": t, "selected": list(block.block_id),
                         "reason": decision.reason.value, "regime": int(regime),
                         "score": decision.score, "smoothed_bw": smoothed,
                         "eligible": len(eligible)})
        # take refuses a block outside the sendable index, the policy's fault
        packet = queue.take(block)
        packet.enqueue_time = t
        self._slot = packet

    def _on_send_opportunity(self, t: float) -> None:
        slot = self._slot
        # below the expiry watermark no queued block is past its deadline;
        # the filter is called through the module global so that a wrapper
        # installed on it sees every call
        if t >= self.queue.next_expiry:
            for block in filter_expired(self.queue, t):
                self._record_expiry(block, t)
            # only that filter marks blocks expired, the slot packet's block
            # too; a chosen-but-unsent packet of an expired block must not
            # burn capacity
            if slot is not None and (owner := slot.block).expired:
                owner.discarded_packets += 1
                self.counters["slot_discards"] += 1
                if self.record is not None:
                    self.record({"kind": "slot_discard", "t": t, "packet_id": _packet_ref(slot)})
                self._slot = slot = None
        if slot is None:
            self._fill_slot(t)
            slot = self._slot
        if slot is None:
            return  # nothing to send, link goes idle
        # transmit
        self._slot = None
        packet = slot
        size = packet.size_bytes
        counters = self.counters
        is_retx = packet.sent
        packet.sent = True
        if is_retx:
            counters["retransmission_sends"] += 1
        self.predictor.on_send(packet, size, t)
        lost = self._loss_rng.random() < self.loss_rate
        counters["sends"] += 1
        end = self.trace.time_to_send(t, size)
        # _push inlined on the per-packet path: the same tuple and seq order
        heap = self._heap
        seq = self._seq
        if lost:
            arrive = None
            heappush(heap, (t + self.rtt_s, _LOSS_SIGNAL, seq, packet))
        else:
            # sends are serial and the delay is fixed, so the client arrival
            # and the ack are known now; the delivery's bookkeeping is applied
            # here, and no decision reads it before the arrival
            if packet.client_receive_time is not None:
                raise SimulationInvariantError("packet %r delivered twice" % (packet.packet_id,))
            owd = self.one_way_delay_s
            arrive = end + owd
            packet.client_receive_time = arrive
            block = packet.block
            block.received_packets += 1
            heappush(heap, (arrive + owd, _ACK, seq, packet))
            if block.received_packets == block.packet_count:
                # the block's last packet to arrive; it alone gets an event
                seq += 1
                heappush(heap, (arrive, _PACKET_DELIVERED, seq, block))
        self._seq = seq + 1
        if self.record is not None:
            latency = t - packet.enqueue_time
            self.record({"kind": "send", "t": t, "packet_id": _packet_ref(packet),
                         "size": size, "retransmission": is_retx,
                         "thr_instant": size / latency if latency > 0 else None,
                         "arrives": arrive})
        self._fill_slot(t)
        # the link is busy until end; a second pending opportunity would be
        # overwritten and lost
        if self._opportunity_at != _INF:
            raise SimulationInvariantError("send opportunity at %r already pending at a send"
                                           % self._opportunity_at)
        self._opportunity_at = end

    def _on_block_delivered(self, t: float, block: Block) -> None:
        """The block's last packet reached the client at t, its completion
        instant unless it has expired.

        The sends booked every delivery and pushed the acks, so this event
        exists only for completion, at the arrival instant and in its tie
        slot. Pushing an ack at its send rather than at its arrival changes
        no order: its instant is (end + owd) + owd and ends never decrease
        in send order, so arrivals run in send order and would push their
        acks in send order too. The heap orders by (time, kind), and seq
        breaks ties only within one (time, kind), so acks at one float
        instant run in send order either way.
        """
        if not block.expired:
            self.queue.complete(block, t)
            on_time = block.on_time
            if self.record is not None:
                self.record({"kind": "block_complete", "t": t,
                             "block_id": list(block.block_id), "on_time": on_time})
            if on_time:
                self.scheduler.note_on_time(block.element_id)

    def _on_ack(self, t: float, packet: Packet) -> None:
        sample = self.predictor.on_response(packet, t)
        block = packet.block
        block.acked_packets += 1
        block.acked_bytes += packet.size_bytes
        if self.record is not None:
            self.record({"kind": "ack", "t": t, "packet_id": _packet_ref(packet),
                         "thr_smoothed": sample})

    def _on_loss_signal(self, t: float, packet: Packet) -> None:
        sample = self.predictor.on_response(packet, t)
        self.counters["loss_signals"] += 1
        if requeued := self.queue.lost(packet):
            self._ensure_opportunity(t)
        if self.record is not None:
            self.record({"kind": "loss", "t": t, "packet_id": _packet_ref(packet),
                         "thr_smoothed": sample, "requeued": requeued})

    # -- termination ---------------------------------------------------

    def _finalize(self) -> None:
        now = self.now
        if self._opportunity_at != _INF:
            raise SimulationInvariantError("send opportunity at %r still pending after drain"
                                           % self._opportunity_at)
        if self._cursor != len(self.blocks):
            raise SimulationInvariantError("%d of %d blocks arrived by drain"
                                           % (self._cursor, len(self.blocks)))
        if self._slot is not None:
            raise SimulationInvariantError("selection queue still holds %r after drain"
                                           % (self._slot.packet_id,))
        for block in filter_expired(self.queue, now):
            self._record_expiry(block, now)
        unresolved = [block.block_id for block in self.queue]
        if unresolved:
            raise SimulationInvariantError("blocks %r unresolved after drain at %r" % (unresolved, now))
        if len(self.predictor.ledger) != 0:
            raise SimulationInvariantError("inflight ledger not empty after drain")
        if (drift := self.predictor.ledger.total_bytes) != 0:
            raise SimulationInvariantError("inflight ledger still counts %r bytes after drain" % drift)
        received = 0
        for block in self.blocks:
            if block.pending:
                raise SimulationInvariantError("block %r still holds %d lost packets after drain"
                                               % (block.block_id, len(block.pending)))
            if block.completion_time is not None:
                # a completed block built, delivered and got acks for every
                # packet, and finished after it arrived
                count = block.packet_count
                if (block.built != count or block.received_packets != count
                        or block.acked_packets != count):
                    raise SimulationInvariantError(
                        "block %r completed with %d of %d packets built, %d received and %d acked"
                        % (block.block_id, block.built, count, block.received_packets,
                           block.acked_packets))
                if not block.completion_time > block.arrival_time:  # NaN fails too
                    raise SimulationInvariantError(
                        "block %r completed at %r, not after its arrival %r"
                        % (block.block_id, block.completion_time, block.arrival_time))
            elif not block.expired:
                raise SimulationInvariantError("block %r neither complete nor expired" % (block.block_id,))
            # every packet built ended delivered or discarded, so none was
            # dropped on the way
            if block.acked_packets + block.discarded_packets != block.built:
                raise SimulationInvariantError(
                    "block %r built %d packets but %d were acked and %d discarded"
                    % (block.block_id, block.built, block.acked_packets, block.discarded_packets))
            # every delivered packet was acked, so acked bytes are received bytes
            if block.received_packets != block.acked_packets:
                raise SimulationInvariantError(
                    "block %r received %d packets but %d were acked"
                    % (block.block_id, block.received_packets, block.acked_packets))
            received += block.received_packets
        # each send ended received or lost
        if self.counters["sends"] != received + self.counters["loss_signals"]:
            raise SimulationInvariantError("send/response accounting mismatch: %d received, %r"
                                           % (received, self.counters))

