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

A block's packets are built as the policy first takes them: ``_fill_slot``
builds packet i = block.built of a block with no lost packet waiting, so a
block that expires unsent builds none. A lost packet goes back into its
block's ``pending`` list, and the next take of that block retransmits the
most recently lost one first.

A packet is held only while the sender needs it: by the selection slot,
then by its response event while it is on the wire (the inflight ledger
keeps its id, size and send time), and by its block's ``pending`` list
after a loss. Its acknowledgement, a loss signal for an expired block, a
slot discard or the expiry filter's discard of ``pending`` drops the last
reference, so the live packets are the slot's, the ledger's and the
pending lists', and a run's memory grows with what is in flight, not with
the packets it sent. Blocks keep counts instead: built, acknowledged and
discarded packets, and the latest client arrival booked.

Sends are serial and the delay is fixed, so both the client arrival and
the response of a packet are known when it is sent. The send applies the
delivery's bookkeeping (the packet's ``client_receive_time``, the
delivered counters, the block's received count and latest arrival) and
schedules the ack or loss signal. A block gets one delivered event, at
the arrival of its last packet, which completes it if it is still live.

Event kinds at equal timestamps process in a fixed order:
send_opportunity, packet_delivered (a block's last packet), ack,
loss_signal, block_arrival.

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

from .errors import ConfigurationError, IllegalStateError, SimulationInvariantError
from .model import (
    Block,
    BlockAwaitingQueue,
    Packet,
    PacketState,
    ScenarioConfig,
    generate_blocks,
    mark_block_complete,
)
from .predictor import BandwidthPredictor, InflightLedger, Thresholds
from .schedulers import (
    Scheduler,
    SchedulerDecision,
    SchedulingContext,
    compute_block_stats,
    filter_expired,
)
from .traces import LinkTrace
from .units import PACKET_PAYLOAD_BYTES

_LOSS_STREAM_OFFSET = 0x1F3A9C


# event kinds; their order is the tie order at equal timestamps
_SEND_OPPORTUNITY = 0
_PACKET_DELIVERED = 1
_ACK = 2
_LOSS_SIGNAL = 3
_BLOCK_ARRIVAL = 4
# bound once: an enum member read is slow
_IN_SELECTION_QUEUE = PacketState.IN_SELECTION_QUEUE
_INFLIGHT = PacketState.INFLIGHT
_DELIVERED = PacketState.DELIVERED


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


@dataclass
class SimulationResult:
    """Everything one run produced, enough to recompute every metric."""

    scenario_name: str
    trace_tag: str
    scheduler_name: str
    params: RunParams
    end_time: float
    blocks: list[Block]
    counters: dict


def _packet_ref(packet: Packet) -> list:
    """A packet id as a flat JSON list: element id, block index, packet index."""
    block_id, index = packet.packet_id
    return [*block_id, index]


class Simulation:
    """One run of one scheduler over one trace and scenario."""

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
        self.ledger = InflightLedger()
        self.blocks = generate_blocks(scenario, params.duration_s, params.seed)
        self.blocks_by_id = {b.block_id: b for b in self.blocks}
        self._loss_rng = random.Random(_LOSS_STREAM_OFFSET + params.seed)
        self._heap: list[tuple] = []
        self._seq = 0
        self._slot: Packet | None = None
        self._opportunity_pending = False
        self.counters = {
            "sends": 0,
            "retransmission_sends": 0,
            "loss_signals": 0,
            "delivered_packets": 0,
            "delivered_bytes": 0,
            "blocks_completed": 0,
            "blocks_expired": 0,
            "slot_discards": 0,
        }
        self._finished = False
        for block in self.blocks:
            self._push(block.arrival_time, _BLOCK_ARRIVAL, block)

    # -- event plumbing ------------------------------------------------

    def _push(self, time_s: float, kind: int, payload) -> None:
        """Schedule an event; kind is one of the event-kind ints."""
        heappush(self._heap, (time_s, kind, self._seq, payload))
        self._seq += 1

    def advance(self):
        """Process the earliest pending event; returns (time, kind), with the
        kind as its event-kind int, or None when the heap is empty. Events
        may never run behind the clock."""
        if not self._heap:
            return None
        time_s, kind, _, payload = heappop(self._heap)
        if time_s < self.now:
            raise SimulationInvariantError("clock regression: %r -> %r" % (self.now, time_s))
        self.now = time_s
        if kind == _SEND_OPPORTUNITY:
            self._on_send_opportunity(time_s)
        elif kind == _ACK:
            self._on_ack(time_s, payload)
        elif kind == _PACKET_DELIVERED:
            self._on_block_delivered(time_s, payload)
        elif kind == _LOSS_SIGNAL:
            self._on_loss_signal(time_s, payload)
        elif kind == _BLOCK_ARRIVAL:
            self._on_block_arrival(time_s, payload)
        else:
            raise SimulationInvariantError("unknown event kind %r" % kind)
        return time_s, kind

    def run(self) -> SimulationResult:
        if self._finished:
            raise SimulationInvariantError("simulation already ran")
        while self.advance() is not None:
            pass
        self._finalize()
        self._finished = True
        return SimulationResult(
            scenario_name=self.scenario.name,
            trace_tag=self.trace.source_tag,
            scheduler_name=self.scheduler.name,
            params=self.params,
            end_time=self.now,
            blocks=self.blocks,
            counters=self.counters,
        )

    def _ensure_opportunity(self, time_s: float) -> None:
        if not self._opportunity_pending:
            self._push(time_s, _SEND_OPPORTUNITY, None)
            self._opportunity_pending = True

    # -- handlers ------------------------------------------------------

    def _on_block_arrival(self, t: float, block: Block) -> None:
        self.queue.enqueue(block)
        if self.record is not None:
            self.record({"kind": "block_arrival", "t": t, "block_id": list(block.block_id)})
        self._ensure_opportunity(t)

    def _record_expiry(self, block: Block, t: float) -> None:
        self.counters["blocks_expired"] += 1
        if self.record is not None:
            self.record({"kind": "block_expired", "t": t, "block_id": list(block.block_id)})
        self.scheduler.note_block_resolved(block.element_id, False)

    def _fill_slot(self, t: float) -> None:
        """Let the policy choose a block at t and put its next packet in the
        selection queue: its most recently lost packet if one waits, else
        its next packet, built here; with nothing eligible, or when the
        policy passes, the slot stays empty."""
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
                    raise IllegalStateError("block %r is expired at %r" % (b.block_id, t))
        regime = self.predictor.regime
        smoothed = self.predictor.smoothed
        if not eligible:
            if self.record is not None:
                self.record({"kind": "decision", "t": t, "selected": None,
                             "reason": "none_eligible", "regime": int(regime), "score": None,
                             "smoothed_bw": smoothed, "eligible": 0})
            return
        # features and retransmission flags are built only if the policy
        # reads them; features through the module global so that a wrapper
        # installed on it sees every call
        ctx = SchedulingContext(now=t, blocks=eligible, regime=regime, smoothed_bw=smoothed,
                                features=compute_block_stats)
        decision: SchedulerDecision = self.scheduler.select(ctx)
        selected = decision.selected
        if self.record is not None:
            self.record({"kind": "decision", "t": t,
                         "selected": None if selected is None else list(selected),
                         "reason": decision.reason.value, "regime": int(regime),
                         "score": decision.score, "smoothed_bw": smoothed,
                         "eligible": len(eligible)})
        if selected is None:
            return
        block = queue.get(selected)
        if block is None or not (block.unsent or block.pending) or block.expired:
            raise SimulationInvariantError(
                "scheduler %s selected ineligible block %r" % (self.scheduler.name, selected)
            )
        pending = block.pending
        if pending:
            packet = pending.pop()
            packet.state = _IN_SELECTION_QUEUE
        else:
            # the next fresh packet, built inline: full payloads, then the
            # smaller tail; a new Packet starts in the selection queue
            i = block.built
            size = block.total_bytes - i * PACKET_PAYLOAD_BYTES
            packet = Packet((selected, i), size if size < PACKET_PAYLOAD_BYTES
                            else PACKET_PAYLOAD_BYTES)
            block.built = i + 1
            block.unsent -= 1
        if not (block.unsent or pending):
            queue.pending_changed(block)  # its last packet to send was taken
        packet.enqueue_time = t
        self._slot = packet

    def _on_send_opportunity(self, t: float) -> None:
        self._opportunity_pending = False
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
            if slot is not None and (owner := self.blocks_by_id[slot.packet_id[0]]).expired:
                slot.state = PacketState.EXPIRED_DISCARDED
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
        packet.send_time = t
        packet.send_count += 1
        is_retx = packet.send_count > 1
        if is_retx:
            counters["retransmission_sends"] += 1
        packet.state = _INFLIGHT
        self.ledger.add(packet.packet_id, size, t)
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
            counters["delivered_packets"] += 1
            counters["delivered_bytes"] += size
            block = self.blocks_by_id[packet.packet_id[0]]
            block.received_packets += 1
            if arrive > block.latest_receive_time:
                block.latest_receive_time = arrive
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
        heappush(heap, (end, _SEND_OPPORTUNITY, self._seq, None))
        self._seq += 1
        self._opportunity_pending = True

    def _on_block_delivered(self, t: float, block: Block) -> None:
        """The block's last packet reached the client at t.

        The sends booked every delivery and pushed the acks, so this event
        exists only for completion, at the arrival instant and in its tie
        slot. Pushing an ack at its send rather than at its arrival changes
        no order: its instant is (end + owd) + owd and ends never decrease
        in send order, so arrivals run in send order and would push their
        acks in send order too. The heap orders by (time, kind), and seq
        breaks ties only within one (time, kind), so acks at one float
        instant run in send order either way.
        """
        if not block.expired and block.completion_time is None and block.is_fully_received():
            finish = mark_block_complete(block, self.queue)
            on_time = not block.past_deadline(finish)
            self.counters["blocks_completed"] += 1
            if self.record is not None:
                self.record({"kind": "block_complete", "t": finish,
                             "block_id": list(block.block_id), "on_time": on_time})
            self.scheduler.note_block_resolved(block.element_id, on_time)

    def _on_ack(self, t: float, packet: Packet) -> None:
        sample = self.predictor.observe_response(self.ledger, packet.send_time, t)
        self.ledger.remove(packet.packet_id)
        packet.state = _DELIVERED
        block = self.blocks_by_id[packet.packet_id[0]]
        block.acked_packets += 1
        block.acked_bytes += packet.size_bytes
        if self.record is not None:
            self.record({"kind": "ack", "t": t, "packet_id": _packet_ref(packet),
                         "thr_smoothed": sample})

    def _on_loss_signal(self, t: float, packet: Packet) -> None:
        sample = self.predictor.observe_response(self.ledger, packet.send_time, t)
        self.ledger.remove(packet.packet_id)
        self.counters["loss_signals"] += 1
        block = self.blocks_by_id[packet.packet_id[0]]
        if block.expired:
            packet.state = PacketState.EXPIRED_DISCARDED
            block.discarded_packets += 1
            requeued = False
        else:
            packet.state = PacketState.LOST_PENDING_RETX
            block.pending.append(packet)  # taken first: the most recently lost
            self.queue.pending_changed(block)
            requeued = True
            self._ensure_opportunity(t)
        if self.record is not None:
            self.record({"kind": "loss", "t": t, "packet_id": _packet_ref(packet),
                         "thr_smoothed": sample, "requeued": requeued})

    # -- termination ---------------------------------------------------

    def _finalize(self) -> None:
        now = self.now
        if self._slot is not None:
            raise SimulationInvariantError("selection queue still holds %r after drain"
                                           % (self._slot.packet_id,))
        for block in filter_expired(self.queue, now):
            self._record_expiry(block, now)
        unresolved = [block.block_id for block in self.queue]
        if unresolved:
            raise SimulationInvariantError("blocks %r unresolved after drain at %r" % (unresolved, now))
        if len(self.ledger) != 0:
            raise SimulationInvariantError("inflight ledger not empty after drain")
        if self.ledger.total_bytes != 0:
            raise SimulationInvariantError("inflight ledger still counts %r bytes after drain"
                                           % self.ledger.total_bytes)
        for block in self.blocks:
            if block.pending:
                raise SimulationInvariantError("block %r still holds %d lost packets after drain"
                                               % (block.block_id, len(block.pending)))
            if block.completion_time is not None:
                # a completed block built, and got acks for, every packet
                count = block.packet_count
                if block.built != count or block.acked_packets != count:
                    raise SimulationInvariantError(
                        "block %r completed with %d of %d packets built and %d acked"
                        % (block.block_id, block.built, count, block.acked_packets))
            elif not block.expired:
                raise SimulationInvariantError("block %r neither complete nor expired" % (block.block_id,))
            # every packet built ended delivered or discarded, so none was
            # dropped on the way
            if block.acked_packets + block.discarded_packets != block.built:
                raise SimulationInvariantError(
                    "block %r built %d packets but %d were acked and %d discarded"
                    % (block.block_id, block.built, block.acked_packets, block.discarded_packets))
        if self.counters["sends"] != self.counters["delivered_packets"] + self.counters["loss_signals"]:
            raise SimulationInvariantError("send/response accounting mismatch: %r" % (self.counters,))

