"""Content model: media elements, blocks, packets, and the sender queue.

A session streams K media element classes. Element k emits one block per
period; block v of element k arrives at the sender at its generation time
E, carries a priority P (larger means more important), and must be fully
received by the client within a deadline window D seconds after E to
count as delivered on time.

Blocks are split into MTU-sized packets: full payloads and one smaller
tail. A block knows its ``packet_count`` from its size, and a packet object
is built only when the sender first takes it, so a block that expires
before it is sent builds none. A block keeps counts, not packets:
``built`` counts the packets built so far (the next one built gets index
``built``), ``unsent`` those not built yet, and ``pending`` holds the lost
packets that wait for a retransmission, the most recently lost last (it is
taken first). A block has something to send iff ``pending or unsent``.

A packet lives only while the sender needs it: in the selection slot, on
the wire (the inflight ledger and its response event), or in ``pending``
after a loss. It is dropped at its acknowledgement or when it is
discarded, so a run's memory follows what is in flight, not what was
sent. Packet state tracks the sender's view (a packet is "delivered" once
its acknowledgement returned). Block completion is judged at the client,
so the block keeps the client arrival the sender books at each send:
``latest_receive_time``, the latest of them. ``acked_packets`` and
``discarded_packets`` count the built packets that ended delivered or
discarded.

A block is past its deadline once now - E > D. That rule is computed once
per block, as ``Block.expires_at``: the least float instant at which it
holds, so every expiry check is one comparison, ``now >= expires_at``,
and every deadline quantity (the scheduling feature Dr, rswn's keys) is
measured to that same instant.

The sender's awaiting queue keeps a sendable index beside its blocks: the
queued blocks that have something to send, in queue order. A decision walks
only that index, because most queued blocks on a long round trip are just
waiting for packets already in flight. Beside it the queue keeps an expiry
watermark, a lower bound on its blocks' ``expires_at``, so the expiry
filter scans the queue only once a block can have expired.
"""
from __future__ import annotations

import enum
import json
import math
import random
from dataclasses import dataclass, field

from .errors import ConfigurationError, DuplicateBlockError, IllegalStateError, SimulationInvariantError
from .units import PACKET_PAYLOAD_BYTES

# Block ids are (element_id, block_index); packet ids add a packet index.
BlockId = tuple[int, int]
PacketId = tuple[BlockId, int]


@dataclass(frozen=True)
class MediaElement:
    """One content class: its priority, deadline window, and arrival process."""

    element_id: int
    priority: int
    deadline_s: float
    block_size_bytes: int
    period_s: float


@dataclass
class ScenarioConfig:
    """A named set of media elements describing one workload."""

    name: str
    elements: list[MediaElement]

    def validate(self) -> None:
        if not self.elements:
            raise ConfigurationError("scenario %r has no elements" % self.name)
        ids = [e.element_id for e in self.elements]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("scenario %r repeats an element_id" % self.name)
        for e in self.elements:
            # NaN fails every comparison, so test finiteness first: a NaN
            # period would never let generate_blocks reach the run's end
            if not math.isfinite(e.deadline_s) or e.deadline_s <= 0:
                raise ConfigurationError(
                    "element %d: deadline_s must be positive and finite, got %r"
                    % (e.element_id, e.deadline_s)
                )
            if not math.isfinite(e.period_s) or e.period_s <= 0:
                raise ConfigurationError(
                    "element %d: period_s must be positive and finite, got %r"
                    % (e.element_id, e.period_s)
                )
            if e.block_size_bytes < PACKET_PAYLOAD_BYTES:
                raise ConfigurationError(
                    "element %d: block_size_bytes %d is smaller than one packet payload (%d)"
                    % (e.element_id, e.block_size_bytes, PACKET_PAYLOAD_BYTES)
                )
        # priorities must form a contiguous ladder starting at 0 so that the
        # (1 + P) weighting is comparable across scenarios
        prios = sorted(e.priority for e in self.elements)
        if prios != list(range(len(prios))):
            raise ConfigurationError(
                "scenario %r: priorities %r must be exactly 0..K-1" % (self.name, prios)
            )

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        try:
            elements = [
                MediaElement(
                    element_id=int(item["element_id"]),
                    priority=int(item["priority"]),
                    deadline_s=float(item["deadline_s"]),
                    block_size_bytes=int(item["block_size_bytes"]),
                    period_s=float(item["period_s"]),
                )
                for item in data["elements"]
            ]
            cfg = cls(name=str(data["name"]), elements=elements)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError("malformed scenario config: %s" % exc) from exc
        cfg.validate()
        return cfg


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigurationError("cannot read scenario file %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError("scenario file %s is not valid JSON: %s" % (path, exc)) from exc
    return ScenarioConfig.from_dict(data)


class PacketState(enum.Enum):
    IN_SELECTION_QUEUE = "in_selection_queue"
    INFLIGHT = "inflight"
    DELIVERED = "delivered"
    LOST_PENDING_RETX = "lost_pending_retx"
    EXPIRED_DISCARDED = "expired_discarded"


@dataclass(slots=True)
class Packet:
    """One transmission unit of a block, built when the sender first takes
    it into the selection queue and held by nothing once it is acknowledged
    or discarded.

    send_time reflects the most recent transmission, and send_count
    counts every transmission, so a packet was retransmitted
    send_count - 1 times.
    client_receive_time is the instant the delivered copy reaches the
    client, one propagation delay before its acknowledgement returns. The
    sender knows it at send time and sets it then, to that future instant.
    """

    packet_id: PacketId
    size_bytes: int
    state: PacketState = PacketState.IN_SELECTION_QUEUE
    enqueue_time: float | None = None
    send_time: float | None = None
    client_receive_time: float | None = None
    send_count: int = 0


def _expiry_instant(arrival_time: float, deadline_s: float) -> float:
    """The least float t with t - arrival_time > deadline_s.

    Float subtraction rounds monotonically, so t - E > D holds for every t
    at or above this instant and for none below it. E + D is at most a few
    ulps off, and the two walks settle on the boundary from there. A window
    with no finite end (an infinite or NaN sum) never closes.
    """
    t = arrival_time + deadline_s
    if not math.isfinite(t):
        return math.inf
    while t - arrival_time > deadline_s:
        t = math.nextafter(t, -math.inf)
    while not t - arrival_time > deadline_s:
        t = math.nextafter(t, math.inf)
    return t


@dataclass(slots=True)
class Block:
    """One deadline-constrained unit of content.

    ``built`` counts the packets built so far; the sender builds packet
    i = built when it takes a fresh one, of PACKET_PAYLOAD_BYTES or the
    smaller tail. ``unsent`` counts the packets not built yet, so
    built + unsent == packet_count while the block is live. ``pending``
    holds the lost packets awaiting retransmission; the sender takes them
    from its end, most recently lost first. Each send that is not lost
    books its packet's client arrival, and ``latest_receive_time`` is the
    latest one booked. A built packet ends delivered (counted in
    ``acked_packets``) or discarded (``discarded_packets``).
    """

    block_id: BlockId
    element_id: int
    index: int
    arrival_time: float  # E
    deadline_s: float  # D
    priority: int  # P
    total_bytes: int
    completion_time: float | None = None  # F, client-side
    expired: bool = False
    pending: list[Packet] = field(default_factory=list)
    built: int = 0
    latest_receive_time: float = -math.inf
    acked_packets: int = 0
    acked_bytes: int = 0
    discarded_packets: int = 0
    received_packets: int = 0
    packet_count: int = field(init=False)
    unsent: int = field(init=False)
    expires_at: float = field(init=False)  # the least now with now - E > D

    def __post_init__(self) -> None:
        if self.total_bytes < PACKET_PAYLOAD_BYTES:
            raise ConfigurationError(
                "block %r: %d bytes is smaller than one packet payload"
                % (self.block_id, self.total_bytes))
        self.packet_count = self.unsent = -(-self.total_bytes // PACKET_PAYLOAD_BYTES)
        self.expires_at = _expiry_instant(self.arrival_time, self.deadline_s)

    def past_deadline(self, now: float) -> bool:
        """True once now is strictly past the deadline window (now - E > D).
        The one expiry rule, computed once as ``expires_at``: the queue
        filter, the scheduling features, the engine's decision guard and
        the on-time test all compare now with it, and Dr and rswn measure
        time left to it, so no two of them disagree."""
        return now >= self.expires_at

    def is_fully_received(self) -> bool:
        return self.received_packets == self.packet_count


def make_block(element: MediaElement, index: int, arrival_time: float) -> Block:
    block_id: BlockId = (element.element_id, index)
    return Block(
        block_id=block_id,
        element_id=element.element_id,
        index=index,
        arrival_time=arrival_time,
        deadline_s=element.deadline_s,
        priority=element.priority,
        total_bytes=element.block_size_bytes,
    )


def generate_blocks(scenario: ScenarioConfig, duration_s: float, seed: int) -> list[Block]:
    """Produce the arrival schedule for one session.

    Each element emits blocks periodically starting from a seeded phase
    offset in [0, period). Arrivals strictly before duration_s are kept.
    The result is sorted by (arrival time, element id, block index) and is
    a pure function of (scenario, duration_s, seed).
    """
    scenario.validate()
    if not math.isfinite(duration_s) or duration_s < 0:
        raise ConfigurationError("duration_s must be non-negative and finite, got %r" % duration_s)
    rng = random.Random(seed)
    blocks: list[Block] = []
    for element in scenario.elements:
        phase = rng.random() * element.period_s
        if phase >= element.period_s:  # guard the half-open interval
            phase = 0.0
        index = 0
        while True:
            arrival = phase + index * element.period_s
            if arrival >= duration_s:
                break
            blocks.append(make_block(element, index, arrival))
            index += 1
    blocks.sort(key=lambda b: (b.arrival_time, b.element_id, b.index))
    return blocks


class BlockAwaitingQueue:
    """Sender-side queue of blocks that still have undelivered packets.

    Iteration order is arrival order: the blocks live in one dict keyed by
    block id, whose insertion order is the enqueue order. Enqueueing the
    same id twice is an error.

    A second dict, the sendable index, holds the queued blocks that have
    something to send (``pending or unsent``), in queue order;
    ``sendable()`` returns it as a list. ``enqueue`` and ``remove`` keep it
    in step on their own. Whoever takes the last packet a queued block had
    to send, or puts a lost one back into its ``pending``, calls
    ``pending_changed(block)`` afterwards; a take that leaves the block
    something to send changes nothing in the index.

    ``next_expiry`` is the expiry watermark: a lower bound on the queued
    blocks' ``expires_at`` (infinity while none is queued), so no queued
    block is past its deadline before that instant. ``enqueue`` lowers it;
    ``remove`` leaves it, since a lower bound stays one when a block goes.
    Whoever scans the queue for expired blocks may raise it to the least
    ``expires_at`` among the blocks that stay.
    """

    def __init__(self) -> None:
        self._ids: dict[BlockId, Block] = {}
        self._ready: dict[BlockId, Block] = {}
        self.next_expiry = math.inf

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self):
        return iter(self._ids.values())

    def __contains__(self, block_id: BlockId) -> bool:
        return block_id in self._ids

    def get(self, block_id: BlockId) -> Block | None:
        return self._ids.get(block_id)

    def sendable(self) -> list[Block]:
        """The queued blocks with something to send, in queue order."""
        return list(self._ready.values())

    def enqueue(self, block: Block) -> None:
        if block.block_id in self._ids:
            raise DuplicateBlockError("block %r already enqueued" % (block.block_id,))
        if block.completion_time is not None or block.is_fully_received():
            raise IllegalStateError("block %r has no undelivered packets" % (block.block_id,))
        if block.expired:
            raise IllegalStateError("block %r already expired" % (block.block_id,))
        self._ids[block.block_id] = block
        if block.unsent or block.pending:
            self._ready[block.block_id] = block
        if block.expires_at < self.next_expiry:
            self.next_expiry = block.expires_at

    def remove(self, block: Block) -> None:
        if block.block_id not in self._ids:
            raise IllegalStateError("block %r not in queue" % (block.block_id,))
        del self._ids[block.block_id]
        self._ready.pop(block.block_id, None)

    def pending_changed(self, block: Block) -> None:
        """Bring the sendable index in step after a packet was taken from
        block or a lost one put back.

        A block with nothing left to send drops out. A block that has a
        packet again (a loss after its last packet was sent) takes back its
        place in queue order, which needs a rebuild of the index; that is
        rare, so it costs one pass over the queue.
        """
        if block.unsent or block.pending:
            if block.block_id not in self._ready:
                self._ready = {block_id: b for block_id, b in self._ids.items()
                               if b.unsent or b.pending}
        else:
            self._ready.pop(block.block_id, None)


def mark_block_complete(block: Block, queue: BlockAwaitingQueue | None = None) -> float:
    """Finalize a block whose packets have all reached the client.

    Sets the completion time F to the latest client receive time, removes
    the block from the queue when one is given, and returns F.
    """
    if block.completion_time is not None:
        raise IllegalStateError("block %r already complete" % (block.block_id,))
    if block.expired:
        raise IllegalStateError("block %r expired, cannot complete" % (block.block_id,))
    count = block.packet_count
    if block.built != count:
        raise IllegalStateError("block %r: %d of %d packets built"
                                % (block.block_id, block.built, count))
    if block.received_packets != count:
        raise IllegalStateError("block %r: %d of %d packets received by client"
                                % (block.block_id, block.received_packets, count))
    finish = block.latest_receive_time
    if finish < block.arrival_time or math.isnan(finish):
        raise SimulationInvariantError(
            "block %r finished at %r before its arrival %r" % (block.block_id, finish, block.arrival_time)
        )
    block.completion_time = finish
    if queue is not None and block.block_id in queue:
        queue.remove(block)
    return finish
