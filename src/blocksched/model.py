"""Content model: media elements, blocks, packets, and the sender queue.

A session streams K media element classes. Element k emits one block per
period; block v of element k arrives at the sender at its generation time
E, carries a priority P (larger means more important), and must be fully
received by the client within a deadline window D seconds after E to
count as delivered on time.

A ``ScenarioConfig`` checks its elements when it is built, so
``generate_blocks`` and ``Block`` trust it and check nothing again.

Blocks are split into MTU-sized packets: full payloads and one smaller
tail. A block knows its ``packet_count`` from its size, and a packet object
is built only when the sender first takes it, so a block that expires
before it is sent builds none. A block keeps counts, not packets:
``unsent`` counts the packets not built yet, so ``built``, derived as
``packet_count - unsent``, is the index of the next one built; ``pending``
holds the lost packets that wait for a retransmission, the most recently
lost last (it is taken first). A block has something to send iff
``pending or unsent``.

A packet holds its block, its index in that block, its size, whether it
was sent, and two instants: when it entered the selection queue and its
client arrival once a send was not lost. It lives only while the sender
needs it: in the selection slot, on the wire (the inflight ledger and its
response event), or in ``pending`` after a loss. It is dropped at its
acknowledgement or when it is discarded, so a run's memory follows what
is in flight, not what was sent. ``received_packets``, ``acked_packets``
and ``discarded_packets`` count the packets that reached the client and
the built packets that ended delivered or discarded.

A block is past its deadline once now - E > D. That rule is computed once
per block, as ``Block.expires_at``: the least float instant at which it
holds, so every expiry check is one comparison, ``now >= expires_at``,
and every deadline quantity (the scheduling feature Dr, rswn's keys) is
measured to that same instant. The same rule judges a completed block:
``Block.on_time`` holds when its completion time F, the client arrival
of its last packet, is not past the deadline (F - E <= D).

A block's outcome is set in two places only: ``filter_expired`` expires
it, and the queue's ``complete`` completes it at the instant its last
packet reaches the client. The sender's awaiting queue owns its blocks'
packet life cycle (``take``, ``lost``, ``complete`` and
``filter_expired``) and keeps a sendable index in step: the queued
blocks that have something to send, in queue order. A decision walks
only that index, because most queued blocks on a long round trip wait
for packets already in flight. An expiry watermark, a lower bound
on the queued blocks' ``expires_at``, lets the expiry filter scan the
queue only once a block can have expired.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

from .errors import ConfigurationError, SimulationInvariantError
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
    """A named set of media elements describing one workload, checked when
    it is built (``dataclasses.replace``'s copies too)."""

    name: str
    elements: list[MediaElement]

    def __post_init__(self) -> None:
        self.validate()

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
            name = str(data["name"])
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
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # int(1e400)
            raise ConfigurationError("malformed scenario config: %s" % exc) from exc
        return cls(name=name, elements=elements)


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError("cannot read scenario file %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError("scenario file %s is not valid JSON: %s" % (path, exc)) from exc
    try:
        return ScenarioConfig.from_dict(data)
    except ConfigurationError as exc:
        raise ConfigurationError("scenario file %s: %s" % (path, exc)) from exc


@dataclass(slots=True, eq=False)
class Packet:
    """Packet ``index`` of ``block``, built when the sender first takes it
    into the selection queue and held by nothing once it is acknowledged
    or discarded. Packets compare and hash by identity, so the inflight
    ledger keys on the packet itself.

    sent is set by the first transmission, so a send that finds it set is
    a retransmission; the instant of each send is held by the predictor's
    inflight ledger alone.
    client_receive_time is the instant the delivered copy reaches the
    client, one propagation delay before its acknowledgement returns. The
    sender knows it at send time and sets it then, to that future instant.
    """

    block: Block
    index: int
    size_bytes: int
    enqueue_time: float | None = None
    sent: bool = False
    client_receive_time: float | None = None

    @property
    def packet_id(self) -> PacketId:
        return (self.block.block_id, self.index)


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

    ``unsent`` counts the packets not built yet, and ``built``, the rest
    of ``packet_count``, the packets built so far (the queue's ``take``
    builds packet i = built). An expired block builds no more, so its
    ``unsent`` stays as the expiry left it. ``pending`` holds the lost
    packets awaiting retransmission, most recently lost last; ``take``
    takes that one first. Each send that is not lost counts in
    ``received_packets``. A built packet ends delivered (counted in
    ``acked_packets``) or discarded (``discarded_packets``).
    """

    block_id: BlockId
    element_id: int
    arrival_time: float  # E
    deadline_s: float  # D
    priority: int  # P
    total_bytes: int
    completion_time: float | None = None  # F, client-side
    expired: bool = False
    pending: list[Packet] = field(default_factory=list)
    acked_packets: int = 0
    acked_bytes: int = 0
    discarded_packets: int = 0
    received_packets: int = 0
    packet_count: int = field(init=False)
    unsent: int = field(init=False)
    expires_at: float = field(init=False)  # the least now with now - E > D

    def __post_init__(self) -> None:
        self.packet_count = self.unsent = -(-self.total_bytes // PACKET_PAYLOAD_BYTES)
        self.expires_at = _expiry_instant(self.arrival_time, self.deadline_s)

    @property
    def built(self) -> int:
        """The packets built so far."""
        return self.packet_count - self.unsent

    def past_deadline(self, now: float) -> bool:
        """True once now is strictly past the deadline window (now - E > D).
        The one expiry rule, computed once as ``expires_at``: the queue
        filter, the scheduling features, the engine's decision guard and
        ``on_time`` all compare an instant with it, and Dr and rswn measure
        time left to it, so no two of them disagree."""
        return now >= self.expires_at

    @property
    def on_time(self) -> bool:
        """True when the block completed inside its window: its completion
        time is not past the deadline. The one on-time rule, which the
        engine's ``block_complete`` flag and every report read."""
        return self.completion_time is not None and not self.past_deadline(self.completion_time)


def make_block(element: MediaElement, index: int, arrival_time: float) -> Block:
    return Block(
        block_id=(element.element_id, index),
        element_id=element.element_id,
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
    a pure function of (scenario, duration_s, seed). duration_s is a run's
    horizon, which RunParams has checked finite.
    """
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
    blocks.sort(key=lambda b: (b.arrival_time, b.block_id))
    return blocks


class BlockAwaitingQueue:
    """Sender-side queue of blocks that still have undelivered packets.

    Iteration order is arrival order: the blocks live in one dict keyed by
    block id, whose insertion order is the enqueue order. Enqueueing the
    same id twice is an error.

    A second dict, the sendable index, holds the queued blocks that have
    something to send (``pending or unsent``), in queue order;
    ``sendable()`` returns it as a list. Only the queue's own methods and
    ``filter_expired`` change a queued block's packets, and each keeps the
    index in step.

    ``next_expiry`` is the expiry watermark: a lower bound on the queued
    blocks' ``expires_at`` (infinity while none is queued), so no queued
    block is past its deadline before that instant. ``enqueue`` lowers it;
    ``remove`` and ``complete`` leave it, since a lower bound stays one
    when a block goes;
    ``filter_expired`` raises it to the least ``expires_at`` among the
    blocks that stay.
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

    def sendable(self) -> list[Block]:
        """The queued blocks with something to send, in queue order."""
        return list(self._ready.values())

    def enqueue(self, block: Block) -> None:
        if block.block_id in self._ids:
            raise SimulationInvariantError("block %r already enqueued" % (block.block_id,))
        if block.completion_time is not None or block.received_packets == block.packet_count:
            raise SimulationInvariantError("block %r has no undelivered packets" % (block.block_id,))
        if block.expired:
            raise SimulationInvariantError("block %r already expired" % (block.block_id,))
        self._ids[block.block_id] = block
        if block.unsent or block.pending:
            self._ready[block.block_id] = block
        if block.expires_at < self.next_expiry:
            self.next_expiry = block.expires_at

    def remove(self, block: Block) -> None:
        if block.block_id not in self._ids:
            raise SimulationInvariantError("block %r not in queue" % (block.block_id,))
        del self._ids[block.block_id]
        self._ready.pop(block.block_id, None)

    def complete(self, block: Block, t: float) -> None:
        """Complete block at t, the instant its last packet reaches the
        client: unqueue it and set its completion time. Only a queued block
        completes, so completing one twice, or an expired one, raises."""
        self.remove(block)
        block.completion_time = t

    def take(self, block: Block) -> Packet:
        """The next packet of block, which must be sendable: its most recently
        lost packet if one waits, else one built here (full payloads, then
        the smaller tail). A block left with nothing to send is unindexed.

        This is the one check of a block a policy chose: one outside the
        sendable index (not queued, expired, or with nothing to send) is
        refused here."""
        if block.block_id not in self._ready:
            raise SimulationInvariantError("block %r has nothing to send" % (block.block_id,))
        pending = block.pending
        if pending:
            packet = pending.pop()
        else:
            i = block.built
            size = block.total_bytes - i * PACKET_PAYLOAD_BYTES
            packet = Packet(block, i, size if size < PACKET_PAYLOAD_BYTES
                            else PACKET_PAYLOAD_BYTES)
            block.unsent -= 1
        if not (block.unsent or pending):
            del self._ready[block.block_id]
        return packet

    def lost(self, packet: Packet) -> bool:
        """A send of packet was lost: False when its block has expired and
        the packet is discarded, else True, and it waits in ``pending``. A
        block that had nothing left to send takes back its index place, a
        rare rebuild that costs one pass over the queue."""
        block = packet.block
        if block.expired:
            block.discarded_packets += 1
            return False
        block.pending.append(packet)
        if block.block_id not in self._ready:
            self._ready = {block_id: b for block_id, b in self._ids.items()
                           if b.unsent or b.pending}
        return True


def filter_expired(queue: BlockAwaitingQueue, now: float) -> list[Block]:
    """Remove blocks whose deadline window has closed, as decided by
    ``Block.past_deadline``.

    An expired block's lost packets awaiting retransmission are discarded
    (and counted in its ``discarded_packets``) and its unbuilt packets are
    never built; packets already on the wire keep flying and their
    responses are still processed. Returns the expired blocks, in queue
    order, so the caller can record their outcomes.

    The queue is scanned only once now has reached its expiry watermark
    ``next_expiry``; before that no queued block can be past its deadline
    and the result is empty. A scan raises the watermark to the least
    ``expires_at`` among the blocks that stay.
    """
    if now < queue.next_expiry:
        return []
    expired = []
    next_expiry = math.inf
    for block in queue:
        expires_at = block.expires_at
        if now >= expires_at:
            expired.append(block)
        elif expires_at < next_expiry:
            next_expiry = expires_at
    for block in expired:
        block.expired = True
        block.discarded_packets += len(block.pending)
        block.pending.clear()
        queue.remove(block)
    queue.next_expiry = next_expiry
    return expired

