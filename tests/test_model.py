"""Content model: scenarios, block generation, packets, queue."""
from __future__ import annotations

import dataclasses
import json
import math
import os
from collections import deque

import pytest
from hypothesis import example, given, strategies as st

from blocksched.errors import ConfigurationError, SimulationInvariantError
from blocksched.model import (
    BlockAwaitingQueue,
    MediaElement,
    Packet,
    ScenarioConfig,
    filter_expired,
    generate_blocks,
    load_scenario,
)
from blocksched.units import PACKET_PAYLOAD_BYTES

from conftest import SCENARIO_DIR, block_at, built_block, element, scenario_of, ulps_from


def two_element_scenario():
    return scenario_of(
        element(element_id=0, priority=0, deadline_s=0.1, block_size_bytes=3000, period_s=0.5),
        element(element_id=1, priority=1, deadline_s=0.2, block_size_bytes=3000, period_s=0.5),
        name="two",
    )


class TestGenerateBlocks:
    @pytest.mark.parametrize("seed", range(10))
    def test_two_elements_half_second_cadence_one_second_run(self, seed):
        blocks = generate_blocks(two_element_scenario(), duration_s=1.0, seed=seed)
        assert len(blocks) == 4
        per_element = {0: [], 1: []}
        for b in blocks:
            per_element[b.element_id].append(b)
        assert [len(v) for v in per_element.values()] == [2, 2]
        assert all(b.deadline_s == 0.1 and b.priority == 0 for b in per_element[0])
        assert all(b.deadline_s == 0.2 and b.priority == 1 for b in per_element[1])

    def test_duration_zero_yields_empty_list(self):
        assert generate_blocks(two_element_scenario(), duration_s=0.0, seed=3) == []

    def test_same_seed_is_deterministic(self):
        a = generate_blocks(two_element_scenario(), duration_s=5.0, seed=42)
        b = generate_blocks(two_element_scenario(), duration_s=5.0, seed=42)
        assert [(x.block_id, x.arrival_time) for x in a] == [(x.block_id, x.arrival_time) for x in b]

    def test_arrivals_inside_horizon_and_sorted(self):
        blocks = generate_blocks(two_element_scenario(), duration_s=3.0, seed=7)
        assert all(0.0 <= b.arrival_time < 3.0 for b in blocks)
        arrivals = [(b.arrival_time, b.element_id, b.block_id[1]) for b in blocks]
        assert arrivals == sorted(arrivals)

    def test_indices_per_element_are_consecutive(self):
        blocks = generate_blocks(two_element_scenario(), duration_s=4.0, seed=1)
        for eid in (0, 1):
            idx = [b.block_id[1] for b in blocks if b.element_id == eid]
            assert idx == list(range(len(idx)))

    def test_empty_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_blocks(ScenarioConfig(name="none", elements=[]), duration_s=1.0, seed=0)


class OneBlockSender:
    """One block in a bare awaiting queue, driven step by step through the
    queue's packet life cycle: ``take`` is the queue's ``take`` (the packet
    is then on the wire), ``lose`` is its ``lost``, and ``expire`` is the
    expiry filter at the block's expiry instant."""

    def __init__(self, total_bytes):
        self.block = block_at(total_bytes=total_bytes, deadline_s=5.0)
        self.queue = BlockAwaitingQueue()
        self.queue.enqueue(self.block)

    def take(self) -> Packet:
        return self.queue.take(self.block)

    def lose(self, packet) -> None:
        # an expired block's packet is discarded, a live one's requeued
        assert self.queue.lost(packet) == (not self.block.expired)

    def expire(self) -> None:
        assert filter_expired(self.queue, self.block.expires_at) == [self.block]

    def take_all(self) -> list[Packet]:
        """Take until the block leaves the sendable index, and at most one
        packet more than it has."""
        taken = []
        while self.block in self.queue.sendable() and len(taken) <= self.block.packet_count:
            taken.append(self.take())
        return taken


class EagerBlock:
    """The eager packet model packets were built by: every packet exists
    from the start, all of them in one pending deque; a loss puts the
    packet back at the front (appendleft), a take pops the front
    (popleft), and expiry discards everything still pending. Each packet
    carries one of the labels "waiting" (never taken), "taken", "lost" and
    "discarded"."""

    def __init__(self, total_bytes):
        full, tail = divmod(total_bytes, PACKET_PAYLOAD_BYTES)
        self.sizes = [PACKET_PAYLOAD_BYTES] * full + ([tail] if tail else [])
        self.states = ["waiting"] * len(self.sizes)
        self.pending = deque(range(len(self.sizes)))
        self.expired = False

    def take(self) -> int:
        i = self.pending.popleft()
        self.states[i] = "taken"
        return i

    def lose(self, i) -> None:
        if self.expired:
            self.states[i] = "discarded"
        else:
            self.states[i] = "lost"
            self.pending.appendleft(i)

    def expire(self) -> None:
        self.expired = True
        for i in self.pending:
            self.states[i] = "discarded"
        self.pending.clear()

    def retransmission_pending(self) -> bool:
        return bool(self.pending) and self.states[self.pending[0]] == "lost"


class TestPackets:
    def test_packet_count_is_the_ceiling_and_nothing_is_built_up_front(self):
        for total, count in ((1500, 1), (1501, 2), (4500, 3), (4000, 3)):
            block = block_at(total_bytes=total)
            assert block.packet_count == block.unsent == count
            assert block.built == 0 and block.pending == []

    def test_exact_multiple_splits_into_full_payloads(self):
        packets = OneBlockSender(4500).take_all()
        assert [p.size_bytes for p in packets] == [1500, 1500, 1500]

    def test_remainder_becomes_smaller_tail(self):
        packets = OneBlockSender(4000).take_all()
        assert [p.size_bytes for p in packets] == [1500, 1500, 1000]

    @given(total=st.integers(min_value=PACKET_PAYLOAD_BYTES, max_value=200000))
    def test_sizes_sum_to_total_and_indices_contiguous(self, total):
        sender = OneBlockSender(total)
        packets = sender.take_all()
        assert len(packets) == sender.block.built == sender.block.packet_count
        assert sum(p.size_bytes for p in packets) == total
        assert [p.packet_id for p in packets] == [(sender.block.block_id, i)
                                                  for i in range(sender.block.packet_count)]
        assert all(0 < p.size_bytes <= PACKET_PAYLOAD_BYTES for p in packets)
        assert sender.block.unsent == 0


# one step on a block: take its next packet, lose the i-th packet in
# flight (taken and not lost since), or expire it
BLOCK_STEPS = st.lists(st.one_of(
    st.just(("take", 0)),
    st.tuples(st.just("lose"), st.integers(0, 20)),
    st.just(("expire", 0)),
), max_size=40)


class TestLazyPacketsEqualTheEagerModel:
    @given(st.integers(PACKET_PAYLOAD_BYTES, 12 * PACKET_PAYLOAD_BYTES), BLOCK_STEPS)
    # two losses waiting at once: the later one goes first; then expiry
    # with a loss still pending and a packet in flight
    @example(4500, [("take", 0), ("take", 0), ("lose", 0), ("lose", 0), ("take", 0),
                    ("take", 0), ("take", 0), ("lose", 1), ("expire", 0), ("lose", 0)])
    def test_same_packet_order_and_states(self, total, steps):
        sender, eager = OneBlockSender(total), EagerBlock(total)
        block, queue = sender.block, sender.queue
        taken = {}  # packet index -> the packet object, once taken
        inflight = []  # packet indices taken and not lost since
        for op, arg in steps:
            if op == "take" and eager.pending:
                expected = eager.take()
                packet = sender.take()
                assert packet.packet_id == (block.block_id, expected)
                assert packet.size_bytes == eager.sizes[expected]
                assert taken.setdefault(expected, packet) is packet  # a retake is the same object
                inflight.append(expected)
            elif op == "lose" and inflight:
                i = inflight.pop(arg % len(inflight))
                eager.lose(i)
                sender.lose(taken[i])
            elif op == "expire" and not eager.expired:
                eager.expire()
                sender.expire()
            built = block.built
            # the built packets are a prefix; the rest are the eager
            # model's never-taken packets
            assert sorted(taken) == list(range(built))
            # a built packet is where the sender holds it: taken and not
            # lost since, lost in pending, or else discarded
            lost = {p.index for p in block.pending}
            where = ["taken" if i in inflight else "lost" if i in lost else "discarded"
                     for i in range(built)]
            assert where == eager.states[:built]
            assert set(eager.states[built:]) <= {"waiting", "discarded"}
            assert block.discarded_packets == where.count("discarded")
            # the eager deque is the lost packets, most recently lost first,
            # then, while the block is live, the packets not built yet
            unbuilt = [] if block.expired else list(range(built, block.packet_count))
            assert list(eager.pending) == [p.index for p in reversed(block.pending)] + unbuilt
            sendable = not block.expired and bool(block.pending or block.unsent)
            assert sendable == bool(eager.pending)
            assert (block in queue.sendable()) == sendable
            assert bool(block.pending) == eager.retransmission_pending()


class TestScenarioValidation:
    def test_duplicate_element_ids_rejected(self):
        with pytest.raises(ConfigurationError, match="repeats an element_id"):
            scenario_of(element(element_id=0), element(element_id=0, priority=1))

    @pytest.mark.parametrize("bad", [
        element(deadline_s=0.0),
        element(deadline_s=-1.0),
        element(period_s=0.0),
        element(block_size_bytes=PACKET_PAYLOAD_BYTES - 1),
    ])
    def test_bad_element_fields_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            scenario_of(bad)

    @pytest.mark.parametrize("field", ["deadline_s", "period_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_timings_rejected(self, field, value):
        # a NaN passes "<= 0", and a NaN period never ends generate_blocks
        data = dataclasses.asdict(two_element_scenario())
        data["elements"][1][field] = value
        with pytest.raises(ConfigurationError, match="element 1: %s must be positive and finite"
                           % field):
            ScenarioConfig.from_dict(data)

    def test_priorities_must_ladder_from_zero(self):
        with pytest.raises(ConfigurationError, match="must be exactly 0..K-1"):
            scenario_of(element(element_id=0, priority=1),
                        element(element_id=1, priority=2))

    def test_invalid_scenario_cannot_be_built_or_copied(self):
        # a scenario is checked when it is built, so no later code meets
        # an invalid one: not a direct build, and not a replace() copy
        with pytest.raises(ConfigurationError, match="element 0: deadline_s"):
            scenario_of(element(deadline_s=-1.0))
        with pytest.raises(ConfigurationError, match="has no elements"):
            dataclasses.replace(two_element_scenario(), elements=[])

    def test_json_round_trip(self, tmp_path):
        cfg = two_element_scenario()
        path = str(tmp_path / "scenario.json")
        with open(path, "w") as fh:
            json.dump(dataclasses.asdict(cfg), fh)
        loaded = load_scenario(path)
        assert loaded == cfg

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_scenario(str(path))

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"name": "x", "elements": [{"element_id": 0}]}))
        with pytest.raises(ConfigurationError):
            load_scenario(str(path))

    @pytest.mark.parametrize("name", ["scenario_1.json", "scenario_2.json", "scenario_3.json"])
    def test_bundled_scenarios_load(self, name):
        cfg = load_scenario(os.path.join(SCENARIO_DIR, name))
        assert len(cfg.elements) in (2, 3)


class TestQueue:
    def test_iteration_preserves_arrival_order(self):
        q = BlockAwaitingQueue()
        blocks = [block_at(index=i, arrival_time=i * 0.1) for i in range(3)]
        for b in blocks:
            q.enqueue(b)
        assert [b.block_id for b in q] == [(0, 0), (0, 1), (0, 2)]
        assert len(q) == 3

    def test_duplicate_enqueue_rejected(self):
        q = BlockAwaitingQueue()
        q.enqueue(block_at())
        with pytest.raises(SimulationInvariantError, match="already enqueued"):
            q.enqueue(block_at())

    def test_completed_block_cannot_enter(self):
        b = built_block()
        b.received_packets = b.packet_count
        q = BlockAwaitingQueue()
        with pytest.raises(SimulationInvariantError):
            q.enqueue(b)

    def test_remove_unknown_block_rejected(self):
        q = BlockAwaitingQueue()
        with pytest.raises(SimulationInvariantError):
            q.remove(block_at())

    def test_membership_and_get(self):
        q = BlockAwaitingQueue()
        b = block_at()
        q.enqueue(b)
        assert b.block_id in q
        q.remove(b)
        assert b.block_id not in q


def queued_blocks(count):
    """A queue of count three-packet blocks in arrival order, and the blocks."""
    q = BlockAwaitingQueue()
    blocks = [block_at(index=i, arrival_time=i * 0.1) for i in range(count)]
    for b in blocks:
        q.enqueue(b)
    return q, blocks


class TestSendableIndex:
    def test_follows_enqueue_and_remove(self):
        q, blocks = queued_blocks(3)
        assert q.sendable() == blocks
        q.remove(blocks[1])
        assert q.sendable() == [blocks[0], blocks[2]]

    def test_block_leaves_when_its_last_pending_packet_is_taken(self):
        q, blocks = queued_blocks(2)
        first = blocks[0]
        while first.unsent:
            q.take(first)
            assert (first in q.sendable()) == bool(first.unsent)
        assert q.sendable() == [blocks[1]]
        assert first.block_id in q  # still queued: its packets are in flight

    def test_reentering_block_takes_back_its_queue_place(self):
        q, blocks = queued_blocks(3)
        middle = blocks[1]
        taken = [q.take(middle) for _ in range(middle.packet_count)]  # every packet taken
        assert q.sendable() == [blocks[0], blocks[2]]
        assert q.lost(taken[0])  # a loss re-queues one
        assert q.sendable() == blocks
        assert q.take(middle) is taken[0]  # the lost packet is sent again
        assert q.sendable() == [blocks[0], blocks[2]]

    def test_lost_packet_of_an_expired_block_is_discarded(self):
        q, blocks = queued_blocks(2)
        first = blocks[0]
        packet = q.take(first)
        assert filter_expired(q, first.expires_at) == [first]
        assert not q.lost(packet)
        assert first.pending == [] and first.discarded_packets == 1
        assert q.sendable() == [blocks[1]]

    def test_take_from_a_block_with_nothing_to_send_is_an_illegal_state(self):
        q, blocks = queued_blocks(2)
        first = blocks[0]
        for _ in range(first.packet_count):
            q.take(first)
        with pytest.raises(SimulationInvariantError, match="nothing to send"):
            q.take(first)
        assert first.unsent == 0 and first.pending == []

    def test_block_enqueued_with_nothing_pending_is_not_sendable(self):
        b = block_at()
        b.unsent = 0
        q = BlockAwaitingQueue()
        q.enqueue(b)
        assert b.block_id in q
        assert q.sendable() == []

    @given(st.lists(st.tuples(st.sampled_from(["take", "lose", "remove", "expire"]),
                              st.integers(0, 3)), max_size=40))
    def test_equals_the_queued_blocks_with_packets_pending(self, ops):
        # block i's window closes after block i - 1's, so expiring block i
        # expires every queued block before it too
        q, blocks = queued_blocks(4)
        inflight = {b.block_id: [] for b in blocks}  # taken and not lost since
        for op, i in ops:
            b = blocks[i]
            if op == "lose" and inflight[b.block_id] and (b.block_id in q or b.expired):
                assert q.lost(inflight[b.block_id].pop()) == (not b.expired)
            elif b.block_id not in q:
                pass  # completed or expired
            elif op == "remove":
                q.remove(b)
            elif op == "expire":
                assert b in filter_expired(q, b.expires_at)
            elif op == "take" and (b.pending or b.unsent):
                inflight[b.block_id].append(q.take(b))
            assert q.sendable() == [x for x in q if x.pending or x.unsent]


DEADLINES = (0.05, 0.1, 0.3, 0.631)
# one queue operation: enqueue a block arriving now with a deadline; remove
# (complete) the i-th queued block; filter after the clock moves on by dt;
# or filter at k ulps from the i-th queued block's expiry instant, or now
# if that is earlier
WATERMARK_OPS = st.lists(st.one_of(
    st.tuples(st.just("enqueue"), st.sampled_from(DEADLINES)),
    st.tuples(st.just("remove"), st.integers(0, 40)),
    st.tuples(st.just("filter"), st.sampled_from([0.0, 0.01, 0.05, 0.2])),
    st.tuples(st.just("edge"), st.integers(0, 40), st.integers(-2, 2)),
), max_size=60)


class TestExpiryWatermark:
    @given(WATERMARK_OPS)
    def test_filter_equals_a_full_scan_and_the_watermark_stays_a_lower_bound(self, ops):
        # one block per deadline to start, so a scan leaves survivors whose
        # windows close at different instants
        q = BlockAwaitingQueue()
        now = 0.321
        for index, deadline in enumerate(DEADLINES):
            q.enqueue(block_at(arrival_time=now, deadline_s=deadline, index=index))
        for index, (op, arg, *rest) in enumerate(ops, start=len(DEADLINES)):
            queued = list(q)
            if op == "enqueue":
                q.enqueue(block_at(arrival_time=now, deadline_s=arg, index=index))
            elif op == "remove" and queued:
                q.remove(queued[arg % len(queued)])
            elif op in ("filter", "edge"):
                if op == "filter":
                    now += arg
                elif queued:
                    now = max(now, ulps_from(queued[arg % len(queued)].expires_at, rest[0]))
                expected = [b for b in queued if now - b.arrival_time > b.deadline_s]
                assert filter_expired(q, now) == expected
                assert list(q) == [b for b in queued if b not in expected]
            if len(q):
                assert q.next_expiry <= min(b.expires_at for b in q)

    def test_filter_never_scans_a_queue_far_inside_its_windows(self, monkeypatch):
        scans = [0]
        queue_iter = BlockAwaitingQueue.__iter__

        def counting(queue):
            scans[0] += 1
            return queue_iter(queue)

        q = BlockAwaitingQueue()
        blocks = [block_at(index=i, arrival_time=i * 0.1, deadline_s=10.0) for i in range(5)]
        for b in blocks:
            q.enqueue(b)
        monkeypatch.setattr(BlockAwaitingQueue, "__iter__", counting)
        for step in range(100):
            assert filter_expired(q, step * 0.05) == []
        assert scans[0] == 0
        assert filter_expired(q, 10.05) == [blocks[0]]  # the first window has closed
        assert scans[0] == 1


class TestMarkBlockComplete:
    """The queue's ``complete``: it unqueues a live block and sets its
    completion time. The engine's run audit checks what a completed block
    must have built, received and acked (``test_linksim.TestGuards``)."""

    def test_completion_is_latest_client_receipt(self):
        # the engine completes a block at its delivered event, the arrival
        # of its last packet; a two-packet block whose later arrival is 0.07
        b = built_block(total_bytes=3000)
        q = BlockAwaitingQueue()
        q.enqueue(b)
        b.received_packets = 2
        q.complete(b, 0.07)
        assert b.completion_time == 0.07
        assert b.block_id not in q
        assert len(q) == 0 and q.sendable() == []

    def test_completing_a_block_absent_from_the_queue_is_illegal(self):
        # a live block is always queued, so an absent one is an engine fault
        b = built_block(total_bytes=1500)
        b.received_packets = 1
        with pytest.raises(SimulationInvariantError, match="not in queue"):
            BlockAwaitingQueue().complete(b, 0.05)
        assert b.completion_time is None

    def test_double_completion_rejected(self):
        b = built_block(total_bytes=1500)
        q = BlockAwaitingQueue()
        q.enqueue(b)
        b.received_packets = 1
        q.complete(b, 0.05)
        with pytest.raises(SimulationInvariantError, match="not in queue"):
            q.complete(b, 0.06)
        assert b.completion_time == 0.05

    def test_expired_block_cannot_complete(self):
        # the expiry filter unqueues a block, so its last packet's arrival
        # cannot complete it
        b = built_block(total_bytes=1500, deadline_s=0.1)
        q = BlockAwaitingQueue()
        q.enqueue(b)
        assert filter_expired(q, 0.2) == [b]
        b.received_packets = 1
        with pytest.raises(SimulationInvariantError, match="not in queue"):
            q.complete(b, 0.25)
        assert b.completion_time is None and b.expired


class TestMediaElement:
    def test_fields_are_frozen(self):
        e = element()
        with pytest.raises(AttributeError):
            e.priority = 3
