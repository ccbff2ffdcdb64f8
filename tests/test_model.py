"""Content model: scenarios, block generation, packets, queue."""
from __future__ import annotations

import dataclasses
import json
import math
import os
from collections import deque

import pytest
from hypothesis import example, given, strategies as st

from blocksched.errors import (
    ConfigurationError,
    DuplicateBlockError,
    IllegalStateError,
    SimulationInvariantError,
)
from blocksched.linksim import RunParams, Simulation
from blocksched.model import (
    BlockAwaitingQueue,
    MediaElement,
    Packet,
    PacketState,
    ScenarioConfig,
    generate_blocks,
    load_scenario,
    mark_block_complete,
)
from blocksched.schedulers import SchedulingContext, filter_expired, make_scheduler
from blocksched.traces import synthesize_trace
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
        arrivals = [(b.arrival_time, b.element_id, b.index) for b in blocks]
        assert arrivals == sorted(arrivals)

    def test_indices_per_element_are_consecutive(self):
        blocks = generate_blocks(two_element_scenario(), duration_s=4.0, seed=1)
        for eid in (0, 1):
            idx = [b.index for b in blocks if b.element_id == eid]
            assert idx == list(range(len(idx)))

    def test_empty_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_blocks(ScenarioConfig(name="none", elements=[]), duration_s=1.0, seed=0)


class OneBlockSender:
    """A Simulation with one queued block, driven step by step through the
    engine's own handlers: ``take`` is ``_fill_slot`` (the packet is then
    treated as sent at that instant), ``lose`` is ``_on_loss_signal`` one
    millisecond later, and ``expire`` is the expiry filter at the block's
    expiry instant."""

    def __init__(self, total_bytes, deadline_s=5.0):
        scenario = scenario_of(element(block_size_bytes=total_bytes, deadline_s=deadline_s,
                                       period_s=10.0))
        self.sim = Simulation(synthesize_trace("constant", duration_s=1.0, seed=0, mbps=1.0),
                              scenario, make_scheduler("fifo"), RunParams(duration_s=10.0))
        (self.block,) = self.sim.blocks
        self.t = self.block.arrival_time
        self.sim._on_block_arrival(self.t, self.block)

    def take(self) -> Packet:
        sim = self.sim
        sim._fill_slot(self.t)
        packet, sim._slot = sim._slot, None
        packet.send_time = self.t
        sim.ledger.add(packet.packet_id, packet.size_bytes, self.t)
        return packet

    def lose(self, packet) -> None:
        self.t += 0.001
        self.sim._on_loss_signal(self.t, packet)

    def expire(self) -> None:
        assert filter_expired(self.sim.queue, self.block.expires_at) == [self.block]

    def take_all(self) -> list[Packet]:
        taken = []
        while self.block in self.sim.queue.sendable():
            taken.append(self.take())
        return taken


class EagerBlock:
    """The eager packet model packets were built by: every packet exists
    from the start, all of them in one pending deque; a loss puts the
    packet back at the front (appendleft), a take pops the front
    (popleft), and expiry discards everything still pending."""

    def __init__(self, total_bytes):
        full, tail = divmod(total_bytes, PACKET_PAYLOAD_BYTES)
        self.sizes = [PACKET_PAYLOAD_BYTES] * full + ([tail] if tail else [])
        self.states = ["waiting"] * len(self.sizes)
        self.pending = deque(range(len(self.sizes)))
        self.expired = False

    def take(self) -> int:
        i = self.pending.popleft()
        self.states[i] = PacketState.IN_SELECTION_QUEUE
        return i

    def lose(self, i) -> None:
        if self.expired:
            self.states[i] = PacketState.EXPIRED_DISCARDED
        else:
            self.states[i] = PacketState.LOST_PENDING_RETX
            self.pending.appendleft(i)

    def expire(self) -> None:
        self.expired = True
        for i in self.pending:
            self.states[i] = PacketState.EXPIRED_DISCARDED
        self.pending.clear()

    def retransmission_pending(self) -> bool:
        return bool(self.pending) and self.states[self.pending[0]] is PacketState.LOST_PENDING_RETX


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

    def test_below_one_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            block_at(total_bytes=PACKET_PAYLOAD_BYTES - 1)


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
        block, queue = sender.block, sender.sim.queue
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
            assert [taken[i].state for i in range(built)] == eager.states[:built]
            assert set(eager.states[built:]) <= {"waiting", PacketState.EXPIRED_DISCARDED}
            assert block.discarded_packets == eager.states[:built].count(
                PacketState.EXPIRED_DISCARDED)
            # the eager deque is the lost packets, most recently lost first,
            # then the packets not built yet
            assert list(eager.pending) == ([p.packet_id[1] for p in reversed(block.pending)]
                                           + list(range(built, built + block.unsent)))
            if not eager.expired:
                assert built + block.unsent == block.packet_count
            sendable = bool(block.pending or block.unsent)
            assert sendable == bool(eager.pending)
            assert (block in queue.sendable()) == sendable
            ctx = SchedulingContext(now=sender.t, blocks=[block], regime=None, smoothed_bw=0.0)
            assert ctx.retransmission == [eager.retransmission_pending()]


class TestScenarioValidation:
    def test_duplicate_element_ids_rejected(self):
        cfg = scenario_of(element(element_id=0), element(element_id=0, priority=1))
        with pytest.raises(ConfigurationError):
            cfg.validate()

    @pytest.mark.parametrize("bad", [
        element(deadline_s=0.0),
        element(deadline_s=-1.0),
        element(period_s=0.0),
        element(block_size_bytes=PACKET_PAYLOAD_BYTES - 1),
    ])
    def test_bad_element_fields_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            scenario_of(bad).validate()

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
        cfg = scenario_of(element(element_id=0, priority=1),
                          element(element_id=1, priority=2))
        with pytest.raises(ConfigurationError):
            cfg.validate()

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
        cfg.validate()
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
        with pytest.raises(DuplicateBlockError):
            q.enqueue(block_at())

    def test_completed_block_cannot_enter(self):
        b = built_block()
        b.latest_receive_time = 0.05
        b.received_packets = b.packet_count
        q = BlockAwaitingQueue()
        with pytest.raises(IllegalStateError):
            q.enqueue(b)

    def test_remove_unknown_block_rejected(self):
        q = BlockAwaitingQueue()
        with pytest.raises(IllegalStateError):
            q.remove(block_at())

    def test_membership_and_get(self):
        q = BlockAwaitingQueue()
        b = block_at()
        q.enqueue(b)
        assert b.block_id in q
        assert q.get(b.block_id) is b
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
            first.unsent -= 1  # a fresh packet taken
            q.pending_changed(first)
            assert (first in q.sendable()) == bool(first.unsent)
        assert q.sendable() == [blocks[1]]
        assert first.block_id in q  # still queued: its packets are in flight

    def test_reentering_block_takes_back_its_queue_place(self):
        q, blocks = queued_blocks(3)
        middle = blocks[1]
        middle.unsent = 0  # every packet taken
        q.pending_changed(middle)
        assert q.sendable() == [blocks[0], blocks[2]]
        middle.pending.append(Packet((middle.block_id, 0), 1500))  # a loss re-queues one
        q.pending_changed(middle)
        assert q.sendable() == blocks

    def test_block_enqueued_with_nothing_pending_is_not_sendable(self):
        b = block_at()
        b.unsent = 0
        q = BlockAwaitingQueue()
        q.enqueue(b)
        assert b.block_id in q
        assert q.sendable() == []

    @given(st.lists(st.tuples(st.sampled_from(["take", "lose", "remove"]), st.integers(0, 3)),
                    max_size=40))
    def test_equals_the_queued_blocks_with_packets_pending(self, ops):
        q, blocks = queued_blocks(4)
        taken = {b.block_id: [] for b in blocks}
        for op, i in ops:
            b = blocks[i]
            if b.block_id not in q:
                pass
            elif op == "remove":
                q.remove(b)
            elif op == "take" and (b.pending or b.unsent):
                if b.pending:
                    packet = b.pending.pop()
                else:
                    packet = Packet((b.block_id, b.packet_count - b.unsent), 1500)
                    b.unsent -= 1
                taken[b.block_id].append(packet)
                q.pending_changed(b)
            elif op == "lose" and taken[b.block_id]:
                b.pending.append(taken[b.block_id].pop())
                q.pending_changed(b)
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
    def test_completion_is_latest_client_receipt(self):
        b = built_block(total_bytes=3000)  # two packets
        q = BlockAwaitingQueue()
        q.enqueue(b)
        b.latest_receive_time = 0.07  # the later of the two booked arrivals
        b.received_packets = 2
        finish = mark_block_complete(b, q)
        assert finish == 0.07
        assert b.completion_time == 0.07
        assert b.block_id not in q

    def test_unreceived_packet_blocks_completion(self):
        b = built_block(total_bytes=3000)
        b.latest_receive_time = 0.05
        b.received_packets = 1
        with pytest.raises(IllegalStateError, match="1 of 2 packets received"):
            mark_block_complete(b)

    def test_unbuilt_packet_blocks_completion(self):
        b = block_at(total_bytes=3000)
        b.received_packets = b.packet_count
        with pytest.raises(IllegalStateError, match="0 of 2 packets built"):
            mark_block_complete(b)

    def test_double_completion_rejected(self):
        b = built_block(total_bytes=1500)
        b.latest_receive_time = 0.05
        b.received_packets = 1
        mark_block_complete(b)
        with pytest.raises(IllegalStateError):
            mark_block_complete(b)

    def test_finish_before_arrival_is_fatal(self):
        for finish in (0.5, math.nan):  # NaN compares false with the arrival
            b = built_block(arrival_time=1.0, total_bytes=1500)
            b.latest_receive_time = finish
            b.received_packets = 1
            with pytest.raises(SimulationInvariantError):
                mark_block_complete(b)


class TestMediaElement:
    def test_fields_are_frozen(self):
        e = element()
        with pytest.raises(AttributeError):
            e.priority = 3
