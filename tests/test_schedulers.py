"""Selection policies: regime-switched scan and the baseline set."""
from __future__ import annotations

import math
import random

import pytest
from hypothesis import assume, given, strategies as st

from blocksched.errors import ConfigurationError, IllegalStateError
from blocksched.linksim import RunParams
from blocksched.metrics import delivery_indicator
from blocksched.model import BlockAwaitingQueue, Packet, PacketState
from blocksched.predictor import Regime
from blocksched.schedulers import (
    DecisionReason,
    LdfScheduler,
    SchedulerDecision,
    SchedulingContext,
    compute_block_stats,
    filter_expired,
    make_scheduler,
    select_block_fifo,
    select_block_proposed,
    select_block_rswn,
)
from blocksched.traces import synthesize_trace
from conftest import (acked_prefix_bytes, block_at, built_block, element, run_recorded,
                      scenario_of, ulps_from)
from reference_selection import reference_rswn, reference_select

HIGH_REGIMES = {Regime.LOW: 0, Regime.MID: 1, Regime.HIGH: 2}


def stats_of(dr=1.0, sr=1.0, pkt=1, p=0) -> tuple:
    """One block's features, the (Sr, Dr, Pkt, P) tuple."""
    return (sr, dr, pkt, p)


def ctx_of(stats, retx=None, regime=Regime.MID, now=0.0, smoothed=125000.0,
           blocks=None):
    if blocks is None:
        blocks = [block_at(element_id=0, index=i) for i in range(len(stats))]
    if retx is None:
        retx = [False] * len(stats)
    return SchedulingContext(now=now, blocks=list(blocks), stats=list(stats),
                             retransmission=list(retx), regime=regime,
                             smoothed_bw=smoothed)


class TestBlockStats:
    def test_ratios_after_partial_delivery(self):
        block = block_at(arrival_time=0.0, deadline_s=0.5, total_bytes=15000)
        block.acked_packets = 4
        block.acked_bytes = 6000
        sr, dr, pkt, p = compute_block_stats(block, now=0.25)
        assert sr == 0.6
        # time left to the expiry instant, one ulp past E + D = 0.5
        assert dr == (block.expires_at - 0.25) / 0.5
        assert dr == pytest.approx(0.5)
        assert pkt == 6
        assert p == 0

    def test_fresh_block_has_unit_ratios(self):
        block = block_at(arrival_time=1.0, deadline_s=0.2, total_bytes=3000)
        sr, dr, pkt, _ = compute_block_stats(block, now=1.0)
        assert sr == 1.0
        assert dr == pytest.approx(1.0)
        assert pkt == 2

    def test_expired_block_rejected(self):
        block = block_at(arrival_time=0.0, deadline_s=0.2)
        with pytest.raises(IllegalStateError):
            compute_block_stats(block, now=0.3)
        block2 = block_at(arrival_time=0.0, deadline_s=0.2)
        block2.expired = True
        with pytest.raises(IllegalStateError):
            compute_block_stats(block2, now=0.1)

    def test_stats_are_an_immutable_value(self):
        # a plain tuple (Sr, Dr, Pkt, P), not a tuple subclass
        block = block_at(arrival_time=0.0, deadline_s=0.5, priority=2, total_bytes=4500)
        s = compute_block_stats(block, now=0.0)
        assert type(s) is tuple
        assert s == (1.0, block.expires_at / 0.5, 3, 2)
        with pytest.raises(TypeError):
            s[3] = 5
        assert s[3] == 2

    @given(st.floats(min_value=0.0, max_value=1e4), st.floats(min_value=1e-3, max_value=1e3),
           st.integers(min_value=1500, max_value=40000), st.integers(min_value=0, max_value=15),
           st.data())
    def test_fields_equal_the_block_property_formulas(self, arrival, deadline, total, prio,
                                                      data):
        block = built_block(arrival_time=arrival, deadline_s=deadline, priority=prio,
                            total_bytes=total)
        acked = data.draw(st.integers(min_value=0, max_value=block.packet_count))
        block.acked_packets = acked
        block.acked_bytes = acked_prefix_bytes(block, acked)
        now = arrival + data.draw(st.floats(min_value=0.0, max_value=1.0)) * deadline
        assume(not block.past_deadline(now))
        sr, dr, pkt, p = compute_block_stats(block, now)
        assert sr == (block.total_bytes - block.acked_bytes) / block.total_bytes
        assert dr == (block.expires_at - now) / block.deadline_s
        assert dr > 0
        assert pkt == block.packet_count - block.acked_packets
        assert p == block.priority


class TestFilterExpired:
    def test_strictly_past_window_only(self):
        queue = BlockAwaitingQueue()
        block = block_at(arrival_time=0.0, deadline_s=0.2)
        queue.enqueue(block)
        assert filter_expired(queue, now=0.2) == []
        assert block.block_id in queue
        expired = filter_expired(queue, now=0.2 + 1e-9)
        assert expired == [block]
        assert block.expired
        assert block.block_id not in queue

    def test_pending_packets_discarded(self):
        # two packets built and lost, the third never built
        queue = BlockAwaitingQueue()
        block = block_at(arrival_time=0.0, deadline_s=0.1, total_bytes=4500)
        lost = [Packet((block.block_id, i), 1500, PacketState.LOST_PENDING_RETX) for i in (0, 1)]
        block.built = 2
        block.pending.extend(reversed(lost))
        block.unsent = 1
        queue.enqueue(block)
        filter_expired(queue, now=0.5)
        assert not block.pending
        assert block.unsent == 0
        assert block.built == 2  # the unsent packet is never built
        assert block.discarded_packets == 2
        assert all(p.state is PacketState.EXPIRED_DISCARDED for p in lost)

    def test_survivors_keep_queue_order(self):
        queue = BlockAwaitingQueue()
        blocks = [block_at(arrival_time=t, deadline_s=0.2, index=i)
                  for i, t in enumerate((0.0, 0.1, 0.2))]
        for b in blocks:
            queue.enqueue(b)
        expired = filter_expired(queue, now=0.25)
        assert expired == [blocks[0]]
        assert list(queue) == blocks[1:]


# (E, D, f): a block window and a point E + f * D inside or past it
WINDOWS = st.tuples(st.floats(min_value=0.0, max_value=1e4),
                    st.floats(min_value=1e-3, max_value=1e3),
                    st.floats(min_value=0.0, max_value=2.0))


def _times_in(arrival: float, deadline: float, frac: float, ulps: int = 4) -> list[float]:
    """E + f * D plus every float within ulps ulps of E + D, where the
    forms now - E > D and now > E + D can disagree."""
    edge = arrival + deadline
    return [arrival + frac * deadline] + [ulps_from(edge, k) for k in range(-ulps, ulps + 1)]


def _engine_on_time(arrival: float, deadline: float, finish: float) -> bool:
    """The on-time flag the engine records when a one-packet block's only
    packet reaches the client at finish: the send's delivery bookkeeping,
    then the block's delivered event at that arrival."""
    scenario = scenario_of(element(block_size_bytes=1500))
    block = built_block(arrival_time=arrival, deadline_s=deadline, total_bytes=1500,
                        element_id=9)

    def deliver(sim):
        sim.blocks_by_id[block.block_id] = block
        block.latest_receive_time = finish
        block.received_packets = 1
        sim._on_block_delivered(finish, block)

    _, records = run_recorded(synthesize_trace("constant", duration_s=1.0, seed=0, mbps=1.0),
                              scenario, make_scheduler("fifo"), RunParams(duration_s=1.0),
                              drive=deliver)
    last = records[-1]
    assert (last["kind"], last["block_id"]) == ("block_complete", list(block.block_id))
    return last["on_time"]


class TestExpiryRule:
    def test_last_ulp_block_is_live_everywhere(self):
        # 0.321 + 0.631 rounds to 0.952, one ulp below now, while
        # now - 0.321 rounds to exactly 0.631: the window is not yet past
        now = 0.9520000000000001
        block = block_at(arrival_time=0.321, deadline_s=0.631)
        queue = BlockAwaitingQueue()
        queue.enqueue(block)
        assert filter_expired(queue, now) == []
        assert compute_block_stats(block, now)[2] == block.packet_count  # Pkt

    def test_last_ulp_block_has_a_positive_deadline_ratio(self):
        # E + D rounds to 0.952, below now, but the window closes only at
        # expires_at = 0.9520000000000002, so time is left and Dr > 0
        block = block_at(arrival_time=0.321, deadline_s=0.631)
        assert compute_block_stats(block, 0.9520000000000001)[1] > 0  # Dr

    @given(WINDOWS)
    def test_expiry_instant_is_the_first_float_past_the_window(self, window):
        arrival, deadline, _ = window
        block = block_at(arrival_time=arrival, deadline_s=deadline)
        for now in _times_in(*window, ulps=8):
            assert block.past_deadline(now) == (now - arrival > deadline), now
            if not block.past_deadline(now):
                assert compute_block_stats(block, now)[1] > 0, now  # Dr
        assert block.past_deadline(block.expires_at)
        assert not block.past_deadline(math.nextafter(block.expires_at, -math.inf))

    @given(WINDOWS)
    def test_block_stats_refuse_exactly_what_the_filter_expires(self, window):
        for now in _times_in(*window):
            block = block_at(arrival_time=window[0], deadline_s=window[1])
            queue = BlockAwaitingQueue()
            queue.enqueue(block)
            try:
                compute_block_stats(block, now)
                raised = False
            except IllegalStateError:
                raised = True
            assert raised == (filter_expired(queue, now) == [block]), now

    @given(WINDOWS)
    def test_engine_on_time_flag_matches_delivery_indicator(self, window):
        arrival, deadline, _ = window
        for finish in _times_in(*window):
            assert _engine_on_time(arrival, deadline, finish) == bool(
                delivery_indicator(arrival, finish, deadline)), finish


class TestProposedLowRegime:
    def test_keeps_block_with_larger_key(self):
        # keys Dr/Pkt*(1+P): 0.6 for the first block, 0.25 for the second
        ctx = ctx_of([stats_of(dr=0.6, pkt=1, p=0), stats_of(dr=0.25, pkt=1, p=0)],
                     regime=Regime.LOW)
        decision = select_block_proposed(ctx)
        assert decision.selected == ctx.blocks[0].block_id
        assert decision.reason is DecisionReason.FIRST_BLOCK
        assert decision.score == 0.6

    def test_swaps_to_larger_key(self):
        ctx = ctx_of([stats_of(dr=0.25, pkt=1, p=0), stats_of(dr=0.6, pkt=1, p=0)],
                     regime=Regime.LOW)
        decision = select_block_proposed(ctx)
        assert decision.selected == ctx.blocks[1].block_id
        assert decision.reason is DecisionReason.LOW_REGIME

    def test_priority_scales_key(self):
        # same slack per packet, higher rank wins: 0.5*(1+2)=1.5 beats 0.5
        ctx = ctx_of([stats_of(dr=0.5, pkt=1, p=0), stats_of(dr=0.5, pkt=1, p=2)],
                     regime=Regime.LOW)
        assert select_block_proposed(ctx).selected == ctx.blocks[1].block_id

    def test_equal_keys_pick_later_block(self):
        ctx = ctx_of([stats_of(dr=0.5, pkt=2), stats_of(dr=0.25, pkt=1)],
                     regime=Regime.LOW)
        decision = select_block_proposed(ctx)
        assert decision.selected == ctx.blocks[1].block_id
        assert decision.reason is DecisionReason.LOW_REGIME


class TestProposedMidRegime:
    def test_smaller_remaining_work_wins(self):
        # Sr*Pkt products 4.0 and 1.0
        ctx = ctx_of([stats_of(sr=1.0, pkt=4), stats_of(sr=0.5, pkt=2)],
                     regime=Regime.MID)
        decision = select_block_proposed(ctx)
        assert decision.selected == ctx.blocks[1].block_id
        assert decision.reason is DecisionReason.MID_SIZE
        assert decision.score == 1.0

    def test_first_block_kept_when_already_smallest(self):
        ctx = ctx_of([stats_of(sr=0.5, pkt=2), stats_of(sr=1.0, pkt=4)],
                     regime=Regime.MID)
        decision = select_block_proposed(ctx)
        assert decision.selected == ctx.blocks[0].block_id
        assert decision.reason is DecisionReason.FIRST_BLOCK

    def test_work_tie_breaks_on_deadline_pressure(self):
        # equal Sr*Pkt, the more urgent block (smaller Dr/Pkt) wins
        ctx = ctx_of([stats_of(sr=0.5, pkt=2, dr=0.8), stats_of(sr=1.0, pkt=1, dr=0.3)],
                     regime=Regime.MID)
        decision = select_block_proposed(ctx)
        assert decision.selected == ctx.blocks[1].block_id
        assert decision.reason is DecisionReason.MID_DEADLINE

    def test_full_tie_picks_later_block(self):
        ctx = ctx_of([stats_of(sr=0.5, pkt=2, dr=0.4), stats_of(sr=0.5, pkt=2, dr=0.4)],
                     regime=Regime.MID)
        decision = select_block_proposed(ctx)
        assert decision.selected == ctx.blocks[1].block_id
        assert decision.reason is DecisionReason.MID_DEADLINE

    def test_literal_branch_never_swaps(self):
        ctx = ctx_of([stats_of(sr=1.0, pkt=4), stats_of(sr=0.5, pkt=2)],
                     regime=Regime.MID)
        decision = select_block_proposed(ctx, literal_mid_branch=True)
        assert decision.selected == ctx.blocks[0].block_id
        assert decision.reason is DecisionReason.FIRST_BLOCK


class TestProposedHighRegime:
    def test_smaller_key_wins(self):
        # keys Dr*(1+P)/Sr: 2.0 for the first block, 0.5 for the second;
        # champion replaced because its key is >= the candidate's
        ctx = ctx_of([stats_of(dr=1.0, p=1, sr=1.0), stats_of(dr=0.5, p=0, sr=1.0)],
                     regime=Regime.HIGH)
        decision = select_block_proposed(ctx)
        assert decision.selected == ctx.blocks[1].block_id
        assert decision.reason is DecisionReason.HIGH_REGIME
        assert decision.score == 0.5

    def test_losing_candidate_falls_through_to_mid_rule(self):
        # candidate loses the ratio test (0.5 < 2.0) but carries less
        # remaining work (2.0 < 4.0), so the mid comparison adopts it
        ctx = ctx_of([stats_of(dr=0.5, p=0, sr=1.0, pkt=4),
                      stats_of(dr=1.0, p=1, sr=1.0, pkt=2)],
                     regime=Regime.HIGH)
        decision = select_block_proposed(ctx)
        assert decision.selected == ctx.blocks[1].block_id
        assert decision.reason is DecisionReason.MID_SIZE
        assert decision.score == 2.0  # reported in the active regime's key

    def test_literal_branch_blocks_the_fall_through(self):
        ctx = ctx_of([stats_of(dr=0.5, p=0, sr=1.0, pkt=4),
                      stats_of(dr=1.0, p=1, sr=1.0, pkt=2)],
                     regime=Regime.HIGH)
        decision = select_block_proposed(ctx, literal_mid_branch=True)
        assert decision.selected == ctx.blocks[0].block_id
        assert decision.reason is DecisionReason.FIRST_BLOCK

    def test_equal_keys_pick_later_block(self):
        ctx = ctx_of([stats_of(dr=0.5, p=1, sr=1.0), stats_of(dr=1.0, p=0, sr=1.0)],
                     regime=Regime.HIGH)
        decision = select_block_proposed(ctx)
        assert decision.selected == ctx.blocks[1].block_id
        assert decision.reason is DecisionReason.HIGH_REGIME


class TestRetransmissionDominance:
    def test_retransmission_preempts_better_keys(self):
        ctx = ctx_of([stats_of(dr=1.0, pkt=1, p=2), stats_of(dr=0.01, pkt=8, p=0)],
                     retx=[False, True], regime=Regime.LOW)
        decision = select_block_proposed(ctx)
        assert decision.selected == ctx.blocks[1].block_id
        assert decision.reason is DecisionReason.RETRANSMISSION
        assert decision.score is None

    def test_later_retransmission_wins(self):
        ctx = ctx_of([stats_of(), stats_of(), stats_of()],
                     retx=[True, False, True], regime=Regime.MID)
        assert select_block_proposed(ctx).selected == ctx.blocks[2].block_id

    def test_fresh_data_cannot_take_back_the_slot(self):
        ctx = ctx_of([stats_of(dr=0.5), stats_of(sr=0.01, pkt=1, dr=0.9, p=2)],
                     retx=[True, False], regime=Regime.MID)
        decision = select_block_proposed(ctx)
        assert decision.selected == ctx.blocks[0].block_id
        assert decision.reason is DecisionReason.RETRANSMISSION

    def test_empty_queue(self):
        decision = select_block_proposed(ctx_of([]))
        assert decision.selected is None
        assert decision.reason is DecisionReason.NONE_ELIGIBLE


class TestSchedulingContext:
    def test_flags_are_built_once_on_first_read(self):
        # a block's flag is whether a lost packet waits in its pending list
        blocks = [block_at(element_id=0, index=i) for i in range(3)]
        blocks[1].pending.append(Packet((blocks[1].block_id, 0), 1500,
                                        PacketState.LOST_PENDING_RETX))
        ctx = SchedulingContext(now=0.0, blocks=blocks, regime=Regime.MID, smoothed_bw=1.0)
        assert ctx._retransmission is None  # nothing built before the first read
        assert ctx.retransmission == [False, True, False]
        assert ctx.retransmission is ctx.retransmission
        blocks[1].pending.clear()  # a later read keeps the first read's list
        assert ctx.retransmission == [False, True, False]
        assert select_block_proposed(ctx).reason is DecisionReason.RETRANSMISSION

    def test_given_flags_are_never_recomputed(self):
        retx = [False, True]  # the blocks themselves have no lost packet
        ctx = ctx_of([stats_of(), stats_of()], retx=retx)
        assert ctx.retransmission == retx
        assert ctx.retransmission is ctx.retransmission
        assert select_block_proposed(ctx).selected == ctx.blocks[1].block_id


class TestSchedulerDecision:
    def test_is_an_immutable_value_with_optional_score(self):
        decision = SchedulerDecision((0, 1), DecisionReason.FIRST_BLOCK)
        assert decision.score is None
        assert SchedulerDecision._fields == ("selected", "reason", "score")
        with pytest.raises(AttributeError):
            decision.score = 1.0
        assert decision == SchedulerDecision(selected=(0, 1), reason=DecisionReason.FIRST_BLOCK,
                                             score=None)


ENTRY = st.fixed_dictionaries({
    "dr": st.sampled_from([0.25, 0.5, 0.75, 1.0]),
    "sr": st.sampled_from([0.2, 0.5, 1.0]),
    "pkt": st.sampled_from([1, 2, 4]),
    "p": st.sampled_from([0, 1, 2]),
    "retx": st.booleans(),
})


def _ctx_from_entries(entries, regime):
    stats = [stats_of(dr=e["dr"], sr=e["sr"], pkt=e["pkt"], p=e["p"]) for e in entries]
    return ctx_of(stats, retx=[e["retx"] for e in entries], regime=regime)


def _expected_score(entries, regime, idx, reason):
    """The score the policy reports: None when a retransmission won, else
    the winner's key in the active regime (the mid rule's size key in the
    mid regime)."""
    if reason == "retransmission":
        return None
    e = entries[idx]
    if regime is Regime.LOW:
        return e["dr"] / e["pkt"] * (1.0 + e["p"])
    if regime is Regime.HIGH:
        return e["dr"] * (1.0 + e["p"]) / e["sr"]
    return e["sr"] * e["pkt"]


class TestOracleEquivalence:
    @given(entries=st.lists(ENTRY, min_size=0, max_size=6),
           regime=st.sampled_from([Regime.LOW, Regime.MID, Regime.HIGH]),
           literal=st.booleans())
    def test_matches_reference_scan(self, entries, regime, literal):
        ctx = _ctx_from_entries(entries, regime)
        decision = select_block_proposed(ctx, literal_mid_branch=literal)
        expected_idx, expected_reason = reference_select(
            entries, HIGH_REGIMES[regime], literal_mid=literal)
        if expected_idx is None:
            assert decision.selected is None
            assert decision.score is None
        else:
            assert decision.selected == ctx.blocks[expected_idx].block_id
            assert decision.score == _expected_score(entries, regime, expected_idx,
                                                     expected_reason)
        assert decision.reason.value == expected_reason

    def test_matches_reference_scan_bulk(self):
        rng = random.Random(1234)
        drs, srs, pkts = [0.25, 0.5, 0.75, 1.0], [0.2, 0.5, 1.0], [1, 2, 4]
        checked = 0
        # (queue depth range, retransmission rate, lists per regime and
        # variant): short queues, then deep ones where the champion's keys
        # are reused many times; those deep lists rarely hold a
        # retransmission, which would end the key comparisons, so the last
        # deep lists hold several, where the last flagged block must win
        for (shortest, longest), retx_rate, count in (((1, 7), 0.15, 200), ((20, 60), 0.01, 50),
                                                      ((20, 60), 0.1, 50)):
            for regime in (Regime.LOW, Regime.MID, Regime.HIGH):
                for literal in (False, True):
                    for _ in range(count):
                        entries = [{"dr": rng.choice(drs), "sr": rng.choice(srs),
                                    "pkt": rng.choice(pkts), "p": rng.randrange(3),
                                    "retx": rng.random() < retx_rate}
                                   for _ in range(rng.randrange(shortest, longest + 1))]
                        ctx = _ctx_from_entries(entries, regime)
                        decision = select_block_proposed(ctx, literal_mid_branch=literal)
                        idx, reason = reference_select(entries, HIGH_REGIMES[regime],
                                                       literal_mid=literal)
                        assert decision.selected == ctx.blocks[idx].block_id
                        assert decision.reason.value == reason
                        assert decision.score == _expected_score(entries, regime, idx, reason)
                        checked += 1
        assert checked == 1800


@st.composite
def baseline_contexts(draw):
    """A context over random blocks for the baselines that read the blocks
    themselves: acked prefixes of the packets, few priorities and few
    absolute deadlines (so keys tie), and a bandwidth estimate that is
    zero, negative or positive. The features are left unbuilt."""
    blocks = []
    for i in range(draw(st.integers(0, 10))):
        block = built_block(arrival_time=draw(st.sampled_from([0.0, 0.1, 0.2])),
                            deadline_s=draw(st.sampled_from([0.1, 0.2, 0.3])),
                            priority=draw(st.integers(0, 2)),
                            total_bytes=draw(st.sampled_from([1500, 2000, 3000, 4500])),
                            element_id=i, index=0)
        acked = draw(st.integers(0, block.built))
        block.acked_packets = acked
        block.acked_bytes = acked_prefix_bytes(block, acked)
        blocks.append(block)
    bw = draw(st.one_of(st.just(0.0), st.floats(-1e6, -1e-3), st.floats(1e3, 1e6)))
    now = draw(st.sampled_from([0.0, 0.05, 0.15, 0.25]))
    return SchedulingContext(now=now, blocks=blocks, regime=Regime.MID, smoothed_bw=bw)


def _matches(decision, ctx, expected):
    idx, score = expected
    if idx is None:
        assert decision.selected is None
        assert decision.reason is DecisionReason.NONE_ELIGIBLE
    else:
        assert decision.selected == ctx.blocks[idx].block_id
        assert decision.reason is DecisionReason.FIRST_BLOCK
    assert decision.score == score


class TestBaselineOracles:
    """rswn equals its reference scan on random blocks."""

    @given(baseline_contexts())
    def test_rswn_matches_reference(self, ctx):
        _matches(select_block_rswn(ctx), ctx, reference_rswn(ctx.blocks, ctx.now, ctx.smoothed_bw))


class TestFifo:
    def test_oldest_first(self):
        ctx = ctx_of([stats_of(), stats_of(), stats_of()])
        assert select_block_fifo(ctx).selected == ctx.blocks[0].block_id

    def test_empty(self):
        assert select_block_fifo(ctx_of([])).selected is None


class TestLdf:
    def test_deficits_accrue_at_arrival_rate(self):
        sched = LdfScheduler({0: 2.0, 1: 1.0})
        ctx = ctx_of([stats_of(), stats_of()], now=1.5,
                     blocks=[block_at(element_id=0, index=0, arrival_time=0.0, deadline_s=9.0),
                             block_at(element_id=1, index=0, arrival_time=0.0, deadline_s=9.0)])
        decision = sched.select(ctx)
        assert sched.deficits == {0: 3.0, 1: 1.5}
        assert decision.selected == (0, 0)
        assert decision.score == 3.0

    def test_on_time_completion_repays_one_unit(self):
        sched = LdfScheduler({0: 1.0})
        sched._tick(2.5)
        sched.note_block_resolved(0, on_time=True)
        assert sched.deficits[0] == 1.5
        sched.note_block_resolved(0, on_time=True)
        sched.note_block_resolved(0, on_time=True)
        assert sched.deficits[0] == 0.0  # floored, never negative

    def test_late_or_expired_blocks_do_not_repay(self):
        sched = LdfScheduler({0: 1.0})
        sched._tick(2.0)
        sched.note_block_resolved(0, on_time=False)
        assert sched.deficits[0] == 2.0

    def test_ties_keep_earlier_arrival(self):
        sched = LdfScheduler({0: 1.0, 1: 1.0})
        ctx = ctx_of([stats_of(), stats_of()], now=1.0,
                     blocks=[block_at(element_id=0, index=0, deadline_s=9.0),
                             block_at(element_id=1, index=0, deadline_s=9.0)])
        assert sched.select(ctx).selected == (0, 0)

    def test_clock_never_runs_backwards(self):
        sched = LdfScheduler({0: 1.0})
        sched._tick(2.0)
        sched._tick(1.0)
        assert sched.deficits[0] == 2.0
        assert sched._last_tick == 2.0


class TestRswn:
    def _blocks(self):
        # 3000 B needs 0.3 s at 10 kB/s, too slow for a 0.2 s window
        a = block_at(element_id=0, index=0, total_bytes=3000, deadline_s=0.2, priority=2)
        b = block_at(element_id=1, index=0, total_bytes=1500, deadline_s=0.2, priority=0)
        c = block_at(element_id=2, index=0, total_bytes=1500, deadline_s=0.4, priority=1)
        return [a, b, c]

    def test_heaviest_completable_block_wins(self):
        blocks = self._blocks()
        stats = [compute_block_stats(b, 0.0) for b in blocks]
        ctx = ctx_of(stats, blocks=blocks, now=0.0, smoothed=10000.0)
        decision = select_block_rswn(ctx)
        assert decision.selected == (2, 0)
        assert decision.score == 2.0  # weight 1 + P of the winner

    def test_weight_ties_prefer_earlier_deadline(self):
        blocks = [block_at(element_id=0, index=0, total_bytes=1500, deadline_s=0.4, priority=1),
                  block_at(element_id=1, index=0, total_bytes=1500, deadline_s=0.3, priority=1)]
        stats = [compute_block_stats(b, 0.0) for b in blocks]
        ctx = ctx_of(stats, blocks=blocks, now=0.0, smoothed=10000.0)
        assert select_block_rswn(ctx).selected == (1, 0)

    def test_falls_back_to_earliest_deadline(self):
        blocks = self._blocks()
        stats = [compute_block_stats(b, 0.0) for b in blocks]
        ctx = ctx_of(stats, blocks=blocks, now=0.0, smoothed=1.0)
        decision = select_block_rswn(ctx)
        # two blocks share the earliest expiry; queue order breaks the tie
        assert decision.selected == (0, 0)

    def test_zero_bandwidth_uses_fallback(self):
        blocks = self._blocks()
        stats = [compute_block_stats(b, 0.0) for b in blocks]
        ctx = ctx_of(stats, blocks=blocks, now=0.0, smoothed=0.0)
        assert select_block_rswn(ctx).selected == (0, 0)


class TestMakeScheduler:
    def test_all_names_construct(self):
        scenario = scenario_of(element(element_id=0, priority=0, period_s=0.25))
        for name in ("proposed", "fifo", "ldf", "rswn"):
            sched = make_scheduler(name, scenario=scenario)
            assert sched.name == name

    def test_ldf_rates_from_periods(self):
        scenario = scenario_of(element(element_id=0, priority=0, period_s=0.25),
                               element(element_id=1, priority=1, period_s=0.5))
        sched = make_scheduler("ldf", scenario=scenario)
        assert sched.rates == {0: 4.0, 1: 2.0}

    def test_ldf_requires_scenario(self):
        with pytest.raises(IllegalStateError):
            make_scheduler("ldf")

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scheduler("edf")
