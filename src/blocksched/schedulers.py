"""Block selection policies.

All policies see the same view: the queue of live blocks in arrival
order, already stripped of expired blocks, restricted to blocks that
have a packet ready to send. They return the id of the block whose next
packet should enter the selection queue.

Each stateless policy is a plain ``select_block_*`` function of that
view, and ``Scheduler(name, policy)`` is the one class that drives any
of them. ldf keeps per-element deficits between decisions, so it alone
is a ``Scheduler`` subclass (``LdfScheduler``). ``make_scheduler`` builds
a policy by name.

The policies are proposed and three baselines: fifo (oldest first), ldf
(largest deficit first) and rswn (rate-aware static weights).

The features a policy may read are one plain tuple per block, (Sr, Dr,
Pkt, P): remaining size ratio Sr, remaining deadline ratio Dr, remaining
unacked packet count Pkt, and priority P. ``compute_block_stats`` builds
it from the block's fields. Every deadline quantity, Dr and rswn's keys
alike, is measured to ``Block.expires_at``, the instant the expiry rule
closes the window, so Dr is positive for every block a policy can see.

The engine takes the eligible blocks from the queue's sendable index; it
builds no features and no retransmission flags. ``SchedulingContext.stats``
builds the features on its first read, one per eligible block, and
``SchedulingContext.retransmission`` does the same for the retransmission
flags (a block's flag is ``bool(block.pending)``: its pending list holds
only lost packets); each keeps its list for the rest of the decision.
Only proposed reads either, so it alone pays for them, once per
decision; fifo, ldf and rswn read the fields of the blocks themselves.

The proposed policy is regime-switched. A lost packet awaiting
retransmission always preempts fresh data. Otherwise:

  scarce link (low regime):    maximize Dr / Pkt * (1 + P)
      spend the little capacity on blocks with slack and rank, they are
      the only ones that can still finish
  plentiful link (high regime): minimize Dr * (1 + P) / Sr
      everything can finish, so clear urgent bulky low-rank blocks
      before their windows close
  moderate link (mid regime):  minimize Sr * Pkt, tie-break on smaller
      Dr / Pkt: finish the block closest to done, preferring the more
      urgent one on ties

In the high regime a candidate that loses the ratio comparison is still
given the mid-regime comparison before being discarded; this fall
through matches the intended cascade of the policy. Ties in every
comparison go to the later block in queue order because each update rule
uses a non-strict comparison.
"""
from __future__ import annotations

import enum
import functools
import math
from typing import Callable, NamedTuple

from .errors import ConfigurationError, IllegalStateError
from .model import Block, BlockAwaitingQueue, BlockId, PacketState
from .predictor import Regime

# a block's scheduling features at one instant, a plain tuple built at most
# once per eligible block per decision:
# (Sr: unacked bytes / total bytes, Dr: time left / deadline window,
#  Pkt: unacked packet count, P: priority)
BlockFeatures = tuple[float, float, int, int]

# builds a SchedulerDecision without the NamedTuple's Python-level __new__
_tuple_new = tuple.__new__


def compute_block_stats(block: Block, now: float) -> BlockFeatures:
    """The block's features (Sr, Dr, Pkt, P) at now; it must still be inside
    its window.

    Reads the block's fields directly: Sr is the unacked bytes over the
    total, Pkt the unacked packet count, and the expiry check is
    ``Block.past_deadline``'s comparison. Dr is the time left until
    ``expires_at`` over the window D, so it is positive whenever the check
    passes.
    """
    expires_at = block.expires_at
    if block.expired or now >= expires_at:
        raise IllegalStateError("block %r is expired at %r" % (block.block_id, now))
    total_bytes = block.total_bytes
    return ((total_bytes - block.acked_bytes) / total_bytes,
            (expires_at - now) / block.deadline_s,
            block.packet_count - block.acked_packets,
            block.priority)


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
        for packet in block.pending:
            packet.state = PacketState.EXPIRED_DISCARDED
        block.discarded_packets += len(block.pending)
        block.pending.clear()
        block.unsent = 0
        queue.remove(block)
    queue.next_expiry = next_expiry
    return expired


class DecisionReason(str, enum.Enum):
    RETRANSMISSION = "retransmission"
    LOW_REGIME = "low_regime"
    HIGH_REGIME = "high_regime"
    MID_SIZE = "mid_size"
    MID_DEADLINE = "mid_deadline"
    FIRST_BLOCK = "first_block"
    NONE_ELIGIBLE = "none_eligible"


class SchedulerDecision(NamedTuple):
    """One policy's choice (an immutable tuple): the block whose next
    packet goes next, or None, and why. The policies build it with
    ``tuple.__new__``, which skips the NamedTuple's Python-level
    ``__new__``."""

    selected: BlockId | None
    reason: DecisionReason
    score: float | None = None


_NONE_ELIGIBLE = SchedulerDecision(None, DecisionReason.NONE_ELIGIBLE)


class SchedulingContext:
    """Everything a policy may look at for one decision.

    ``stats`` holds one feature tuple (Sr, Dr, Pkt, P) per entry of
    ``blocks``, in the same order, and ``retransmission`` one flag per
    entry, true when that block's next packet is a loss retransmission.
    Unless the caller passes them in, each list is built on its first
    read, ``stats`` by calling ``features(block, now)`` for every block and
    ``retransmission`` as ``bool(block.pending)`` for every block, and that
    list is returned by every later read. So a decision builds each at most once
    per block, and a policy that never reads one builds none of it. Only
    proposed reads them; the baselines read the blocks themselves.
    """

    __slots__ = ("now", "blocks", "regime", "smoothed_bw", "_features", "_stats",
                 "_retransmission")

    def __init__(self, *, now: float, blocks: list[Block],
                 retransmission: list[bool] | None = None, regime: Regime, smoothed_bw: float,
                 stats: list[BlockFeatures] | None = None,
                 features: Callable[[Block, float], BlockFeatures] = compute_block_stats) -> None:
        self.now = now
        self.blocks = blocks  # live, sendable, arrival order
        self.regime = regime
        self.smoothed_bw = smoothed_bw  # bytes/s
        self._features = features
        self._stats = stats
        self._retransmission = retransmission

    @property
    def stats(self) -> list[BlockFeatures]:
        stats = self._stats
        if stats is None:
            features, now = self._features, self.now
            stats = self._stats = [features(block, now) for block in self.blocks]
        return stats

    @property
    def retransmission(self) -> list[bool]:
        retx = self._retransmission
        if retx is None:
            retx = self._retransmission = [bool(b.pending) for b in self.blocks]
        return retx


def select_block_proposed(ctx: SchedulingContext, literal_mid_branch: bool = False) -> SchedulerDecision:
    """Regime-switched champion scan, one pass over the queue.

    A retransmission always takes the championship and nothing else
    outranks one, so when any flag is set the last flagged block wins and
    no key is compared. Otherwise one loop serves the low regime and one
    the high and mid regimes.

    literal_mid_branch replays a quirk of the policy's original
    pseudocode in which the mid-regime update lines compare but never
    reassign the champion; the default closes that gap with the intended
    smallest remaining work rule.
    """
    blocks = ctx.blocks
    n = len(blocks)
    if n == 0:
        return _NONE_ELIGIBLE
    stats = ctx.stats
    retx = ctx.retransmission
    if any(retx):
        champ = n - 1
        while not retx[champ]:
            champ -= 1
        return _tuple_new(SchedulerDecision,
                          (blocks[champ].block_id, DecisionReason.RETRANSMISSION, None))
    champ = 0
    reason = DecisionReason.FIRST_BLOCK
    regime = ctx.regime
    if regime is Regime.LOW:
        _, dr, pkt, p = stats[0]
        champ_key = dr / pkt * (1.0 + p)
        for i in range(1, n):
            _, dr, pkt, p = stats[i]
            key = dr / pkt * (1.0 + p)
            if champ_key <= key:
                champ, champ_key, reason = i, key, DecisionReason.LOW_REGIME
        return _tuple_new(SchedulerDecision, (blocks[champ].block_id, reason, champ_key))
    # the champion's keys, kept so that each block's are computed once:
    # champ_key is the active regime's key (the score), champ_size the mid
    # rule's Sr * Pkt
    high = regime is Regime.HIGH
    sr, dr, pkt, p = stats[0]
    champ_size = sr * pkt
    champ_key = dr * (1.0 + p) / sr if high else champ_size
    for i in range(1, n):
        sr, dr, pkt, p = stats[i]
        size = sr * pkt
        if high:
            key = dr * (1.0 + p) / sr
            if champ_key >= key:
                champ, champ_key, champ_size, reason = i, key, size, DecisionReason.HIGH_REGIME
                continue
            # losing the high-regime test still earns the mid comparison
        else:
            key = size
        if literal_mid_branch:
            continue
        if size < champ_size:
            champ, champ_key, champ_size, reason = i, key, size, DecisionReason.MID_SIZE
        elif size == champ_size:
            # the deadline key Dr / Pkt breaks a size tie
            held = stats[champ]
            if dr / pkt <= held[1] / held[2]:
                champ, champ_key, reason = i, key, DecisionReason.MID_DEADLINE
    return _tuple_new(SchedulerDecision, (blocks[champ].block_id, reason, champ_key))


def select_block_fifo(ctx: SchedulingContext) -> SchedulerDecision:
    """Oldest block first."""
    if not ctx.blocks:
        return _NONE_ELIGIBLE
    return _tuple_new(SchedulerDecision, (ctx.blocks[0].block_id, DecisionReason.FIRST_BLOCK, None))


def select_block_rswn(ctx: SchedulingContext) -> SchedulerDecision:
    """Rate-aware static weights: the highest weight (1 + P) among blocks
    the current bandwidth estimate says can still finish inside their
    windows; ties keep the earlier expiry instant, then the earlier block.
    Falls back to the earliest expiry instant when nothing looks
    completable. The expiry instant is ``Block.expires_at``."""
    blocks = ctx.blocks
    if not blocks:
        return _NONE_ELIGIBLE
    now, bw = ctx.now, ctx.smoothed_bw
    best = -1
    if bw > 0:
        best_weight = best_expiry = 0
        for i, block in enumerate(blocks):
            expiry = block.expires_at
            # not completable: its unacked bytes need longer than the time left
            if (block.total_bytes - block.acked_bytes) / bw > expiry - now:
                continue
            # the key (-(1 + P), expiry), compared field by field
            weight = 1 + block.priority
            if (best < 0 or weight > best_weight
                    or (weight == best_weight and expiry < best_expiry)):
                best, best_weight, best_expiry = i, weight, expiry
    if best < 0:
        best = min(range(len(blocks)), key=lambda i: (blocks[i].expires_at, i))
        return _tuple_new(SchedulerDecision, (blocks[best].block_id, DecisionReason.FIRST_BLOCK,
                                              blocks[best].expires_at))
    return _tuple_new(SchedulerDecision,
                      (blocks[best].block_id, DecisionReason.FIRST_BLOCK, float(best_weight)))


class Scheduler:
    """A named policy driven by the simulation: ``select`` applies the
    policy function to each decision's context. A policy that keeps state
    across decisions subclasses it and overrides ``select`` and
    ``note_block_resolved``."""

    def __init__(self, name: str,
                 policy: Callable[[SchedulingContext], SchedulerDecision]) -> None:
        self.name = name
        self.policy = policy

    def select(self, ctx: SchedulingContext) -> SchedulerDecision:
        return self.policy(ctx)

    def note_block_resolved(self, element_id: int, on_time: bool) -> None:
        """Called once per block when it completes or expires."""


class LdfScheduler(Scheduler):
    """Largest-deficit-first service across elements.

    Each element accrues deficit at its block arrival rate (blocks per
    second, scaled by wall time between decisions) and pays one unit back
    when a block of that element completes on time. The eligible block
    whose element holds the largest deficit is served; ties keep the
    earlier arrival.
    """

    def __init__(self, rates: dict[int, float]) -> None:
        super().__init__("ldf", self.select)  # the policy is this stateful select
        self.rates = dict(rates)
        self.deficits = {k: 0.0 for k in self.rates}
        self._last_tick = 0.0

    def _tick(self, now: float) -> None:
        dt = now - self._last_tick
        if dt > 0:
            deficits = self.deficits
            for k, rate in self.rates.items():
                deficits[k] += rate * dt
        self._last_tick = max(self._last_tick, now)

    def select(self, ctx: SchedulingContext) -> SchedulerDecision:
        self._tick(ctx.now)
        blocks = ctx.blocks
        if not blocks:
            return _NONE_ELIGIBLE
        deficit_of = self.deficits.get
        best = 0
        best_deficit = deficit_of(blocks[0].element_id, 0.0)
        for i in range(1, len(blocks)):
            d = deficit_of(blocks[i].element_id, 0.0)
            if d > best_deficit:
                best, best_deficit = i, d
        return _tuple_new(SchedulerDecision,
                          (blocks[best].block_id, DecisionReason.FIRST_BLOCK, best_deficit))

    def note_block_resolved(self, element_id: int, on_time: bool) -> None:
        if on_time and element_id in self.deficits:
            self.deficits[element_id] = max(0.0, self.deficits[element_id] - 1.0)


SCHEDULER_NAMES = ("proposed", "fifo", "ldf", "rswn")


def make_scheduler(name: str, scenario=None, literal_mid_branch: bool = False) -> Scheduler:
    """Build a policy by name; ldf derives its per-element rates from the
    scenario's block periods."""
    if name == "ldf":
        if scenario is None:
            raise IllegalStateError("ldf needs a scenario to derive arrival rates")
        return LdfScheduler({e.element_id: 1.0 / e.period_s for e in scenario.elements})
    policies = {
        "proposed": functools.partial(select_block_proposed, literal_mid_branch=literal_mid_branch),
        "fifo": select_block_fifo,
        "rswn": select_block_rswn,
    }
    if name not in policies:
        raise ConfigurationError("unknown scheduler %r (known: %s)" % (name, ", ".join(SCHEDULER_NAMES)))
    return Scheduler(name, policies[name])
