"""Block selection policies.

All policies see the same view: the queue of live blocks in arrival
order, already stripped of expired blocks by ``model.filter_expired``,
restricted to blocks that have a packet ready to send. They return the
block itself, one of those they were given, whose next packet should
enter the selection queue, and change no block and no queue: the
awaiting queue in ``model`` owns every change to a queued block's
packets. The engine calls a policy only when that list is non-empty, so
every decision selects a block; a decision with nothing eligible is
recorded by the engine alone, and no policy is asked.

Each stateless policy is a plain ``select_block_*`` function of that
view, and ``Scheduler(name, policy)`` is the one class that drives any
of them. ldf keeps per-element deficits between decisions, so it alone
is a ``Scheduler`` subclass (``LdfScheduler``). The engine tells a policy
of each on-time completion through ``note_on_time``, and of no other
outcome; only ldf acts on it. ``make_scheduler`` builds a policy by name.

The policies are proposed and three baselines: fifo (oldest first), ldf
(largest deficit first) and rswn (rate-aware static weights).

The features a policy may read are one plain tuple per block, (Sr, Dr,
Pkt, P): remaining size ratio Sr, remaining deadline ratio Dr, remaining
unacked packet count Pkt, and priority P. ``compute_block_stats`` builds
it from the block's fields. Every deadline quantity, Dr and rswn's keys
alike, is measured to ``Block.expires_at``, the instant the expiry rule
closes the window, so Dr is positive for every block a policy can see.

A decision is one call, ``select(now, blocks, regime, smoothed_bw,
features)``: smoothed_bw is in bytes/s, and ``features(block, now)``
builds a block's feature tuple. The engine takes the blocks from the
queue's sendable index and builds no features. Proposed builds them
through its ``features`` argument, once per eligible block, and only on a
decision that no retransmission settles (a block has a lost packet to
resend when its ``pending`` list is non-empty: it holds only lost
packets). It compares each tuple in the pass that builds it, in queue
order, and keeps only the champion block and its keys. fifo, ldf and
rswn read the fields of the blocks themselves. The policies read the
``Regime`` and ``DecisionReason`` members from module globals bound once,
as ``predictor`` does for ``Regime``: a global read is cheaper than an
attribute read on an enum class.

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
from typing import Callable, NamedTuple

from .errors import ConfigurationError, SimulationInvariantError
from .model import Block
from .predictor import Regime

# a block's scheduling features at one instant, a plain tuple built at most
# once per eligible block per decision:
# (Sr: unacked bytes / total bytes, Dr: time left / deadline window,
#  Pkt: unacked packet count, P: priority)
BlockFeatures = tuple[float, float, int, int]
# annotations naming Block stay unevaluated: typing's alias cache would pin every re-import

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
        raise SimulationInvariantError("block %r is expired at %r" % (block.block_id, now))
    total_bytes = block.total_bytes
    return ((total_bytes - block.acked_bytes) / total_bytes,
            (expires_at - now) / block.deadline_s,
            block.packet_count - block.acked_packets,
            block.priority)


class DecisionReason(str, enum.Enum):
    RETRANSMISSION = "retransmission"
    LOW_REGIME = "low_regime"
    HIGH_REGIME = "high_regime"
    MID_SIZE = "mid_size"
    MID_DEADLINE = "mid_deadline"
    FIRST_BLOCK = "first_block"


class SchedulerDecision(NamedTuple):
    """One policy's choice (an immutable tuple): the block whose next
    packet goes next, and why. The policies build it with
    ``tuple.__new__``, which skips the NamedTuple's Python-level
    ``__new__``."""

    selected: Block
    reason: DecisionReason
    score: float | None = None


# the members the policies read, bound once (see the module docstring)
_LOW, _HIGH = Regime.LOW, Regime.HIGH
_RETRANSMISSION = DecisionReason.RETRANSMISSION
_LOW_REGIME = DecisionReason.LOW_REGIME
_HIGH_REGIME = DecisionReason.HIGH_REGIME
_MID_SIZE = DecisionReason.MID_SIZE
_MID_DEADLINE = DecisionReason.MID_DEADLINE
_FIRST_BLOCK = DecisionReason.FIRST_BLOCK


def select_block_proposed(now: float, blocks: list[Block], regime: Regime, smoothed_bw: float,
                          features: Callable[[Block, float], BlockFeatures],
                          literal_mid_branch: bool = False) -> SchedulerDecision:
    """Regime-switched champion scan, one pass over the queue.

    A retransmission always takes the championship and nothing else
    outranks one, so when any block has a lost packet pending the last
    such block wins and no feature is built. Otherwise one loop serves the
    low regime and one the high and mid regimes; each builds a block's
    features and compares them in the same step, in queue order.

    literal_mid_branch replays a quirk of the policy's original
    pseudocode in which the mid-regime update lines compare but never
    reassign the champion; the default closes that gap with the intended
    smallest remaining work rule.
    """
    for block in reversed(blocks):
        if block.pending:
            return _tuple_new(SchedulerDecision, (block, _RETRANSMISSION, None))
    rest = iter(blocks)
    champ = next(rest)
    reason = _FIRST_BLOCK
    if regime is _LOW:
        _, dr, pkt, p = features(champ, now)
        champ_key = dr / pkt * (1.0 + p)
        for block in rest:
            _, dr, pkt, p = features(block, now)
            key = dr / pkt * (1.0 + p)
            if champ_key <= key:
                champ, champ_key, reason = block, key, _LOW_REGIME
        return _tuple_new(SchedulerDecision, (champ, reason, champ_key))
    # the champion's keys, kept so that each block's are computed once:
    # champ_key is the active regime's key (the score), champ_size the mid
    # rule's Sr * Pkt, and champ_dr, champ_pkt its Dr and Pkt for a size tie
    high = regime is _HIGH
    sr, champ_dr, champ_pkt, p = features(champ, now)
    champ_size = sr * champ_pkt
    champ_key = champ_dr * (1.0 + p) / sr if high else champ_size
    for block in rest:
        sr, dr, pkt, p = features(block, now)
        size = sr * pkt
        if high:
            key = dr * (1.0 + p) / sr
            if champ_key >= key:
                champ, champ_key, champ_size, reason = block, key, size, _HIGH_REGIME
                champ_dr, champ_pkt = dr, pkt
                continue
            # losing the high-regime test still earns the mid comparison
        else:
            key = size
        if literal_mid_branch:
            continue
        if size < champ_size:
            champ, champ_key, champ_size, reason = block, key, size, _MID_SIZE
            champ_dr, champ_pkt = dr, pkt
        elif size == champ_size:
            # the deadline key Dr / Pkt breaks a size tie
            if dr / pkt <= champ_dr / champ_pkt:
                champ, champ_key, reason = block, key, _MID_DEADLINE
                champ_dr, champ_pkt = dr, pkt
    return _tuple_new(SchedulerDecision, (champ, reason, champ_key))


def select_block_fifo(now: float, blocks: list[Block], regime: Regime, smoothed_bw: float,
                      features: Callable[[Block, float], BlockFeatures]) -> SchedulerDecision:
    """Oldest block first."""
    return _tuple_new(SchedulerDecision, (blocks[0], _FIRST_BLOCK, None))


def select_block_rswn(now: float, blocks: list[Block], regime: Regime, smoothed_bw: float,
                      features: Callable[[Block, float], BlockFeatures]) -> SchedulerDecision:
    """Rate-aware static weights: the highest weight (1 + P) among blocks
    the current bandwidth estimate says can still finish inside their
    windows; ties keep the earlier expiry instant, then the earlier block.
    Falls back to the earliest expiry instant when nothing looks
    completable. The expiry instant is ``Block.expires_at``."""
    best = -1
    if smoothed_bw > 0:
        best_weight = best_expiry = 0
        for i, block in enumerate(blocks):
            expiry = block.expires_at
            # not completable: its unacked bytes need longer than the time left
            if (block.total_bytes - block.acked_bytes) / smoothed_bw > expiry - now:
                continue
            # the key (-(1 + P), expiry), compared field by field
            weight = 1 + block.priority
            if (best < 0 or weight > best_weight
                    or (weight == best_weight and expiry < best_expiry)):
                best, best_weight, best_expiry = i, weight, expiry
    if best < 0:
        best = min(range(len(blocks)), key=lambda i: (blocks[i].expires_at, i))
        return _tuple_new(SchedulerDecision, (blocks[best], _FIRST_BLOCK,
                                              blocks[best].expires_at))
    return _tuple_new(SchedulerDecision, (blocks[best], _FIRST_BLOCK, float(best_weight)))


class Scheduler:
    """A named policy driven by the simulation: ``select`` applies the
    policy function to each decision's five arguments. A policy that
    keeps state across decisions subclasses it and overrides ``select``
    and ``note_on_time``."""

    def __init__(self, name: str, policy: Callable[..., SchedulerDecision]) -> None:
        self.name = name
        self.policy = policy

    def select(self, now: float, blocks: list[Block], regime: Regime, smoothed_bw: float,
               features: Callable[[Block, float], BlockFeatures]) -> SchedulerDecision:
        return self.policy(now, blocks, regime, smoothed_bw, features)

    def note_on_time(self, element_id: int) -> None:
        """Called once per block that completes on time; a late completion
        or an expiry is not reported."""


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

    def select(self, now: float, blocks: list[Block], regime: Regime, smoothed_bw: float,
               features: Callable[[Block, float], BlockFeatures]) -> SchedulerDecision:
        self._tick(now)
        deficit_of = self.deficits.get
        best = 0
        best_deficit = deficit_of(blocks[0].element_id, 0.0)
        for i in range(1, len(blocks)):
            d = deficit_of(blocks[i].element_id, 0.0)
            if d > best_deficit:
                best, best_deficit = i, d
        return _tuple_new(SchedulerDecision, (blocks[best], _FIRST_BLOCK, best_deficit))

    def note_on_time(self, element_id: int) -> None:
        if element_id in self.deficits:
            self.deficits[element_id] = max(0.0, self.deficits[element_id] - 1.0)


SCHEDULER_NAMES = ("proposed", "fifo", "ldf", "rswn")


def make_scheduler(name: str, scenario, literal_mid_branch: bool = False) -> Scheduler:
    """Build a policy by name; ldf derives its per-element rates from the
    scenario's block periods."""
    if name == "ldf":
        return LdfScheduler({e.element_id: 1.0 / e.period_s for e in scenario.elements})
    policies = {
        "proposed": functools.partial(select_block_proposed, literal_mid_branch=literal_mid_branch),
        "fifo": select_block_fifo,
        "rswn": select_block_rswn,
    }
    if name not in policies:
        raise ConfigurationError("unknown scheduler %r (known: %s)" % (name, ", ".join(SCHEDULER_NAMES)))
    return Scheduler(name, policies[name])
