"""Session quality metrics and the run report.

A block counts as delivered on time when its client-side completion
time F satisfies F - E <= D, with E its arrival at the sender and D its
deadline window. That is ``Block.on_time``, the expiry rule
``Block.past_deadline`` read at F, so the engine's ``block_complete``
flag, ``build_report``'s counts and the `run` report's per-block
``on_time`` are one rule. The session delivery ratio averages that
indicator over all blocks. Channel utilization divides bytes the client
actually received (the blocks' ``acked_bytes``, since a finished run
acked every delivered packet) by the bytes the capacity trace offered
over the session window; effective utilization is the same ratio over the
original bytes of on-time blocks only, so retransmitted copies and late
stragglers do not count. Session QoE is delivery_ratio + alpha *
utilization (the gross one) with alpha weighting efficiency against
timeliness.

QoEReport is the one schema for a run's numbers: its field names are
the keys of the sweep record (runner.summary_record is its to_dict).
build_report scores a finished linksim.Simulation against the trace it
replayed and refuses an unfinished one. One pass over the blocks counts
the on-time ones and the delivered bytes; no per-block object is built.
It reads alpha and the horizon from the run's (checked) RunParams.
The `run` report is those keys plus ``blocks``, one outcome per block,
which ``run_report_json`` adds from the run's blocks.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields

from .errors import ConfigurationError, SimulationInvariantError
from .linksim import RunParams, Simulation


def channel_utilization(received_bytes: float, offered_bytes: float) -> float:
    """Received bytes over offered capacity bytes, clamped to [0, 1]."""
    if offered_bytes <= 0:
        raise SimulationInvariantError("offered_bytes must be positive, got %r" % offered_bytes)
    if received_bytes < 0:
        raise SimulationInvariantError("received_bytes must be non-negative, got %r" % received_bytes)
    return min(1.0, received_bytes / offered_bytes)


def session_qoe(delivery_ratio: float, utilization: float, alpha: float = RunParams.alpha) -> float:
    if not 0.0 <= delivery_ratio <= 1.0:
        raise SimulationInvariantError("delivery_ratio must be in [0, 1], got %r" % delivery_ratio)
    if not 0.0 <= utilization <= 1.0:
        raise SimulationInvariantError("utilization must be in [0, 1], got %r" % utilization)
    if alpha < 0:
        raise SimulationInvariantError("alpha must be non-negative, got %r" % alpha)
    return delivery_ratio + alpha * utilization


@dataclass(frozen=True)
class QoEReport:
    """Per-session metrics; to_dict lists every field under its own name."""

    scenario: str
    trace: str
    scheduler: str
    seed: int
    alpha: float
    block_count: int
    on_time_count: int
    delivery_ratio: float
    utilization: float
    effective_utilization: float
    qoe: float
    delivered_bytes: int
    offered_bytes: float
    end_time: float

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def session_window_end(sim: Simulation) -> float:
    """The session window runs from 0 to the later of the configured
    duration and the last simulated event."""
    return max(sim.params.duration_s, sim.now)


def build_report(sim: Simulation) -> QoEReport:
    """Score a finished run against the trace it replayed."""
    if not sim.finished:
        raise SimulationInvariantError("simulation has not finished; nothing to score")
    if not sim.blocks:
        raise ConfigurationError("run produced no blocks; nothing to score")
    delivered = 0
    on_time_bytes = 0
    on_time_count = 0
    for block in sim.blocks:
        delivered += block.acked_bytes
        if block.on_time:
            on_time_bytes += block.total_bytes
            on_time_count += 1
    offered = sim.trace.integrate_capacity(0.0, session_window_end(sim))
    util = channel_utilization(delivered, offered)
    block_count = len(sim.blocks)
    ratio = on_time_count / block_count
    alpha = sim.params.alpha
    return QoEReport(
        scenario=sim.scenario.name,
        trace=sim.trace.source_tag,
        scheduler=sim.scheduler.name,
        seed=sim.params.seed,
        alpha=alpha,
        block_count=block_count,
        on_time_count=on_time_count,
        delivery_ratio=ratio,
        utilization=util,
        effective_utilization=channel_utilization(on_time_bytes, offered),
        qoe=session_qoe(ratio, util, alpha),
        delivered_bytes=delivered,
        offered_bytes=offered,
        end_time=sim.now,
    )


def run_report_json(sim: Simulation, report: QoEReport) -> str:
    """The `run` report, one JSON object with sorted keys: the report's
    fields plus ``blocks``, one outcome per block in the run's block order
    with block_id, element_id, arrival_time, completion_time, deadline_s,
    total_bytes and the on_time indicator, 0 or 1."""
    blocks = [{
        "block_id": list(block.block_id),
        "element_id": block.element_id,
        "arrival_time": block.arrival_time,
        "completion_time": block.completion_time,
        "deadline_s": block.deadline_s,
        "total_bytes": block.total_bytes,
        "on_time": int(block.on_time),
    } for block in sim.blocks]
    return json.dumps({**report.to_dict(), "blocks": blocks}, sort_keys=True)
