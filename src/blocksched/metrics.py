"""Session quality metrics and the run report.

A block counts as delivered on time when its client-side completion
time F satisfies F - E <= D, with E its arrival at the sender and D its
deadline window. The session delivery ratio averages that indicator
over all blocks. Channel utilization divides bytes the client actually
received by the bytes the capacity trace offered over the session
window; effective utilization is the same ratio over the original bytes
of on-time blocks only, so retransmitted copies and late stragglers do
not count. Session QoE is delivery_ratio + alpha * utilization (the
gross one) with alpha weighting efficiency against timeliness.

QoEReport is the one schema for a run's numbers: its field names are
the keys of the sweep record (runner.summary_record is its to_dict).
build_report counts the on-time blocks and builds no per-block object.
It reads alpha and the horizon from the run's (checked) RunParams.
The `run` report is those keys plus ``blocks``, one outcome per block,
which ``run_report_json`` adds from the run's blocks.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields

from .errors import ConfigurationError
from .linksim import RunParams, SimulationResult
from .traces import LinkTrace


def delivery_indicator(arrival_time: float, completion_time: float | None, deadline_s: float) -> int:
    """1 when the block finished inside its window, else 0."""
    if deadline_s <= 0:
        raise ValueError("deadline_s must be positive, got %r" % deadline_s)
    if completion_time is None:
        return 0
    if completion_time < arrival_time:
        raise ValueError("completion %r precedes arrival %r" % (completion_time, arrival_time))
    return 1 if completion_time - arrival_time <= deadline_s else 0


def channel_utilization(received_bytes: float, offered_bytes: float) -> float:
    """Received bytes over offered capacity bytes, clamped to [0, 1]."""
    if offered_bytes <= 0:
        raise ValueError("offered_bytes must be positive, got %r" % offered_bytes)
    if received_bytes < 0:
        raise ValueError("received_bytes must be non-negative, got %r" % received_bytes)
    return min(1.0, received_bytes / offered_bytes)


def session_qoe(delivery_ratio: float, utilization: float, alpha: float = RunParams.alpha) -> float:
    if not 0.0 <= delivery_ratio <= 1.0:
        raise ValueError("delivery_ratio must be in [0, 1], got %r" % delivery_ratio)
    if not 0.0 <= utilization <= 1.0:
        raise ValueError("utilization must be in [0, 1], got %r" % utilization)
    if alpha < 0:
        raise ValueError("alpha must be non-negative, got %r" % alpha)
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def session_window_end(result: SimulationResult) -> float:
    """The session window runs from 0 to the later of the configured
    duration and the last simulated event."""
    return max(result.params.duration_s, result.end_time)


def build_report(result: SimulationResult, trace: LinkTrace) -> QoEReport:
    if not result.blocks:
        raise ConfigurationError("run produced no blocks; nothing to score")
    on_time_bytes = 0
    on_time_count = 0
    for block in result.blocks:
        # a block that never completed is not on time
        if block.completion_time is not None and delivery_indicator(
                block.arrival_time, block.completion_time, block.deadline_s):
            on_time_bytes += block.total_bytes
            on_time_count += 1
    window_end = session_window_end(result)
    offered = trace.integrate_capacity(0.0, window_end)
    delivered = result.counters["delivered_bytes"]
    util = channel_utilization(delivered, offered)
    block_count = len(result.blocks)
    ratio = on_time_count / block_count
    alpha = result.params.alpha
    return QoEReport(
        scenario=result.scenario_name,
        trace=result.trace_tag,
        scheduler=result.scheduler_name,
        seed=result.params.seed,
        alpha=alpha,
        block_count=block_count,
        on_time_count=on_time_count,
        delivery_ratio=ratio,
        utilization=util,
        effective_utilization=channel_utilization(on_time_bytes, offered),
        qoe=session_qoe(ratio, util, alpha),
        delivered_bytes=delivered,
        offered_bytes=offered,
        end_time=result.end_time,
    )


def run_report_json(result: SimulationResult, report: QoEReport) -> str:
    """The `run` report, one JSON object with sorted keys: the report's
    fields plus ``blocks``, one outcome per block in the run's block order
    with block_id, element_id, arrival_time, completion_time, deadline_s,
    total_bytes and the on_time indicator."""
    blocks = [{
        "block_id": list(block.block_id),
        "element_id": block.element_id,
        "arrival_time": block.arrival_time,
        "completion_time": block.completion_time,
        "deadline_s": block.deadline_s,
        "total_bytes": block.total_bytes,
        "on_time": delivery_indicator(block.arrival_time, block.completion_time,
                                      block.deadline_s),
    } for block in result.blocks]
    return json.dumps({**report.to_dict(), "blocks": blocks}, sort_keys=True)
