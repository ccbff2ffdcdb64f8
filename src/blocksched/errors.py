"""Exception types, one per CLI exit code. Input the program refuses (a
scenario, trace, record, threshold or run parameter) exits with code 1;
a state the program must never reach exits with code 2. That covers the
engine, the awaiting queue and the inflight ledger, and also the checks
of ``LinkTrace.capacity_at``, ``integrate_capacity`` and
``time_to_send`` and of the report's ``channel_utilization`` and
``session_qoe``: only the program can hand those a negative instant, a
non-positive byte count or a ratio out of range, since every input is
checked where it is built."""
from __future__ import annotations


class ConfigurationError(Exception):
    """Invalid input; a malformed trace's message names the offending line."""


class SimulationInvariantError(RuntimeError):
    """The program reached a state it must never reach."""
