"""Exception types, one per CLI exit code. Input the program refuses (a
scenario, trace, record, threshold or run parameter) exits with code 1;
a state the program must never reach, whether in the engine, the
awaiting queue, the inflight ledger or the scoring of a run, exits with
code 2."""
from __future__ import annotations


class ConfigurationError(Exception):
    """Invalid input; a malformed trace's message names the offending line."""


class SimulationInvariantError(RuntimeError):
    """The program reached a state it must never reach."""
