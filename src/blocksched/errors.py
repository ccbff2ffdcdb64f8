"""Exception types. Configuration problems exit the CLI with code 1;
simulation invariant violations, and IllegalStateError raised during a
run (an object reached in the wrong lifecycle state), exit with code 2."""
from __future__ import annotations


class ConfigurationError(Exception):
    """Invalid scenario, trace, threshold, or run parameters."""


class TraceParseError(ConfigurationError):
    """Malformed trace input; message names the offending line."""


class DuplicateBlockError(ConfigurationError):
    """A block id was enqueued twice."""


class IllegalStateError(RuntimeError):
    """An operation ran against an object in the wrong lifecycle state."""


class SimulationInvariantError(RuntimeError):
    """The event loop or bookkeeping reached a provably wrong state."""
