"""Trace-driven simulator for deadline- and priority-constrained block
transmission scheduling over bandwidth-limited links."""

__version__ = "0.1.0"
