"""Sender-side bandwidth estimation from packet timings.

One estimator drives the scheduler. The engine tells it of every send
and of every acknowledgement or loss signal, and it holds each packet in
its inflight ledger from send to response. A response's sample is the
bytes of every packet sent inside the response window, from the packet's
send to its response and its own bytes included, over the window width,
which averages over roughly one round trip.

The inflight ledger keeps a running byte total and relies on send order:
entries are added in nondecreasing send time (a retransmission is removed
and re-added at its new send time), so the entries sent before a window
form a prefix of the ledger's send-order queue and the window sum is the
total minus that prefix. Every earlier packet's response is due no later
than the current one's, so the prefix is almost always empty and the
estimate costs O(1) per response.

The estimate drives regime classification against two thresholds L < H
(configured in Mbps): below L the link is scarce, above H it is
plentiful, in between it is moderate. The scheduler switches comparison
keys per regime.
"""
from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass

from .errors import ConfigurationError, SimulationInvariantError
from .units import bytes_per_s_to_mbps, mbps_to_bytes_per_s


class Regime(enum.IntEnum):
    LOW = 0
    MID = 1
    HIGH = 2


# bound once: reading an enum member is several times slower than a global
_LOW, _MID, _HIGH = Regime.LOW, Regime.MID, Regime.HIGH


@dataclass(frozen=True)
class Thresholds:
    """Regime boundaries in bytes/s; build from Mbps via from_mbps."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0 < self.low < self.high:
            raise ConfigurationError("need 0 < low < high, got %g, %g Mbps"
                                     % (bytes_per_s_to_mbps(self.low), bytes_per_s_to_mbps(self.high)))

    @classmethod
    def from_mbps(cls, low_mbps: float, high_mbps: float) -> "Thresholds":
        return cls(low=mbps_to_bytes_per_s(low_mbps), high=mbps_to_bytes_per_s(high_mbps))


class InflightLedger:
    """Bytes currently on the wire, keyed by packet, with send times.

    A key is any hashable that names one packet: the engine's packets hash
    by identity. A key is inflight at most once and send times must be
    added in nondecreasing order (``add`` raises ``SimulationInvariantError``
    otherwise, and ``remove`` and ``send_time`` for a key not inflight), so
    appending keeps the entries in send order; ``total_bytes`` is the
    running sum of the inflight sizes.
    """

    def __init__(self) -> None:
        self._entries: dict = {}  # key -> (key, size, send time)
        # the same entry tuples in send order; an entry removed out of order
        # stays until every older one has left, and is live only while
        # _entries still maps its key to that very tuple
        self._order: deque = deque()
        self._stale = 0  # entries removed out of order that are still in _order
        self._total = 0
        self._last_send = -math.inf

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    @property
    def total_bytes(self) -> int:
        return self._total

    def add(self, key, size_bytes: int, send_time: float) -> None:
        if key in self._entries:
            raise SimulationInvariantError("packet %r already inflight" % (key,))
        if send_time < self._last_send:
            raise SimulationInvariantError("send time %r is earlier than the previous send at %r"
                                           % (send_time, self._last_send))
        entry = (key, size_bytes, send_time)
        self._entries[key] = entry
        self._order.append(entry)
        self._total += size_bytes
        self._last_send = send_time

    def remove(self, key) -> None:
        entries = self._entries
        try:
            entry = entries.pop(key)
        except KeyError:
            raise SimulationInvariantError("packet %r is not inflight" % (key,)) from None
        self._total -= entry[1]
        order = self._order
        if order[0] is not entry:
            # out of order: the entry stays, stale, until every older one has
            # left; the head of _order is always live
            self._stale += 1
            return
        order.popleft()
        # the usual case, responses in send order, leaves no stale entry, so
        # the prefix walk (and its hashing of keys) is skipped
        while self._stale and entries.get(order[0][0]) is not order[0]:
            order.popleft()
            self._stale -= 1

    def send_time(self, key) -> float:
        try:
            return self._entries[key][2]
        except KeyError:
            raise SimulationInvariantError("packet %r is not inflight" % (key,)) from None

    def bytes_sent_since(self, window_start: float) -> int:
        """Total inflight bytes whose send time falls at or after window_start."""
        entries = self._entries
        total = self._total
        for entry in self._order:
            key, size, sent = entry
            if sent >= window_start:
                break
            if entries.get(key) is entry:
                total -= size
        return total


def classify_regime(throughput: float, thresholds: Thresholds) -> Regime:
    if throughput < thresholds.low:
        return _LOW
    if throughput > thresholds.high:
        return _HIGH
    return _MID


class BandwidthPredictor:
    """The smoothed estimate, taken from its own inflight ledger.

    Until the first sample the estimate defaults to the low threshold, a
    deliberately conservative starting point. ``regime`` is its class; it
    is an attribute that changes together with ``smoothed``, classified
    once per response rather than at every read.
    """

    def __init__(self, thresholds: Thresholds) -> None:
        self.thresholds = thresholds
        self.ledger = InflightLedger()
        self.smoothed = thresholds.low
        self.regime = classify_regime(self.smoothed, thresholds)

    def on_send(self, packet, size_bytes: int, send_time: float) -> None:
        self.ledger.add(packet, size_bytes, send_time)

    def on_response(self, packet, response_time: float) -> float:
        """Sample packet's response window, its own bytes counted, into the
        estimate and its regime, then take packet off the ledger."""
        send_time = self.ledger.send_time(packet)
        width = response_time - send_time
        if width <= 0:
            # a response comes a fixed round trip after its send, and
            # linksim.Simulation refuses an RTT lost in rounding at its
            # latest send, so no run reaches this
            raise SimulationInvariantError(
                "response window [%r, %r] has non-positive width" % (send_time, response_time))
        sample = self.ledger.bytes_sent_since(send_time) / width
        self.ledger.remove(packet)
        self.smoothed = sample
        self.regime = classify_regime(sample, self.thresholds)
        return sample
