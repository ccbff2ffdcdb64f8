"""Sender-side bandwidth estimation from packet timings.

Two estimators run side by side. The instantaneous estimator divides a
packet's size by its sending latency, the gap between entering the
selection queue and actually leaving the sender; it reacts fast but is
noisy. The smoothed estimator waits for a packet's acknowledgement or
loss signal and divides the bytes of every packet sent inside the
response window by the window width, which averages over roughly one
round trip.

The inflight ledger keeps a running byte total and relies on send order:
entries are added in nondecreasing send time (a retransmission is removed
and re-added at its new send time), so the entries sent before a window
form a prefix of the ledger's send-order queue and the window sum is the
total minus that prefix. Every earlier packet's response is due no later
than the current one's, so the prefix is almost always empty and the
smoothed estimate costs O(1) per response. ``InflightLedger.add``
rejects an out-of-order send time.

The smoothed estimate drives regime classification against two
thresholds L < H (configured in Mbps): below L the link is scarce, above
H it is plentiful, in between it is moderate. The scheduler switches
comparison keys per regime. The instantaneous estimate is kept for
logging and diagnostics.
"""
from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass

from .errors import ConfigurationError, DegenerateIntervalError, DegenerateLatencyError
from .units import mbps_to_bytes_per_s


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
            raise ConfigurationError("need 0 < low < high, got %r, %r" % (self.low, self.high))

    @classmethod
    def from_mbps(cls, low_mbps: float, high_mbps: float) -> "Thresholds":
        return cls(low=mbps_to_bytes_per_s(low_mbps), high=mbps_to_bytes_per_s(high_mbps))


def instantaneous_throughput(size_bytes: float, enqueue_time: float, send_time: float) -> float:
    """Packet size over sending latency; zero latency carries no signal."""
    if size_bytes < 0:
        raise ValueError("size_bytes must be non-negative, got %r" % size_bytes)
    latency = send_time - enqueue_time
    if latency <= 0:
        raise DegenerateLatencyError(
            "sending latency %r is not positive (enqueue %r, send %r)" % (latency, enqueue_time, send_time)
        )
    return size_bytes / latency


class InflightLedger:
    """Bytes currently on the wire, keyed by packet id, with send times.

    Entries are added when a packet leaves the sender and removed when its
    acknowledgement or loss signal returns. Send times must be added in
    nondecreasing order (``add`` raises ``ValueError`` otherwise), so
    appending keeps the entries in send order; ``total_bytes`` is the
    running sum of the inflight sizes.
    """

    def __init__(self) -> None:
        self._entries: dict = {}  # packet id -> (packet id, size, send time)
        # the same entry tuples in send order; an entry removed out of order
        # stays until every older one has left, and is live only while
        # _entries still maps its id to that very tuple
        self._order: deque = deque()
        self._total = 0
        self._last_send = -math.inf

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, packet_id) -> bool:
        return packet_id in self._entries

    @property
    def total_bytes(self) -> int:
        return self._total

    def add(self, packet_id, size_bytes: int, send_time: float) -> None:
        if packet_id in self._entries:
            raise KeyError("packet %r already inflight" % (packet_id,))
        if send_time < self._last_send:
            raise ValueError("send time %r is earlier than the previous send at %r"
                             % (send_time, self._last_send))
        entry = (packet_id, size_bytes, send_time)
        self._entries[packet_id] = entry
        self._order.append(entry)
        self._total += size_bytes
        self._last_send = send_time

    def remove(self, packet_id) -> None:
        entries = self._entries
        self._total -= entries.pop(packet_id)[1]
        order = self._order
        while order and entries.get(order[0][0]) is not order[0]:
            order.popleft()

    def bytes_sent_since(self, window_start: float) -> int:
        """Total inflight bytes whose send time falls at or after window_start."""
        entries = self._entries
        total = self._total
        for entry in self._order:
            packet_id, size, sent = entry
            if sent >= window_start:
                break
            if entries.get(packet_id) is entry:
                total -= size
        return total


def smoothed_throughput(ledger: InflightLedger, window_start: float, window_end: float) -> float:
    """Inflight bytes sent within [window_start, window_end] over the window
    width. Call before removing the packet whose response defined the
    window, so its own bytes count."""
    width = window_end - window_start
    if width <= 0:
        raise DegenerateIntervalError(
            "response window [%r, %r] has non-positive width" % (window_start, window_end)
        )
    return ledger.bytes_sent_since(window_start) / width


def classify_regime(throughput: float, thresholds: Thresholds) -> Regime:
    if throughput < thresholds.low:
        return _LOW
    if throughput > thresholds.high:
        return _HIGH
    return _MID


class BandwidthPredictor:
    """Stateful wrapper the simulation feeds send and response events.

    Until the first sample each estimate defaults to the low threshold, a
    deliberately conservative starting point. ``regime`` is the smoothed
    estimate's class; it is an attribute that changes together with
    ``smoothed``, classified once per response rather than at every read.
    """

    def __init__(self, thresholds: Thresholds) -> None:
        self.thresholds = thresholds
        self.instantaneous = thresholds.low
        self.smoothed = thresholds.low
        self.regime = classify_regime(self.smoothed, thresholds)

    def observe_send(self, size_bytes: int, enqueue_time: float, send_time: float) -> float | None:
        """Update the instantaneous estimate; returns the new sample, or
        None when the latency was degenerate and the old estimate stands."""
        try:
            sample = instantaneous_throughput(size_bytes, enqueue_time, send_time)
        except DegenerateLatencyError:
            return None
        self.instantaneous = sample
        return sample

    def observe_response(self, ledger: InflightLedger, send_time: float, response_time: float) -> float:
        """Update the smoothed estimate and its regime from one
        acknowledgement or loss signal; the measured packet must still be
        in the ledger."""
        sample = smoothed_throughput(ledger, send_time, response_time)
        self.smoothed = sample
        self.regime = classify_regime(sample, self.thresholds)
        return sample
