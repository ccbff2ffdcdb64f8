"""Link capacity traces: parsing, filtering, synthesis, and integration.

Two on-disk formats are supported.

Packet-opportunity format: one integer millisecond timestamp per line,
non-decreasing; each line is one delivery opportunity for a single
MTU payload. Parsing buckets opportunities into fixed windows and turns
counts into a piecewise-constant capacity in bytes per second.

CSV format: ``timestamp_s,throughput_mbps`` rows with strictly increasing
timestamps starting at 0.

Internally a trace is a piecewise-constant capacity function of time in
bytes per second. Traces loop when a simulation runs longer than the
trace duration.
"""
from __future__ import annotations

import math
import os
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .errors import ConfigurationError, SimulationInvariantError, TraceParseError
from .units import BYTES_PER_S_PER_MBPS, PACKET_PAYLOAD_BYTES, mbps_to_bytes_per_s

# Corpus eligibility: keep challenged-but-usable links only.
FILTER_MEAN_MBPS_MAX = 3.0
FILTER_MIN_MBPS_FLOOR = 0.2


@dataclass
class LinkTrace:
    """Piecewise-constant link capacity; sample i holds from its timestamp
    until the next sample (the last one until ``duration_s``)."""

    samples: tuple[tuple[float, float], ...]  # (start_s, capacity_bytes_per_s)
    duration_s: float
    source_tag: str = ""
    _starts: list[float] = field(init=False, repr=False)
    _prefix: list[float] = field(init=False, repr=False)  # cumulative bytes at segment starts

    def __post_init__(self) -> None:
        if not self.samples:
            raise ConfigurationError("trace %r has no samples" % self.source_tag)
        if self.samples[0][0] != 0.0:
            raise ConfigurationError(
                "trace %r must start at t=0, got %r" % (self.source_tag, self.samples[0][0])
            )
        last = -1.0
        for t, c in self.samples:
            if t <= last:
                raise ConfigurationError("trace %r timestamps must strictly increase" % self.source_tag)
            if not (math.isfinite(t) and math.isfinite(c)) or c < 0:
                raise ConfigurationError("trace %r has invalid sample (%r, %r)" % (self.source_tag, t, c))
            last = t
        if self.duration_s <= self.samples[-1][0]:
            raise ConfigurationError(
                "trace %r duration %r does not cover its last sample" % (self.source_tag, self.duration_s)
            )
        self._starts = [t for t, _ in self.samples]
        prefix = [0.0]
        for i, (t, c) in enumerate(self.samples):
            end = self.samples[i + 1][0] if i + 1 < len(self.samples) else self.duration_s
            prefix.append(prefix[-1] + c * (end - t))
        if prefix[-1] <= 0:
            raise ConfigurationError(
                "trace %r carries zero bytes per loop, so no packet could ever be sent"
                % self.source_tag)
        self._prefix = prefix

    @property
    def bytes_per_loop(self) -> float:
        return self._prefix[-1]

    def capacity_at(self, time_s: float) -> float:
        """Capacity in bytes/s at an instant, with the trace looping."""
        if time_s < 0:
            raise ValueError("time_s must be non-negative, got %r" % time_s)
        time_s = time_s % self.duration_s
        idx = bisect_right(self._starts, time_s) - 1
        return self.samples[idx][1]

    def _absolute_prefix(self, time_s: float) -> float:
        """Cumulative bytes from 0 to time_s, with the trace looping."""
        prefix = self._prefix
        loops, offset = divmod(time_s, self.duration_s)
        idx = bisect_right(self._starts, offset) - 1
        if idx < 0:
            within = 0.0
        else:
            t, c = self.samples[idx]
            within = prefix[idx] + c * (offset - t)
        return loops * prefix[-1] + within

    def integrate_capacity(self, t0: float, t1: float) -> float:
        """Bytes the link can carry over [t0, t1), with the trace looping."""
        if t0 < 0 or t1 < t0:
            raise ValueError("invalid window [%r, %r)" % (t0, t1))
        return self._absolute_prefix(t1) - self._absolute_prefix(t0)

    def time_to_send(self, start_s: float, nbytes: float) -> float:
        """Earliest time by which nbytes fit onto the link starting at
        start_s, with the trace looping. Construction rejects a trace whose
        whole loop carries zero bytes; one that got here anyway could never
        make progress, which is a fatal simulation state."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive, got %r" % nbytes)
        if start_s < 0:
            raise ValueError("start_s must be non-negative, got %r" % start_s)
        base = self._prefix[-1]  # bytes_per_loop
        if base <= 0:
            raise SimulationInvariantError(
                "trace %r carries zero bytes per loop, transmission cannot finish" % self.source_tag
            )
        target = self._absolute_prefix(start_s) + nbytes
        loops = math.floor(target / base)
        rem = target - loops * base
        # land exactly on a loop boundary
        if rem <= 0:
            loops -= 1
            rem = base
        # first segment whose end-prefix reaches rem (_prefix never
        # decreases); the upper bound keeps idx on the trace when rounding
        # leaves rem a hair above bytes_per_loop
        idx = bisect_left(self._prefix, rem, 1, len(self.samples)) - 1
        t, c = self.samples[idx]
        if c <= 0:
            # only the bounded case with a zero-capacity last segment: the
            # loop's bytes were all carried by this segment's start
            end = t
        else:
            end = t + (rem - self._prefix[idx]) / c
        result = loops * self.duration_s + end
        # float guard: never finish before the transmission started
        return result if result > start_s else math.nextafter(start_s, math.inf)

    def mean_throughput(self) -> float:
        """Time-weighted mean capacity in bytes/s."""
        return self.bytes_per_loop / self.duration_s

    def min_throughput(self) -> float:
        return min(c for _, c in self.samples)

    def to_csv_lines(self) -> list[str]:
        return ["%s,%s" % (repr(t), _mbps_text_for(c)) for t, c in self.samples]

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("\n".join(self.to_csv_lines()))
            fh.write("\n")


def _mbps_text_for(capacity_bytes_per_s: float) -> str:
    """Shortest Mbps literal that parses back to exactly this capacity."""
    m = capacity_bytes_per_s / BYTES_PER_S_PER_MBPS
    if m * BYTES_PER_S_PER_MBPS != capacity_bytes_per_s:
        for _ in range(4):
            up = math.nextafter(m, math.inf)
            if up * BYTES_PER_S_PER_MBPS == capacity_bytes_per_s:
                return repr(up)
            down = math.nextafter(m, -math.inf)
            if down * BYTES_PER_S_PER_MBPS == capacity_bytes_per_s:
                return repr(down)
            m = up if abs(up * BYTES_PER_S_PER_MBPS - capacity_bytes_per_s) < abs(
                down * BYTES_PER_S_PER_MBPS - capacity_bytes_per_s) else down
        m = capacity_bytes_per_s / BYTES_PER_S_PER_MBPS
    return repr(m)


def parse_csv_trace(lines, source_tag: str = "csv") -> LinkTrace:
    samples: list[tuple[float, float]] = []
    last_t: float | None = None
    gap = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if not samples and "timestamp" in line.lower():
            continue  # optional header row
        parts = line.split(",")
        if len(parts) != 2:
            raise TraceParseError("%s line %d: expected 'timestamp_s,throughput_mbps', got %r"
                                  % (source_tag, lineno, line))
        try:
            t = float(parts[0])
            mbps = float(parts[1])
        except ValueError:
            raise TraceParseError("%s line %d: non-numeric field in %r" % (source_tag, lineno, line)) from None
        if mbps < 0 or not math.isfinite(mbps) or not math.isfinite(t):
            raise TraceParseError("%s line %d: invalid value in %r" % (source_tag, lineno, line))
        if last_t is None:
            if t != 0.0:
                raise TraceParseError("%s line %d: first timestamp must be 0, got %r" % (source_tag, lineno, t))
        elif t <= last_t:
            raise TraceParseError("%s line %d: timestamp %r does not increase past %r"
                                  % (source_tag, lineno, t, last_t))
        if last_t is not None:
            gap = t - last_t
        samples.append((t, mbps_to_bytes_per_s(mbps)))
        last_t = t
    if not samples:
        raise TraceParseError("%s: no samples found" % source_tag)
    duration = samples[-1][0] + (gap if gap is not None else 1.0)
    return LinkTrace(samples=tuple(samples), duration_s=duration, source_tag=source_tag)


def parse_packet_opportunity_trace(lines, bucket_s: float = 1.0,
                                   source_tag: str = "opportunity") -> LinkTrace:
    """Bucket millisecond delivery opportunities, one full packet payload
    each, into a capacity trace."""
    if bucket_s <= 0:
        raise ConfigurationError("bucket_s must be positive, got %r" % bucket_s)
    stamps_ms: list[int] = []
    last = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            ms = int(line)
        except ValueError:
            raise TraceParseError("%s line %d: expected integer milliseconds, got %r"
                                  % (source_tag, lineno, line)) from None
        if ms < 0:
            raise TraceParseError("%s line %d: negative timestamp %d" % (source_tag, lineno, ms))
        if last is not None and ms < last:
            raise TraceParseError("%s line %d: timestamp %d decreases below %d"
                                  % (source_tag, lineno, ms, last))
        stamps_ms.append(ms)
        last = ms
    if not stamps_ms:
        raise TraceParseError("%s: no opportunities found" % source_tag)
    bucket_ms = bucket_s * 1000.0
    nbuckets = int(stamps_ms[-1] // bucket_ms) + 1
    counts = [0] * nbuckets
    for ms in stamps_ms:
        counts[int(ms // bucket_ms)] += 1
    samples = tuple((i * bucket_s, count * PACKET_PAYLOAD_BYTES / bucket_s) for i, count in enumerate(counts))
    return LinkTrace(samples=samples, duration_s=nbuckets * bucket_s, source_tag=source_tag)


def load_trace(path: str, fmt: str | None = None, bucket_s: float = 1.0) -> LinkTrace:
    """Read a trace file; format is sniffed from the extension unless given
    ('csv' or 'opportunity')."""
    if fmt is None:
        fmt = "csv" if path.endswith(".csv") else "opportunity"
    if fmt not in ("csv", "opportunity"):
        raise ConfigurationError("unknown trace format %r" % fmt)
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigurationError("cannot read trace file %s: %s" % (path, exc)) from exc
    if fmt == "csv":
        return parse_csv_trace(lines, source_tag=path)
    return parse_packet_opportunity_trace(lines, bucket_s=bucket_s, source_tag=path)


def load_corpus(corpus_dir: str, fmt: str | None = None) -> list[LinkTrace]:
    """Load every non-hidden file in a directory as a trace, in name order."""
    try:
        names = sorted(os.listdir(corpus_dir))
    except OSError as exc:
        raise ConfigurationError("cannot list corpus dir %s: %s" % (corpus_dir, exc)) from exc
    paths = [os.path.join(corpus_dir, n) for n in names if not n.startswith(".")]
    traces = [load_trace(p, fmt) for p in paths if os.path.isfile(p)]
    if not traces:
        raise ConfigurationError("no trace files under %s" % corpus_dir)
    return traces


def trace_passes_filter(trace: LinkTrace) -> bool:
    """Keep traces whose mean stays under 3 Mbps and whose minimum stays
    strictly above 0.2 Mbps."""
    return (trace.mean_throughput() < mbps_to_bytes_per_s(FILTER_MEAN_MBPS_MAX)
            and trace.min_throughput() > mbps_to_bytes_per_s(FILTER_MIN_MBPS_FLOOR))


def filter_corpus(traces) -> list[LinkTrace]:
    return [t for t in traces if trace_passes_filter(t)]


def split_corpus(traces, train_fraction: float = 0.8, seed: int = 0):
    """Deterministic shuffled split; train gets floor(n * fraction)."""
    if not 0.0 <= train_fraction <= 1.0:
        raise ConfigurationError("train_fraction must be in [0, 1], got %r" % train_fraction)
    shuffled = list(traces)
    random.Random(seed).shuffle(shuffled)
    n_train = math.floor(len(shuffled) * train_fraction)
    return shuffled[:n_train], shuffled[n_train:]


def synthesize_trace(kind: str, duration_s: float, seed: int = 0, sample_s: float = 1.0,
                     source_tag: str | None = None, **params) -> LinkTrace:
    """Generate a synthetic capacity trace.

    kinds and their parameters (all rates in Mbps):
      constant:    mbps
      square_wave: low_mbps, high_mbps, period_s (starts low)
      ramp:        start_mbps, end_mbps (linear over the duration)
    Optional jitter_mbps adds seeded uniform noise, clamped at zero.
    """
    if sample_s <= 0 or duration_s < sample_s:
        raise ConfigurationError("need duration_s >= sample_s > 0, got %r, %r" % (duration_s, sample_s))
    jitter = float(params.pop("jitter_mbps", 0.0))
    if jitter < 0:
        raise ConfigurationError("jitter_mbps must be non-negative")
    n = int(round(duration_s / sample_s))
    times = [i * sample_s for i in range(n)]
    if kind == "constant":
        try:
            mbps = float(params.pop("mbps"))
        except KeyError:
            raise ConfigurationError("constant trace needs mbps=") from None
        values = [mbps] * n
    elif kind == "square_wave":
        try:
            low = float(params.pop("low_mbps"))
            high = float(params.pop("high_mbps"))
            period = float(params.pop("period_s"))
        except KeyError as exc:
            raise ConfigurationError("square_wave trace needs low_mbps=, high_mbps=, period_s= (%s missing)" % exc) from None
        if period <= 0:
            raise ConfigurationError("period_s must be positive")
        values = [low if (t % period) < period / 2 else high for t in times]
    elif kind == "ramp":
        try:
            start = float(params.pop("start_mbps"))
            end = float(params.pop("end_mbps"))
        except KeyError as exc:
            raise ConfigurationError("ramp trace needs start_mbps=, end_mbps= (%s missing)" % exc) from None
        span = duration_s - sample_s
        values = [start + (end - start) * (t / span if span > 0 else 0.0) for t in times]
    else:
        raise ConfigurationError("unknown trace kind %r" % kind)
    if params:
        raise ConfigurationError("unused parameters for kind %r: %s" % (kind, sorted(params)))
    if any(v < 0 for v in values):
        raise ConfigurationError("synthesized rates must be non-negative")
    if jitter:
        rng = random.Random(seed)
        values = [max(0.0, v + rng.uniform(-jitter, jitter)) for v in values]
    samples = tuple((t, mbps_to_bytes_per_s(v)) for t, v in zip(times, values))
    tag = source_tag if source_tag is not None else "synth-%s-%d" % (kind, seed)
    return LinkTrace(samples=samples, duration_s=n * sample_s, source_tag=tag)

