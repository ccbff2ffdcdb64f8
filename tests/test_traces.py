"""Trace parsing, filtering, splitting, synthesis, and integration."""
from __future__ import annotations

import math
import os

import pytest
from hypothesis import given, strategies as st

from blocksched.errors import ConfigurationError, SimulationInvariantError
from blocksched.traces import (
    LinkTrace,
    filter_corpus,
    load_trace,
    parse_csv_trace,
    MAX_OPPORTUNITY_BUCKETS,
    parse_packet_opportunity_trace,
    split_corpus,
    synthesize_trace,
    trace_passes_filter,
)
from blocksched.units import mbps_to_bytes_per_s

from conftest import CORPUS_DIR


def mk(samples, duration, tag="t"):
    return LinkTrace(samples=tuple(samples), duration_s=duration, source_tag=tag)


def walk_time_to_send(samples, duration, start, nbytes):
    """When nbytes have fit onto the looping trace from start, found by
    walking its segments one at a time."""
    ends = [t for t, _ in samples[1:]] + [duration]
    remaining = nbytes
    base = math.floor(start / duration) * duration
    while True:
        for (t, capacity), end in zip(samples, ends):
            seg_end = base + end
            if seg_end <= start or capacity == 0:
                continue
            begin = max(start, base + t)
            carried = capacity * (seg_end - begin)
            if carried >= remaining:
                return begin + remaining / capacity
            remaining -= carried
        base += duration


class TestOpportunityParsing:
    def test_uniform_667_opportunities_in_one_second(self):
        lines = [str(int(i * 1000 / 667)) for i in range(667)]
        trace = parse_packet_opportunity_trace(lines)
        assert len(trace.samples) == 1
        assert trace.duration_s == 1.0
        assert trace.samples[0] == (0.0, 667 * 1500.0)
        # about 8 Mbps
        assert abs(trace.samples[0][1] - mbps_to_bytes_per_s(8.004)) < 1.0

    def test_single_zero_timestamp(self):
        trace = parse_packet_opportunity_trace(["0"])
        assert trace.samples == ((0.0, 1500.0),)
        assert trace.duration_s == 1.0

    def test_empty_buckets_get_zero_capacity(self):
        trace = parse_packet_opportunity_trace(["0", "2500"])
        assert [c for _, c in trace.samples] == [1500.0, 0.0, 1500.0]
        assert trace.duration_s == 3.0

    def test_non_integer_line_names_line_number(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            parse_packet_opportunity_trace(["10", "12ab"])

    def test_decreasing_timestamp_names_line_number(self):
        with pytest.raises(ConfigurationError, match="line 3"):
            parse_packet_opportunity_trace(["5", "10", "7"])

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ConfigurationError, match="line 1"):
            parse_packet_opportunity_trace(["-4"])

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigurationError, match="no opportunities found"):
            parse_packet_opportunity_trace([])

    @pytest.mark.parametrize("bucket_s", [1.0, 0.25])
    def test_stamp_needing_more_buckets_than_the_limit_rejected(self, bucket_s):
        # the first stamp past the limit is refused before any bucket is made
        limit_ms = int(MAX_OPPORTUNITY_BUCKETS * bucket_s * 1000)
        with pytest.raises(ConfigurationError, match="line 2: timestamp past the limit"):
            parse_packet_opportunity_trace(["0", str(limit_ms)], bucket_s=bucket_s)

    @pytest.mark.parametrize("bucket_s", [math.nan, math.inf, 0.0, -1.0])
    def test_bucket_width_must_be_positive_and_finite(self, bucket_s):
        # NaN and inf pass a plain `<= 0` check, then fail later with an
        # error that does not name the width
        with pytest.raises(ConfigurationError,
                           match="bucket_s must be positive and finite, got %r" % bucket_s):
            parse_packet_opportunity_trace(["0", "500"], bucket_s=bucket_s)

    def test_blank_lines_skipped(self):
        trace = parse_packet_opportunity_trace(["0", "", "  ", "500"])
        assert trace.samples[0][1] == 3000.0


class TestCsvParsing:
    def test_basic(self):
        trace = parse_csv_trace(["0,1.5", "1,0.5"])
        assert trace.samples == ((0.0, mbps_to_bytes_per_s(1.5)), (1.0, mbps_to_bytes_per_s(0.5)))
        assert trace.duration_s == 2.0

    def test_optional_header_skipped(self):
        trace = parse_csv_trace(["timestamp_s,throughput_mbps", "0,1.0"])
        assert len(trace.samples) == 1

    def test_single_sample_duration_is_one_second(self):
        trace = parse_csv_trace(["0,2.0"])
        assert trace.duration_s == 1.0

    def test_final_gap_extends_duration(self):
        trace = parse_csv_trace(["0,1.0", "2,1.0", "6,1.0"])
        assert trace.duration_s == 10.0

    @pytest.mark.parametrize("lines,lineno", [
        (["0,abc"], 1),
        (["0,1.0", "1"], 2),
        (["0,1.0", "0.5,-2"], 2),
        (["1,1.0"], 1),
        (["0,1.0", "0,2.0"], 2),
    ])
    def test_malformed_rows_name_line(self, lines, lineno):
        with pytest.raises(ConfigurationError, match="line %d" % lineno):
            parse_csv_trace(lines)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError, match="no samples found"):
            parse_csv_trace([])


class TestSerializationRoundTrip:
    def test_csv_parse_serialize_parse_is_identity(self):
        original = parse_csv_trace(["0,0.3", "1,2.3", "2,1.7", "3,0.25"])
        again = parse_csv_trace(original.to_csv_lines())
        assert again.samples == original.samples
        assert again.duration_s == original.duration_s

    def test_opportunity_trace_survives_csv_round_trip(self):
        original = parse_packet_opportunity_trace([str(v) for v in (0, 100, 2100, 2200, 2300)])
        again = parse_csv_trace(original.to_csv_lines())
        assert again.samples == original.samples

    @given(st.lists(st.sampled_from([0.25, 0.3, 0.5, 0.8, 1.0, 1.5, 2.3, 2.5, 2.8, 3.0, 7.125]),
                    min_size=1, max_size=8))
    def test_round_trip_for_common_rates(self, rates):
        lines = ["%d,%r" % (i, r) for i, r in enumerate(rates)]
        original = parse_csv_trace(lines)
        again = parse_csv_trace(original.to_csv_lines())
        assert again.samples == original.samples

    def test_opportunity_capacities_round_trip_for_all_counts(self):
        # every per-second packet count a 20 ms-spaced trace could produce
        for count in (1, 3, 7, 50, 123, 667, 1000, 2083):
            trace = mk([(0.0, count * 1500.0)], 1.0)
            again = parse_csv_trace(trace.to_csv_lines())
            assert again.samples == trace.samples, count


class TestCapacityLookupAndIntegration:
    def test_piecewise_lookup(self):
        trace = mk([(0.0, mbps_to_bytes_per_s(2.0)), (1.0, mbps_to_bytes_per_s(0.5))], 2.0)
        assert trace.capacity_at(0.5) == mbps_to_bytes_per_s(2.0)
        assert trace.capacity_at(1.5) == mbps_to_bytes_per_s(0.5)

    def test_lookup_loops_past_duration(self):
        trace = mk([(0.0, 100.0), (1.0, 300.0)], 2.0)
        assert trace.capacity_at(2.5) == 100.0
        assert trace.capacity_at(3.5) == 300.0

    def test_negative_time_rejected(self):
        trace = mk([(0.0, 100.0)], 1.0)
        with pytest.raises(SimulationInvariantError, match="time_s must be non-negative"):
            trace.capacity_at(-0.1)

    def test_integration_constant(self):
        trace = mk([(0.0, 1000.0)], 1.0)
        assert trace.integrate_capacity(0.0, 0.25) == 250.0
        assert trace.integrate_capacity(0.0, 3.0) == pytest.approx(3000.0)

    def test_integration_piecewise_across_loop(self):
        trace = mk([(0.0, 1000.0), (1.0, 3000.0)], 2.0)
        # half of the slow second, the fast second, half of the next slow second
        assert trace.integrate_capacity(0.5, 2.5) == pytest.approx(500 + 3000 + 500)

    @given(start=st.floats(min_value=0.0, max_value=10.0),
           width=st.floats(min_value=0.0, max_value=10.0))
    def test_integration_is_additive(self, start, width):
        trace = mk([(0.0, 1000.0), (0.7, 0.0), (1.3, 2500.0)], 2.0)
        mid = start + width / 2
        end = start + width
        total = trace.integrate_capacity(start, end)
        split = trace.integrate_capacity(start, mid) + trace.integrate_capacity(mid, end)
        assert total == pytest.approx(split, abs=1e-6)

    def test_time_to_send_matches_integration(self):
        trace = mk([(0.0, 1000.0), (0.7, 0.0), (1.3, 2500.0)], 2.0)
        for start, nbytes in ((0.0, 500), (0.5, 400), (0.69, 10), (1.0, 2000), (3.1, 700)):
            end = trace.time_to_send(start, nbytes)
            assert end > start
            assert trace.integrate_capacity(start, end) == pytest.approx(nbytes, rel=1e-9)

    def test_time_to_send_skips_zero_capacity_segment(self):
        trace = mk([(0.0, 1000.0), (0.5, 0.0), (1.0, 1000.0)], 2.0)
        # 600 bytes starting at 0: 500 by t=0.5, stall, finish at 1.1
        assert trace.time_to_send(0.0, 600) == pytest.approx(1.1)

    def test_time_to_send_ending_exactly_on_a_loop_boundary(self):
        # 500 B is the whole loop's bytes, all carried by t = 0.5, so the
        # send ends there and not at the start of the next loop (t = 1.0)
        trace = mk([(0.0, 1000.0), (0.5, 0.0)], 1.0)
        assert trace.time_to_send(0.0, 500) == 0.5

    def test_time_to_send_when_rounding_leaves_more_than_a_loop(self):
        # floor(target / base) undercounts by one loop here, so the bytes
        # left for the last loop exceed one loop's bytes by about 2e-5 B;
        # the segment search must still stay inside the trace
        base = 2931285.0810336256
        nbytes = 2490583956810.706
        trace = mk([(0.0, base)], 1.0)
        assert trace.time_to_send(0.0, nbytes) == pytest.approx(nbytes / base, rel=1e-12)

    @given(data=st.data(),
           segments=st.lists(st.tuples(st.integers(1, 8),
                                       st.one_of(st.just(0), st.integers(4, 10**6))),
                             min_size=1, max_size=6).filter(
               lambda segs: any(c > 0 for _, c in segs)))
    def test_time_to_send_matches_a_segment_walk(self, data, segments):
        # quarter-second widths and whole-byte rates (at least 4 B/s, so a
        # loop carries at least 1 B) keep every prefix sum exact, so sizes
        # can land exactly on a segment boundary, including one where a
        # zero-capacity stall begins
        samples = []
        quarters = 0
        for width, capacity in segments:
            samples.append((quarters / 4, float(capacity)))
            quarters += width
        trace = mk(samples, quarters / 4)
        start = data.draw(st.integers(0, 3 * quarters), label="start_quarters") / 4
        prefixes = [0.0]
        for width, capacity in segments:
            prefixes.append(prefixes[-1] + capacity * width / 4)
        loops = data.draw(st.integers(0, 2), label="whole_loops")
        nbytes = data.draw(st.one_of(
            st.floats(min_value=1.0, max_value=3 * trace.bytes_per_loop),
            st.sampled_from([p for p in prefixes if p > 0]).map(
                lambda p: p + loops * trace.bytes_per_loop),
        ), label="nbytes")
        expected = walk_time_to_send(samples, trace.duration_s, start, nbytes)
        assert trace.time_to_send(start, nbytes) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_all_zero_trace_cannot_transmit(self):
        with pytest.raises(ConfigurationError, match="zero bytes per loop"):
            mk([(0.0, 0.0)], 1.0)

    def test_mean_is_time_weighted(self):
        trace = mk([(0.0, 1000.0), (3.0, 5000.0)], 4.0)
        assert trace.mean_throughput() == pytest.approx((1000 * 3 + 5000 * 1) / 4.0)

    def test_construction_rejects_bad_samples(self):
        with pytest.raises(ConfigurationError):
            mk([], 1.0)
        with pytest.raises(ConfigurationError):
            mk([(0.5, 100.0)], 1.0)
        with pytest.raises(ConfigurationError):
            mk([(0.0, 100.0), (0.0, 50.0)], 1.0)
        with pytest.raises(ConfigurationError):
            mk([(0.0, -5.0)], 1.0)
        with pytest.raises(ConfigurationError):
            mk([(0.0, 100.0), (1.0, 50.0)], 1.0)


class TestCorpusFilter:
    def test_keeps_challenged_but_usable(self):
        good = synthesize_trace("constant", 5.0, mbps=1.0)
        assert trace_passes_filter(good)

    def test_drops_fast_mean(self):
        assert not trace_passes_filter(synthesize_trace("constant", 5.0, mbps=5.0))

    def test_drops_dip_below_floor(self):
        dipping = mk([(0.0, mbps_to_bytes_per_s(1.0)), (1.0, mbps_to_bytes_per_s(0.1))], 2.0)
        assert not trace_passes_filter(dipping)

    def test_mean_boundary_is_strict(self):
        assert not trace_passes_filter(synthesize_trace("constant", 5.0, mbps=3.0))

    def test_min_boundary_is_strict(self):
        assert not trace_passes_filter(synthesize_trace("constant", 5.0, mbps=0.2))

    def test_filter_is_idempotent(self):
        traces = [synthesize_trace("constant", 5.0, mbps=m, source_tag=str(m))
                  for m in (0.5, 1.0, 3.5, 0.15)]
        kept = filter_corpus(traces)
        assert filter_corpus(kept) == kept
        assert [t.source_tag for t in kept] == ["0.5", "1.0"]


class TestSplitCorpus:
    def _corpus(self, n):
        return [synthesize_trace("constant", 5.0, mbps=1.0, source_tag="t%d" % i) for i in range(n)]

    def test_eighty_twenty_on_ten(self):
        train, test = split_corpus(self._corpus(10), 0.8, seed=0)
        assert (len(train), len(test)) == (8, 2)

    def test_floor_rule_on_singleton(self):
        train, test = split_corpus(self._corpus(1), 0.8, seed=0)
        assert (len(train), len(test)) == (0, 1)

    def test_deterministic_and_partitioning(self):
        corpus = self._corpus(9)
        t1, v1 = split_corpus(corpus, 0.8, seed=5)
        t2, v2 = split_corpus(corpus, 0.8, seed=5)
        assert [t.source_tag for t in t1] == [t.source_tag for t in t2]
        assert sorted(x.source_tag for x in t1 + v1) == sorted(x.source_tag for x in corpus)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            split_corpus(self._corpus(2), 1.5)


class TestSynthesize:
    def test_constant(self):
        trace = synthesize_trace("constant", 3.0, mbps=2.0)
        assert [c for _, c in trace.samples] == [mbps_to_bytes_per_s(2.0)] * 3

    def test_square_wave_starts_low(self):
        trace = synthesize_trace("square_wave", 4.0, low_mbps=0.5, high_mbps=2.5, period_s=2.0)
        caps = [c for _, c in trace.samples]
        assert caps == [mbps_to_bytes_per_s(v) for v in (0.5, 2.5, 0.5, 2.5)]

    def test_ramp_hits_endpoints(self):
        trace = synthesize_trace("ramp", 5.0, start_mbps=1.0, end_mbps=3.0)
        caps = [c for _, c in trace.samples]
        assert caps[0] == mbps_to_bytes_per_s(1.0)
        assert caps[-1] == pytest.approx(mbps_to_bytes_per_s(3.0))
        assert caps == sorted(caps)

    def test_jitter_is_seeded(self):
        a = synthesize_trace("constant", 5.0, seed=3, mbps=1.0, jitter_mbps=0.2)
        b = synthesize_trace("constant", 5.0, seed=3, mbps=1.0, jitter_mbps=0.2)
        c = synthesize_trace("constant", 5.0, seed=4, mbps=1.0, jitter_mbps=0.2)
        assert a.samples == b.samples
        assert a.samples != c.samples

    @pytest.mark.parametrize("kind,params", [
        ("constant", {}),
        ("square_wave", {"low_mbps": 1.0}),
        ("nonsense", {"mbps": 1.0}),
        ("constant", {"mbps": 1.0, "extra": 2.0}),
        ("constant", {"mbps": -1.0}),
    ])
    def test_bad_requests_rejected(self, kind, params):
        with pytest.raises(ConfigurationError):
            synthesize_trace(kind, 5.0, **params)

    @pytest.mark.parametrize("duration_s, sample_s, params", [
        (math.inf, 1.0, {"mbps": 1.0}),
        (math.nan, 1.0, {"mbps": 1.0}),
        (5.0, math.nan, {"mbps": 1.0}),
        (5.0, math.inf, {"mbps": 1.0}),
        (8.0, 1.0, {"low_mbps": 0.5, "high_mbps": 2.5, "period_s": math.nan}),
        (8.0, 1.0, {"low_mbps": 0.5, "high_mbps": 2.5, "period_s": math.inf}),
        (5.0, 1.0, {"mbps": 1.0, "jitter_mbps": math.nan}),
        (5.0, 1.0, {"mbps": 1.0, "jitter_mbps": math.inf}),
    ])
    def test_non_finite_inputs_rejected(self, duration_s, sample_s, params):
        # a NaN period used to pass every comparison and write an all-high
        # wave, and an infinite duration overflowed
        with pytest.raises(ConfigurationError, match="finite"):
            synthesize_trace("square_wave" if "period_s" in params else "constant",
                             duration_s, sample_s=sample_s, **params)

    @pytest.mark.parametrize("duration_s, sample_s", [
        (MAX_OPPORTUNITY_BUCKETS + 1.0, 1.0),
        (1e12, 1e-3),  # 10^15 samples, which would never finish
        (1e300, 1e-10),  # the quotient overflows to inf
    ])
    def test_sample_count_past_the_cap_refused_before_any_sample(self, duration_s, sample_s):
        with pytest.raises(ConfigurationError, match="past the limit of %d" % MAX_OPPORTUNITY_BUCKETS):
            synthesize_trace("constant", duration_s, sample_s=sample_s, mbps=1.0)


class TestLoadTrace:
    def test_extension_sniffing(self, tmp_path):
        csv = tmp_path / "a.csv"
        csv.write_text("0,1.0\n")
        opp = tmp_path / "b.txt"
        opp.write_text("0\n500\n")
        assert load_trace(str(csv)).samples[0][1] == mbps_to_bytes_per_s(1.0)
        assert load_trace(str(opp)).samples[0][1] == 3000.0

    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            load_trace("/nonexistent/trace.csv")


class TestBundledCorpus:
    def test_twenty_traces_all_in_band(self):
        names = sorted(os.listdir(CORPUS_DIR))
        assert len(names) == 20
        for name in names:
            trace = load_trace(os.path.join(CORPUS_DIR, name))
            assert trace_passes_filter(trace), name
            assert math.isclose(trace.duration_s, 20.0)
