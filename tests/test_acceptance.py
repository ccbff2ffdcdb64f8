"""Release gate: ten end-to-end criteria the simulator must meet.

Each test prints one verdict line (also echoed in the terminal summary):

    CRITERION-NN: PASS - <what was measured>

The criteria cover headline behavior (the regime-switched policy beats
every bundled baseline on the synthetic corpus), the deadline indicator
boundary, bandwidth estimator convergence and smoothing, equivalence of
the selection scan with an independent reference implementation, expiry
safety of every audited run, retransmission precedence in all three
regimes, corpus filtering, bit-level determinism of sweeps, lossless
behavior under light load, and the threshold tuning harness.
"""
from __future__ import annotations

import json
import math
import os
import random
import statistics
import time

import pytest

from blocksched.linksim import Simulation
from blocksched.metrics import build_report, delivery_indicator
from blocksched.model import load_scenario
from blocksched.predictor import Regime, Thresholds
from blocksched.runner import RunParams, run_sweep, tune_thresholds, load_filtered_corpus
from blocksched.schedulers import (
    SCHEDULER_NAMES,
    SchedulingContext,
    make_scheduler,
    select_block_proposed,
)
from blocksched.traces import filter_corpus, synthesize_trace
from conftest import CORPUS_DIR, SCENARIO_DIR, block_at, element, force_losses, scenario_of
from reference_selection import reference_select

BASELINES = ("fifo", "ldf", "rswn")
CRITERION_LINES: list[str] = []

# every simulation this module executes is audited for expiry safety
AUDIT = {"runs": 0, "sends": 0, "late_sends": 0}


def check(num: int, ok: bool, detail: str) -> None:
    line = "CRITERION-%02d: %s - %s" % (num, "PASS" if ok else "FAIL", detail)
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


def run_and_audit(trace, scenario, scheduler_name, params, forced=(), keep=None):
    """Run once, checking each send against its block's expiry as its record
    streams past; keep, when a list, also receives every record."""
    deadlines = {e.element_id: e.deadline_s for e in scenario.elements}
    expiries = {}

    def audit(rec):
        kind = rec["kind"]
        if kind == "block_arrival":
            element_id, index = rec["block_id"]
            expiries[(element_id, index)] = rec["t"] + deadlines[element_id]
        elif kind == "send":
            AUDIT["sends"] += 1
            element_id, index, _ = rec["packet_id"]
            if rec["t"] > expiries[(element_id, index)] + 1e-9:
                AUDIT["late_sends"] += 1
        if keep is not None:
            keep.append(rec)

    scheduler = make_scheduler(scheduler_name, scenario, params.literal_mid_branch)
    sim = Simulation(trace, scenario, scheduler, params, record=audit)
    if forced:
        force_losses(sim, forced)
    result = sim.run()
    AUDIT["runs"] += 1
    return result, build_report(result, trace)


@pytest.fixture(scope="module")
def corpus():
    return load_filtered_corpus(CORPUS_DIR)


@pytest.fixture(scope="module")
def scenario_1():
    return load_scenario(os.path.join(SCENARIO_DIR, "scenario_1.json"))


@pytest.fixture(scope="module")
def headline(corpus, scenario_1):
    """Mean QoE per scheduler over corpus x 5 seeds; feeds criteria 1 and 5."""
    start = time.monotonic()
    qoes = {name: [] for name in SCHEDULER_NAMES}
    for name in SCHEDULER_NAMES:
        for trace in corpus:
            for seed in range(5):
                _, report = run_and_audit(trace, scenario_1, name,
                                          RunParams(duration_s=8.0, seed=seed))
                qoes[name].append(report.qoe)
    return {
        "means": {name: math.fsum(vals) / len(vals) for name, vals in qoes.items()},
        "runs": sum(len(vals) for vals in qoes.values()),
        "elapsed": time.monotonic() - start,
    }


def test_criterion_01_mean_qoe_beats_every_baseline(headline, corpus):
    means = headline["means"]
    ok = (len(corpus) == 20
          and all(means["proposed"] > means[b] for b in BASELINES)
          and headline["elapsed"] < 120.0)
    detail = ("proposed %.4f vs %s over %d runs in %.1fs"
              % (means["proposed"],
                 ", ".join("%s %.4f" % (b, means[b]) for b in BASELINES),
                 headline["runs"], headline["elapsed"]))
    check(1, ok, detail)


def test_criterion_02_deadline_indicator_boundary():
    d = 0.1
    at_deadline = delivery_indicator(0.0, d, d)
    just_late = delivery_indicator(0.0, d + 0.001, d)
    check(2, at_deadline == 1 and just_late == 0,
          "indicator(E=0, F=D)=%d, indicator(E=0, F=D+1ms)=%d for D=100ms"
          % (at_deadline, just_late))


def test_criterion_03_estimator_convergence_and_smoothing():
    # a saturating sender on a constant 1 Mbps link: the smoothed estimate
    # must settle within +-10% of the true rate; sampled over [5 s, 8 s] of
    # an 8 s workload so the post-horizon drain does not dilute it
    saturator = scenario_of(element(element_id=0, priority=0, deadline_s=10.0,
                                    block_size_bytes=150000, period_s=0.4))
    constant = synthesize_trace("constant", 30.0, 0, mbps=1.0)
    records = []
    run_and_audit(constant, saturator, "proposed", RunParams(duration_s=8.0, loss_rate=0.0),
                  keep=records)
    window = [r["thr_smoothed"] for r in records if r["kind"] == "ack" and 5.0 <= r["t"] <= 8.0]
    rate = 125000.0
    worst = max(abs(s - rate) / rate for s in window)
    converged = bool(window) and all(0.9 * rate <= s <= 1.1 * rate for s in window)

    # mixed packet sizes over a 0.5/2.5 Mbps square wave keep the
    # per-packet estimate jumpy while the windowed one stays calm
    mixed = scenario_of(
        element(element_id=0, priority=0, deadline_s=1.0, block_size_bytes=150750, period_s=0.5),
        element(element_id=1, priority=1, deadline_s=0.5, block_size_bytes=2250, period_s=0.1))
    wave = synthesize_trace("square_wave", 100.0, 0, low_mbps=0.5, high_mbps=2.5, period_s=4.0)
    records = []
    run_and_audit(wave, mixed, "proposed", RunParams(duration_s=100.0, loss_rate=0.0),
                  keep=records)
    smoothed = [r["thr_smoothed"] for r in records if r["kind"] == "ack"]
    instant = [r["thr_instant"] for r in records
               if r["kind"] == "send" and r["thr_instant"] is not None]
    ratio = statistics.pstdev(smoothed) / statistics.pstdev(instant)
    check(3, converged and ratio < 1.0,
          "constant link: %d samples within %.1f%% of 1 Mbps; square wave: "
          "std(smoothed)/std(instantaneous) = %.3f" % (len(window), 100 * worst, ratio))


def test_criterion_04_selection_matches_reference_scan():
    rng = random.Random(0xACCE)
    regimes = [Regime.LOW, Regime.MID, Regime.HIGH]
    drs, srs, pkts = [0.25, 0.5, 0.75, 1.0], [0.2, 0.5, 1.0], [1, 2, 4]
    mismatches = 0
    total = 1000
    for _ in range(total):
        regime = rng.choice(regimes)
        entries = [{"dr": rng.choice(drs), "sr": rng.choice(srs),
                    "pkt": rng.choice(pkts), "p": rng.randrange(3),
                    "retx": rng.random() < 0.2}
                   for _ in range(rng.randrange(0, 6))]
        blocks = [block_at(element_id=0, index=i) for i in range(len(entries))]
        stats = [(e["sr"], e["dr"], e["pkt"], e["p"]) for e in entries]
        ctx = SchedulingContext(now=0.0, blocks=blocks, stats=stats,
                                retransmission=[e["retx"] for e in entries],
                                regime=regime, smoothed_bw=1.0)
        decision = select_block_proposed(ctx)
        idx, reason = reference_select(entries, int(regime))
        selected = None if idx is None else blocks[idx].block_id
        if decision.selected != selected or decision.reason.value != reason:
            mismatches += 1
    check(4, mismatches == 0,
          "%d mismatches on %d randomized queues (<=5 blocks, all regimes)"
          % (mismatches, total))


def test_criterion_06_retransmission_first_in_every_regime():
    # saturating workload so the retransmission competes with a full queue;
    # threshold placement pins the regime seen by the post-loss decision
    scenario = scenario_of(element(element_id=0, priority=0, deadline_s=5.0,
                                   block_size_bytes=150000, period_s=0.4))
    constant = synthesize_trace("constant", 30.0, 0, mbps=1.0)
    pinned = {
        Regime.LOW: Thresholds.from_mbps(5.0, 6.0),
        Regime.MID: Thresholds.from_mbps(0.8, 2.3),
        Regime.HIGH: Thresholds.from_mbps(0.01, 0.02),
    }
    seen = []
    ok = True
    for regime, thresholds in pinned.items():
        params = RunParams(duration_s=3.0, loss_rate=0.0, thresholds=thresholds)
        records = []
        run_and_audit(constant, scenario, "proposed", params, forced=(40,), keep=records)
        losses = [r for r in records if r["kind"] == "loss"]
        assert len(losses) == 1 and losses[0]["requeued"] is True
        loss_t, lost_block = losses[0]["t"], losses[0]["packet_id"][:2]
        after = next(r for r in records if r["kind"] == "decision" and r["t"] >= loss_t)
        seen.append("%s regime=%d" % (after["reason"], after["regime"]))
        ok = ok and (after["selected"] == lost_block and after["reason"] == "retransmission"
                     and after["regime"] == int(regime))
    check(6, ok, "first post-loss decision: %s (expected retransmission in "
                 "regimes 0, 1, 2)" % "; ".join(seen))


def test_criterion_07_corpus_filter_keeps_in_band_traces():
    fast_flat = synthesize_trace("constant", 8.0, 0, mbps=5.0)
    fast_wave = synthesize_trace("square_wave", 8.0, 0, low_mbps=2.8, high_mbps=3.4, period_s=4.0)
    dipping = synthesize_trace("square_wave", 8.0, 0, low_mbps=0.1, high_mbps=1.0, period_s=4.0)
    in_flat = synthesize_trace("constant", 8.0, 0, mbps=1.0)
    in_wave = synthesize_trace("square_wave", 8.0, 0, low_mbps=0.5, high_mbps=2.5, period_s=4.0)
    in_ramp = synthesize_trace("ramp", 8.0, 0, start_mbps=0.4, end_mbps=2.0)
    kept = filter_corpus([fast_flat, fast_wave, dipping, in_flat, in_wave, in_ramp])
    check(7, kept == [in_flat, in_wave, in_ramp],
          "kept %d of 6 fixtures (2 too fast, 1 dips below 0.2 Mbps)" % len(kept))


def test_criterion_08_sweeps_are_byte_identical(corpus, scenario_1, tmp_path):
    traces = corpus[:6]
    params = RunParams(duration_s=4.0)
    dirs = [str(tmp_path / "records_a"), str(tmp_path / "records_b")]
    tables = [run_sweep(traces, [scenario_1], list(SCHEDULER_NAMES), [0, 1], params,
                        records_dir=d, trace_group="det") for d in dirs]

    def read_all(d):
        out = {}
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), "rb") as fh:
                out[name] = fh.read()
        return out

    a, b = read_all(dirs[0]), read_all(dirs[1])
    ok = (a == b and len(a) == 48
          and tables[0].to_text() == tables[1].to_text()
          and tables[0].to_json_lines() == tables[1].to_json_lines())
    check(8, ok, "%d record files and both table renderings byte-identical "
                 "across repeated sweeps" % len(a))


def test_criterion_09_light_load_delivers_everything():
    # offered load of 50 kB/s against a 250 kB/s link (20%), deadlines at
    # least ten round trips wide
    scenario = scenario_of(
        element(element_id=0, priority=0, deadline_s=1.0, block_size_bytes=6000, period_s=0.3),
        element(element_id=1, priority=1, deadline_s=1.2, block_size_bytes=15000, period_s=0.5))
    constant = synthesize_trace("constant", 30.0, 0, mbps=2.0)
    params = RunParams(duration_s=10.0, loss_rate=0.0)
    ok = True
    details = []
    for name in SCHEDULER_NAMES:
        records = []
        result, report = run_and_audit(constant, scenario, name, params, keep=records)
        delivered = sum(r["size"] for r in records
                        if r["kind"] == "send" and r["arrives"] is not None)
        offered = constant.integrate_capacity(0.0, max(result.params.duration_s, result.end_time))
        recomputed_util = min(1.0, delivered / offered)
        exact = (report.delivery_ratio == 1.0
                 and report.utilization == recomputed_util
                 and report.qoe == 1.0 + report.alpha * recomputed_util)
        ok = ok and exact
        details.append("%s U=%.4f" % (name, recomputed_util))
    check(9, ok, "all %d schedulers at 20%% load: delivery_ratio 1.0 and "
                 "qoe == 1 + 0.85*U with U recomputed from the event log (%s)"
                 % (len(SCHEDULER_NAMES), ", ".join(details)))


def test_criterion_10_threshold_tuning_harness(corpus, scenario_1, tmp_path):
    start = time.monotonic()
    cells_path = str(tmp_path / "tune_cells.jsonl")
    result = tune_thresholds([0.4, 0.8, 1.2], [1.8, 2.3, 2.8], corpus, scenario_1,
                             RunParams(duration_s=8.0), seeds=(0,), cells_path=cells_path)
    elapsed = time.monotonic() - start
    with open(cells_path) as fh:
        persisted = [json.loads(line) for line in fh]
    best = max(result.cells, key=lambda c: (c["mean_qoe"], -c["low_mbps"], -c["high_mbps"]))
    ok = (len(result.cells) == 9 and persisted == [dict(c) for c in result.cells]
          and (result.best_low_mbps, result.best_high_mbps) == (best["low_mbps"], best["high_mbps"])
          and elapsed < 600.0)
    check(10, ok, "9 cells persisted, argmax (L, H) = (%.1f, %.1f) Mbps, %.1fs"
                  % (result.best_low_mbps, result.best_high_mbps, elapsed))


def test_criterion_05_no_sends_after_expiry(headline):
    # defined last so it sees every run the other criteria executed
    assert headline["runs"] == 400
    check(5, AUDIT["late_sends"] == 0 and AUDIT["runs"] >= 400,
          "%d post-expiry sends across %d audited runs (%d sends)"
          % (AUDIT["late_sends"], AUDIT["runs"], AUDIT["sends"]))
