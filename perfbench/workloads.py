"""Workload inputs for the blocksched benchmark.

Every workload is a closed-loop batch sweep driven from one process: the
benchmark calls ``runner.run_sweep`` on a fixed grid and waits for it to
return before starting the next pass. The generated inputs come from the
``--seed`` argument; the program under test only ever sees the generated
objects.

- headline: the bundled 20-trace corpus on scenario_1, five schedulers,
  simulation seeds 0..4, 8 s runs, one process. This is the sweep users
  run; its queue is shallow, so the per-event engine cost, report building
  and record writes dominate.
- headline_parallel: the same grid with two worker processes, so the
  process-pool layer (task pickling, dispatch, result collection) is
  measured too.
- deep_queue: a generated 16-element scenario offering about 5 Mbps over a
  jittered 0.5/2.5 Mbps square wave. The queue grows dozens of blocks deep,
  so scheduler selection and block statistics dominate and the inflight
  ledger stays short.
- wide_pipe: a generated 3-element scenario offering about 14.5 Mbps over a
  jittered 20/36 Mbps square wave with a 600 ms round trip. About 700
  packets are in flight while the queue stays near depth 1, so the
  predictor's ledger scan dominates and the schedulers do almost nothing.
  (At a 300 ms round trip, about 360 in flight, the per-event engine cost
  still outweighed the scan, so the round trip was doubled.)

The generators keep a fixed set of element classes and let the seed permute
their priorities and jitter the trace, so every seed gives different inputs
with the same total load; that keeps the cost of a pass steady from seed to
seed.
"""
from __future__ import annotations

import gc
import importlib
import os
import random
import sys
import time
from dataclasses import dataclass, replace

PACKAGE = "blocksched"
WORKLOADS = ("headline", "headline_parallel", "deep_queue", "wide_pipe")
PARALLEL_JOBS = 2

CORPUS_DIR = os.path.join("traces", "synthetic")
HEADLINE_SCENARIO = os.path.join("scenarios", "scenario_1.json")
# The shipped comparison grid (scripts/run_headline_comparison.py): seeds
# 0..4. It is not re-seeded from --seed: other simulation seeds on this grid
# hit a known engine defect (the two expiry predicates disagree in the last
# ulp and the run aborts with IllegalStateError), e.g. proposed on ramp09
# with seed 449071.
HEADLINE_SEEDS = [0, 1, 2, 3, 4]
GENERATED_SEEDS = 2

DEEP_ELEMENTS = 16
DEEP_OFFERED_MBPS = 5.0
DEEP_DURATION_S = 20.0
WIDE_OFFERED_MBPS = 14.5
WIDE_DURATION_S = 10.0
WIDE_RTT_S = 0.6

TINY_DURATION_S = 1.0
TINY_TRACES = 4


@dataclass
class Lib:
    """The blocksched modules of one import."""

    runner: object
    linksim: object
    model: object
    schedulers: object
    predictor: object
    traces: object


@dataclass
class Workload:
    name: str
    traces: list
    scenarios: list
    schedulers: list
    seeds: list
    params: object  # runner.RunParams
    jobs: int

    def combos(self):
        """(trace, scenario, scheduler, seed) in the order run_sweep runs them."""
        return [(trace, scenario, scheduler, seed)
                for scenario in self.scenarios
                for scheduler in self.schedulers
                for trace in self.traces
                for seed in self.seeds]

    def shrunk(self) -> "Workload":
        """The same workload with one simulation seed, for traced passes."""
        return replace(self, seeds=self.seeds[:1])


def import_fresh(src_dir: str) -> Lib:
    """Import blocksched from src_dir, discarding any earlier import, so
    that every set-up pays the import cost a user pays."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    where = os.path.dirname(os.path.abspath(package.__file__))
    if where != os.path.join(os.path.abspath(src_dir), PACKAGE):
        raise ImportError("%s was imported from %s, not from %s" % (PACKAGE, where, src_dir))
    return Lib(*(importlib.import_module("%s.%s" % (PACKAGE, m))
                 for m in ("runner", "linksim", "model", "schedulers", "predictor", "traces")))


def sim_seeds(stream: str, seed: int, count: int) -> list[int]:
    rng = random.Random("%s/%d" % (stream, seed))
    return rng.sample(range(1_000_000), count)


def _ladder(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _generated_scenario(lib: Lib, name: str, rng: random.Random, offered_mbps: float,
                        classes: list[tuple[int, float]]):
    """One element per (block size, deadline) class, each offering an equal
    share of offered_mbps. The seed decides which class gets which of the
    priorities 0..n-1; the classes themselves, and so the total load and
    queue depth, stay the same for every seed."""
    order = list(range(len(classes)))
    rng.shuffle(order)
    share = offered_mbps * 125000.0 / len(classes)  # bytes per second per element
    elements = []
    for priority, k in enumerate(order):
        size, deadline = classes[k]
        elements.append(lib.model.MediaElement(element_id=priority, priority=priority,
                                               deadline_s=deadline, block_size_bytes=size,
                                               period_s=size / share))
    scenario = lib.model.ScenarioConfig(name=name, elements=elements)
    scenario.validate()
    return scenario


def _headline(lib: Lib, jobs: int) -> Workload:
    return Workload(
        name="", traces=lib.runner.load_filtered_corpus(CORPUS_DIR),
        scenarios=[lib.model.load_scenario(HEADLINE_SCENARIO)],
        schedulers=list(lib.schedulers.SCHEDULER_NAMES),
        seeds=list(HEADLINE_SEEDS),
        params=lib.runner.RunParams(duration_s=8.0), jobs=jobs)


def _deep_queue(lib: Lib, seed: int) -> Workload:
    rng = random.Random("deep_queue/%d" % seed)
    sizes = [int(b) for b in _ladder(3000, 15000, DEEP_ELEMENTS)]
    deadlines = [round(d, 3) for d in _ladder(0.4, 1.2, DEEP_ELEMENTS)]
    # a fixed scramble (5 is coprime to 16) pairs sizes with deadlines
    classes = [(sizes[i], deadlines[i * 5 % DEEP_ELEMENTS]) for i in range(DEEP_ELEMENTS)]
    scenario = _generated_scenario(lib, "deep_queue-%d" % seed, rng, DEEP_OFFERED_MBPS, classes)
    trace = lib.traces.synthesize_trace(
        "square_wave", DEEP_DURATION_S, seed=rng.randrange(1 << 30), sample_s=0.5,
        low_mbps=0.5, high_mbps=2.5, period_s=4.0, jitter_mbps=0.2,
        source_tag="deep_queue-%d" % seed)
    return Workload(name="", traces=[trace], scenarios=[scenario],
                    schedulers=list(lib.schedulers.SCHEDULER_NAMES),
                    seeds=sim_seeds("deep_queue", seed, GENERATED_SEEDS),
                    params=lib.runner.RunParams(duration_s=DEEP_DURATION_S), jobs=1)


def _wide_pipe(lib: Lib, seed: int) -> Workload:
    rng = random.Random("wide_pipe/%d" % seed)
    scenario = _generated_scenario(lib, "wide_pipe-%d" % seed, rng, WIDE_OFFERED_MBPS,
                                   [(20000, 0.85), (40000, 1.0), (60000, 0.7)])
    trace = lib.traces.synthesize_trace(
        "square_wave", WIDE_DURATION_S, seed=rng.randrange(1 << 30), sample_s=0.5,
        low_mbps=20.0, high_mbps=36.0, period_s=4.0, jitter_mbps=1.0,
        source_tag="wide_pipe-%d" % seed)
    return Workload(name="", traces=[trace], scenarios=[scenario],
                    schedulers=list(lib.schedulers.SCHEDULER_NAMES),
                    seeds=sim_seeds("wide_pipe", seed, GENERATED_SEEDS),
                    params=lib.runner.RunParams(duration_s=WIDE_DURATION_S, rtt_s=WIDE_RTT_S),
                    jobs=1)


def build(lib: Lib, name: str, seed: int, tiny: bool) -> Workload:
    if name == "headline":
        wl = _headline(lib, 1)
    elif name == "headline_parallel":
        wl = _headline(lib, PARALLEL_JOBS)
    elif name == "deep_queue":
        wl = _deep_queue(lib, seed)
    elif name == "wide_pipe":
        wl = _wide_pipe(lib, seed)
    else:
        raise ValueError("unknown workload %r (known: %s)" % (name, ", ".join(WORKLOADS)))
    wl.name = name
    if tiny:
        wl = replace(wl, traces=wl.traces[:TINY_TRACES], seeds=wl.seeds[:1],
                     params=replace(wl.params, duration_s=TINY_DURATION_S))
    return wl


def set_up(src_dir: str, name: str, seed: int, tiny: bool) -> tuple[float, Lib, Workload]:
    """Import the package and build the workload's inputs; returns the host
    seconds it took along with the results."""
    started = time.perf_counter()
    lib = import_fresh(src_dir)
    wl = build(lib, name, seed, tiny)
    return time.perf_counter() - started, lib, wl


def time_set_up(src_dir: str, name: str, seed: int, tiny: bool) -> float:
    """Time one more set-up, then put back the modules imported before it,
    so the probe's wrappers and pickled references keep resolving to them."""
    kept = {n: m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")}
    gc.collect()  # the benchmark's own garbage, so a collection does not land inside the timing
    try:
        return set_up(src_dir, name, seed, tiny)[0]
    finally:
        for n in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[n]
        sys.modules.update(kept)
