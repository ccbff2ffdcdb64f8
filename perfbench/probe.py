"""Run timing and layer spans, installed from outside the program.

The probe replaces the names each caller in blocksched looks up (module
globals and class attributes) with wrappers. It always times
``runner.execute_run``; when tracing is on it also records a span around
every call into the layers listed in ``SPANS``.

Spans are aggregated as they close rather than kept one by one: per span
name, the call count, the inclusive time, and the self time (the span's
duration minus the time its wrapped children cover). At the end of each
``execute_run`` the process that ran it appends one JSON line with the
run's host time and span totals to a log file whose descriptor was opened
before any pool forked, so worker processes report through the same file.
Appends of one short line each are atomic, so lines from different
workers never interleave.
"""
from __future__ import annotations

import json
import os
import time

# (span name, module attribute holding the target, attribute name). A
# target is a module when the caller looks the name up as a global there,
# or a class when the caller reaches it through an instance.
SPANS = (
    ("runner.execute_run", "runner", "execute_run"),
    ("metrics.build_report", "runner", "build_report"),
    ("model.generate_blocks", "linksim", "generate_blocks"),
    ("schedulers.compute_block_stats", "linksim", "compute_block_stats"),
    ("schedulers.filter_expired", "linksim", "filter_expired"),
    ("linksim.advance", "linksim.Simulation", "advance"),
    ("traces.time_to_send", "traces.LinkTrace", "time_to_send"),
    ("predictor.bytes_sent_since", "predictor.InflightLedger", "bytes_sent_since"),
    ("model.queue_remove", "model.BlockAwaitingQueue", "remove"),
)
LEDGER_ENTRIES = "predictor.ledger_entries"  # a count, summed over scans


def _resolve(lib, path: str):
    module, _, cls = path.partition(".")
    target = getattr(lib, module)
    return getattr(target, cls) if cls else target


class Probe:
    def __init__(self, lib, log_path: str) -> None:
        self.lib = lib
        self.execute_run = lib.runner.execute_run  # the unwrapped entry point
        self._fd = os.open(log_path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        self._stats: dict[str, list[int]] = {}  # name -> [calls, inclusive ns, self ns]
        self._stack: list[int] = []  # child ns accumulated by each open span
        self._saved: list[tuple[object, str, object]] = []
        self.tracing = False

    # -- installation --------------------------------------------------

    def install(self, tracing: bool) -> None:
        """Wrap the program's entry points; spans only when tracing."""
        if self._saved:
            raise RuntimeError("probe already installed")
        self.tracing = tracing
        for name in [n for n, _, _ in SPANS] + [LEDGER_ENTRIES]:
            self._stats[name] = [0, 0, 0]
        if tracing:
            for name, path, attr in SPANS:
                self._patch(_resolve(self.lib, path), attr, name)
            self._patch_select()
        self._set(self.lib.runner, "execute_run", self._timed(self.lib.runner.execute_run))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.tracing = False

    def close(self) -> None:
        self.uninstall()
        os.close(self._fd)

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch(self, owner, attr: str, name: str) -> None:
        self._set(owner, attr, self._span(name, getattr(owner, attr)))

    def _patch_select(self) -> None:
        schedulers = self.lib.schedulers
        for value in list(vars(schedulers).values()):
            if (isinstance(value, type) and issubclass(value, schedulers.Scheduler)
                    and "select" in vars(value)):
                self._patch(value, "select", "schedulers.select")

    # -- wrappers ------------------------------------------------------

    def _span(self, name: str, fn):
        rec = self._stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        ledger_rec = self._stats[LEDGER_ENTRIES] if name == "predictor.bytes_sent_since" else None

        def wrapper(*args, **kwargs):
            if ledger_rec is not None:
                ledger_rec[0] += 1
                ledger_rec[1] += len(args[0])
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if stack:
                    stack[-1] += dt

        return wrapper

    def _timed(self, fn):
        clock = time.perf_counter_ns

        def execute_run(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            line = {"ns": clock() - t0}
            if self.tracing:
                line["spans"] = self._take()
            os.write(self._fd, (json.dumps(line) + "\n").encode())
            return out

        return execute_run

    def _take(self) -> dict:
        out = {}
        for name, rec in self._stats.items():
            out[name] = list(rec)
            rec[:] = [0, 0, 0]
        return out

    # -- collection ----------------------------------------------------

    def drain(self) -> list[dict]:
        """Every line logged since the last drain, from any process."""
        os.lseek(self._fd, 0, os.SEEK_SET)
        chunks = []
        while True:
            chunk = os.read(self._fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
        os.ftruncate(self._fd, 0)
        return [json.loads(line) for line in b"".join(chunks).splitlines() if line]
