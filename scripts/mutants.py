"""Mutation check of the Tier-1 suite: does each one-line fault fail a test?

Each mutant is an id, a source fragment and its replacement. The fragment
is looked up across ``src/blocksched/*.py`` as a whole, so one list serves
a checkout before and after code moves between modules; a fragment must
occur there exactly once (``tests/test_mutants.py`` checks this list
against the current source). A mutant whose fragment is not found is
reported ``absent`` and not run.

The script copies the repository to a temporary directory, leaving out
``.git``, ``.hypothesis``, ``.pytest_cache`` and ``__pycache__``, so no
stored Hypothesis example can decide a verdict. It runs Tier-1 on the
unmutated copy first and exits 1 if that fails. Then, one mutant at a
time, it applies the replacement, runs Tier-1 and restores the file. A
mutant is ``killed`` when a test fails or the run times out, and
``survived`` otherwise; each killed line names the test files that
failed. Every run leaves out ``tests/test_mutants.py``, which each
mutant fails by design. Bytecode is not written, so a mutant of the
same length as its original never runs from a stale cache, and each run
starts with no Hypothesis example database.

One Tier-1 run takes about 15 s on 2 vCPUs, so the whole check, one run
per mutant plus the unmutated one, takes minutes: too slow for every CI
run. Run it by hand from the repository root:

    python3 scripts/mutants.py                       # this checkout
    python3 scripts/mutants.py --repo ../parent      # another checkout

Exit status: 0 when every present mutant is killed, 2 when one survived,
1 when the unmutated suite fails or a fragment occurs more than once.
Standard library only; runs one test process at a time.
"""
from __future__ import annotations

import argparse
import glob
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile

# (id, fragment, replacement)
MUTANTS = (
    # the retransmission order: the oldest loss goes first
    ("oldest-loss-first", "pending.pop()", "pending.pop(0)"),
    # ldf pays back below zero
    ("ldf-no-deficit-clamp", "max(0.0, self.deficits[element_id] - 1.0)",
     "self.deficits[element_id] - 1.0"),
    ("ldf-tie-later", "if d > best_deficit:", "if d >= best_deficit:"),
    # regime boundaries
    ("high-threshold-inclusive", "if throughput > thresholds.high:",
     "if throughput >= thresholds.high:"),
    ("low-threshold-inclusive", "if throughput < thresholds.low:",
     "if throughput <= thresholds.low:"),
    # tie rules of the policies
    ("rswn-expiry-tie-later", "expiry < best_expiry", "expiry <= best_expiry"),
    ("proposed-low-tie-earlier", "if champ_key <= key:", "if champ_key < key:"),
    ("proposed-mid-tie-earlier", "if dr / pkt <= champ_dr / champ_pkt:",
     "if dr / pkt < champ_dr / champ_pkt:"),
    ("proposed-first-retransmission", "for block in reversed(blocks):", "for block in blocks:"),
    # time_to_send's exact loop boundary
    ("loop-boundary-exclusive", "if rem <= 0:", "if rem < 0:"),
    # the predictor's window holds the measured packet's own send
    ("window-start-exclusive", "if sent >= window_start:", "if sent > window_start:"),
    ("response-leaves-before-sample",
     "sample = self.ledger.bytes_sent_since(send_time) / width\n        self.ledger.remove(packet)",
     "self.ledger.remove(packet)\n        sample = self.ledger.bytes_sent_since(send_time) / width"),
    # event order and loss timing: advance's merge of the heap, the send
    # opportunity and the arrival cursor; at one instant, a heap event then
    # runs before the opportunity, or an arrival before a heap event
    ("acks-before-sends", "(time_s := heap[0][0]) < at and", "(time_s := heap[0][0]) <= at and"),
    ("arrival-wins-ties", "and time_s <= arrival_at:", "and time_s < arrival_at:"),
    ("loss-signal-after-the-wire", "(t + self.rtt_s, _LOSS_SIGNAL,", "(end + self.rtt_s, _LOSS_SIGNAL,"),
    # the awaiting queue's packet life cycle and expiry
    ("take-keeps-exhausted-block", "if not (block.unsent or pending):", "if False:"),
    # the rebuild scans only the sendable blocks, so the re-entering one is left out
    ("lost-skips-rebuild", "for block_id, b in self._ids.items()",
     "for block_id, b in self._ready.items()"),
    ("lost-requeues-expired", "if block.expired:\n            block.discarded_packets += 1",
     "if False:\n            block.discarded_packets += 1"),
    ("expiry-inclusive-window", "if now >= expires_at:", "if now > expires_at:"),
    ("watermark-survivors-max", "elif expires_at < next_expiry:",
     "elif next_expiry == math.inf or expires_at > next_expiry:"),
    ("enqueue-keeps-watermark", "if block.expires_at < self.next_expiry:", "if False:"),
    # a completed block stays queued; ldf hears of a late completion
    ("complete-leaves-block-queued", "self.remove(block)\n        block.completion_time = t",
     "block.completion_time = t"),
    ("late-completion-repays-ldf", "if on_time:", "if True:"),
    # a drained block's received count is audited against its acks, and
    # the report's delivered bytes are what the blocks' acks counted
    ("finalize-skips-received-acked-check",
     "if block.received_packets != block.acked_packets:", "if False:"),
    ("delivered-bytes-of-completed-blocks", "delivered += block.acked_bytes",
     "delivered += block.total_bytes if block.completion_time is not None else 0"),
    # the engine passes a decision's inputs by position
    ("engine-swaps-regime-and-bw", "select(t, eligible, regime, smoothed,",
     "select(t, eligible, smoothed, regime,"),
    # take is the one check of a policy's choice: one outside the sendable
    # index fails the run (lost shares the guard's condition line)
    ("take-trusts-the-policy",
     "if block.block_id not in self._ready:\n            raise", "if False:\n            raise"),
    # a sweep pairs each chunk's records with its cells: zipping the cells
    # first takes one cell too many per chunk; overlapping chunks run a cell twice
    ("sweep-zip-takes-a-cell-first", "for record, (path, args) in zip(chunk_records, cells):",
     "for (path, args), record in zip(cells, chunk_records):"),
    ("sweep-chunks-overlap", "pending[i:i + size]", "pending[i:i + size + 1]"),
    # a failing chunk's finished cells ride on its failure to be written
    ("sweep-drops-carried-records", "exc.finished_records = records",
     "exc.finished_records = []"),
    # a scenario is checked once, when it is built; nothing downstream checks it again
    ("scenario-unchecked-at-construction", "self.validate()", "pass"),
)

# a mutant can make a test allocate without end; past this much address
# space each test process fails with MemoryError instead
MEMORY_CAP_BYTES = 1 << 30
TIMEOUT_S = 300.0  # per Tier-1 run, which takes about 15 s unmutated
IGNORED = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__")
FAILED_FILE = re.compile(r"^(?:FAILED|ERROR) ([^:\s]+)", re.MULTILINE)


def locate(src_dir: str, fragment: str) -> list[str]:
    """The source files of src_dir that hold fragment, one entry per
    occurrence."""
    hits = []
    for path in sorted(glob.glob(os.path.join(src_dir, "blocksched", "*.py"))):
        with open(path) as fh:
            hits += [path] * fh.read().count(fragment)
    return hits


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def run_suite(repo: str) -> tuple[bool, list[str]]:
    """Tier-1 in repo: (passed, the test files that failed). A run past
    TIMEOUT_S is stopped, with its whole process group, and counts as
    failed."""
    shutil.rmtree(os.path.join(repo, ".hypothesis"), ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("HYPOTHESIS_PROFILE", None)
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider", "-rfE", "--ignore", os.path.join("tests", "test_mutants.py")]
    proc = subprocess.Popen(cmd, cwd=repo, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True,
                            preexec_fn=_cap_memory)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return False, ["(timeout after %g s)" % TIMEOUT_S]
    failing = sorted(set(FAILED_FILE.findall(out)))
    if proc.returncode and not failing:  # a crash names no test
        failing = ["(exit %d)" % proc.returncode]
    return proc.returncode == 0, failing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", default=".", help="checkout to test (default: .)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy = os.path.join(scratch, "repo")
        shutil.copytree(args.repo, copy, ignore=IGNORED)
        src_dir = os.path.join(copy, "src")
        passed, failing = run_suite(copy)
        if not passed:
            print("unmutated Tier-1 fails (%s); no verdict" % (", ".join(failing) or "?"))
            return 1
        survived = ambiguous = 0
        for mutant_id, fragment, replacement in MUTANTS:
            hits = locate(src_dir, fragment)
            if len(hits) != 1:
                verdict = "absent" if not hits else "ambiguous (%d hits)" % len(hits)
                ambiguous += bool(hits)
                print("%-9s %s" % (verdict, mutant_id), flush=True)
                continue
            (path,) = hits
            with open(path) as fh:
                original = fh.read()
            with open(path, "w") as fh:
                fh.write(original.replace(fragment, replacement))
            try:
                passed, failing = run_suite(copy)
            finally:
                with open(path, "w") as fh:
                    fh.write(original)
            survived += passed
            print(("%-9s %s %s" % ("survived" if passed else "killed", mutant_id,
                                   " ".join(failing))).rstrip(), flush=True)
    return 1 if ambiguous else 2 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main())
