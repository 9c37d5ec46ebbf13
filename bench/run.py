"""smallvol benchmark: three seeded workloads through the public entry points.

Usage, from the root of a checkout:

    python3 bench/run.py --workload census-pipeline --seed 1 --seconds 30 --trace 0

One process, pinned to one CPU, one client in a closed loop, no threads.
Items come in rounds of a fixed mix (see each workload module), generated
from the seed before they are timed; the run times whole rounds until
they have taken ``--seconds``.  Outputs are checked against independent
references (``bench/reference.py``) after the loop.  Known defects of
smallvol are kept out of the timed items; a workload's ``known_defects``
reproduces them once, untimed, after everything else, and the run reports
on ``info: known_defect.*`` lines whether they still show.

``--trace 0`` also times ``setup_s``: fresh interpreters, spawned one at
a time between rounds (never while an item runs), that import
``smallvol.cli`` and fill the Lobachevsky coefficient cache.  Spreading
the spawns over the run makes their median see the same host as the
items do.  It reports the end-to-end metrics in reference seconds
(``bench/hostspeed.py``); the wall-clock figures and the host speed
follow on ``info:`` lines.  ``--trace 1`` runs each round untraced and
traced, reports the per-module metrics (wall seconds) and the tracing
overhead, and writes the spans to ``.bench_out/``.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = {
    "census-pipeline": "census",
    "volume-screen": "screen",
    "nonhyp-check": "nonhyp",
}
SETUP_SPAWNS = 21
SETUP_FIRST = 3  # spawns before the first round; the rest follow the rounds
WARMUP_S = 1.0
SETUP_CODE = ("import smallvol.cli; "
              "from smallvol.lobachevsky import default_coeffs; default_coeffs()")


class Unexpected:
    """An item raised where its reference expects a result."""

    def __init__(self, exc):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()


def load_smallvol():
    """Import smallvol from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "smallvol", "__init__.py")):
        raise SystemExit(f"error: no smallvol sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import smallvol

    if os.path.dirname(os.path.abspath(smallvol.__file__)) != os.path.join(SRC, "smallvol"):
        raise SystemExit(f"error: imported smallvol from {smallvol.__file__}")
    # Fill the lazy coefficient cache here, as setup_s does, not in an item.
    from smallvol.lobachevsky import default_coeffs

    default_coeffs()


def environment(cpus) -> dict:
    import numpy

    lines = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "smallvol")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    lines += sum(1 for _ in f)
    return {
        "python": platform.python_version(),
        "nproc": len(cpus),
        "pinned_cpu": min(cpus),
        "numpy": numpy.__version__,
        "src_lines": lines,
    }


class SetupTimer:
    """Times cold ``import smallvol.cli`` plus cache fill, one spawn at a
    time.  Each spawn is scaled by the calibration blocks run just before
    and after it."""

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + os.pathsep + self.env.get("PYTHONPATH", "")
        self.cmd = [sys.executable, "-c", SETUP_CODE]
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True, timeout=60)  # bytecode
        self.times, self.scaled = [], []

    def spawn_until(self, count: int) -> None:
        from bench.hostspeed import REFERENCE_S, WINDOW, block_seconds

        while len(self.times) < count:
            blocks = [block_seconds() for _ in range(WINDOW)]
            # No timeout here: with one, the wait polls in steps of up to
            # 50 ms, which would quantize the figure.
            start = time.perf_counter()
            subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)
            self.times.append(time.perf_counter() - start)
            blocks += [block_seconds() for _ in range(WINDOW)]
            self.scaled.append(self.times[-1] * REFERENCE_S / statistics.median(blocks))

    def result(self) -> tuple:
        """Median (reference seconds, wall seconds)."""
        return statistics.median(self.scaled), statistics.median(self.times)


def run_round(batch, times, recorder=None, clock=None):
    """Run one round's items back to back, appending each item's seconds
    to ``times``; returns their outcomes.  ``clock`` times its calibration
    block before each item.

    Everything the harness keeps is first frozen out of the collector's
    way, so that later rounds do not pay for scanning earlier outcomes.
    """
    gc.collect()
    gc.freeze()
    outcomes = []
    for item in batch:
        if recorder is not None:
            recorder.item += 1
        if clock is not None:
            clock.before_item()
        start = time.perf_counter()
        try:
            outcome = item.run()
        except (Exception, SystemExit) as exc:  # its check reports a failure
            outcome = Unexpected(exc)
        times.append(time.perf_counter() - start)
        outcomes.append(outcome)
    return outcomes


def warm_up(workload, seed, workdir):
    """A second's worth of items from an extra round, untimed, so that
    first-call costs stay out of the figures."""
    warmup = workload.make_round(seed, -1, workdir)
    start = time.perf_counter()
    while warmup and time.perf_counter() - start < WARMUP_S:
        run_round([warmup.pop()], [])


def run_rounds(workload, seed, seconds, workdir, clock=None, between=None):
    """Whole rounds until ``seconds`` have passed in them; returns
    (rounds, outcomes, times).

    ``between`` is called after each round with the share of ``seconds``
    done.
    """
    warm_up(workload, seed, workdir)
    rounds, outcomes, times = [], [], []
    elapsed = 0.0
    while not rounds or elapsed < seconds:
        rounds.append(workload.make_round(seed, len(rounds), workdir))
        start = time.perf_counter()
        outcomes += run_round(rounds[-1], times, clock=clock)
        elapsed += time.perf_counter() - start
        if between is not None:
            between(elapsed / seconds)
    if clock is not None:
        clock.finish()
    return rounds, outcomes, times


def check_all(workload, items, outcomes):
    """(failed count, checks) against the workload's references."""
    from bench.common import Check

    refs = workload.references()
    checks = [Check(False, outcome.text) if isinstance(outcome, Unexpected)
              else item.check(outcome, refs)
              for item, outcome in zip(items, outcomes)]
    notes = Counter(c.note for c in checks if not c.ok)
    for note, count in sorted(notes.items()):
        print(f"failure: {count} x {note}")
    return sum(notes.values()), checks


def gmean(values):
    values = [v for v in values if v is not None and v > 0]
    if not values:
        return None
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def quantiles(times) -> tuple:
    """(p50, p90, items per second) of per-item seconds."""
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
    return statistics.median(times), p90, len(times) / math.fsum(times)


def end_to_end(args, workload, workdir):
    from bench.hostspeed import HostClock

    setup_timer = SetupTimer()
    setup_timer.spawn_until(SETUP_FIRST)
    clock = HostClock()
    rounds, outcomes, times = run_rounds(
        workload, args.seed, args.seconds, workdir, clock,
        lambda done: setup_timer.spawn_until(
            SETUP_FIRST + int(min(done, 1.0) * (SETUP_SPAWNS - SETUP_FIRST))))
    setup, setup_wall = setup_timer.result()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, checks = check_all(workload, sum(rounds, []), outcomes)
    n = len(times)
    p50, p90, rate = quantiles(times)
    s50, s90, srate = quantiles(clock.scaled(times))
    metrics = {
        "setup_s": (setup, "s"),
        "item_s.p50": (s50, "s"),
        "item_s.p90": (s90, "s"),
        "items_per_s": (srate, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {
        "samples": (n, "items"),
        "failure_ratio": (failed / n, "ratio"),
        "width_rel.gmean": (gmean(c.width_rel for c in checks), "ratio"),
        "delta.gmean": (gmean(c.delta for c in checks), "1"),
        "host_speed": (clock.speed(), "ratio"),
        "wall.setup_s": (setup_wall, "s"),
        "wall.item_s.p50": (p50, "s"),
        "wall.item_s.p90": (p90, "s"),
        "wall.items_per_s": (rate, "1/s"),
    }
    for name, (value, unit) in info.items():
        if value is not None:
            print(f"info: {name} = {value!r} {unit}")
    return n, failed, metrics


def traced(args, workload, workdir, env):
    from bench import tracing
    from bench.hostspeed import HostClock

    # Each round runs untraced and traced back to back, the order
    # alternating, so that neither pass gains from running second.
    plain_clock, traced_clock = HostClock(), HostClock()
    recorder = tracing.Recorder()
    rounds, plain_out, plain_times, traced_out, traced_times = [], [], [], [], []
    warm_up(workload, args.seed, workdir)
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(workload.make_round(args.seed, len(rounds), workdir))
        for trace_pass in (False, True) if len(rounds) % 2 else (True, False):
            if not trace_pass:
                plain_out += run_round(rounds[-1], plain_times, clock=plain_clock)
                continue
            remove = tracing.instrument(recorder)
            try:
                traced_out += run_round(rounds[-1], traced_times, recorder, traced_clock)
            finally:
                remove()
    plain_clock.finish()
    traced_clock.finish()
    # Both passes in reference seconds, so host swings between them cancel.
    ratio = (math.fsum(plain_clock.scaled(plain_times))
             / math.fsum(traced_clock.scaled(traced_times)))
    items = sum(rounds, [])
    failed, _ = check_all(workload, items + items, plain_out + traced_out)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    recorder.write(path, {"workload": args.workload, "seed": args.seed, "env": env})
    print(f"info: spans = {len(recorder.spans)} written to {os.path.relpath(path, ROOT)}")
    return 2 * len(items), failed, tracing.per_layer(recorder, ratio)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    # One CPU for this process and the setup spawns it starts, so that the
    # calibration blocks run where the timed work runs (bench/hostspeed.py).
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    load_smallvol()
    env = environment(cpus)
    print(f"env: {json.dumps(env)}")
    workload = importlib.import_module(f"bench.{WORKLOADS[args.workload]}")
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            attempted, failed, metrics = traced(args, workload, workdir, env)
        else:
            attempted, failed, metrics = end_to_end(args, workload, workdir)
        known_defects = getattr(workload, "known_defects", None)
        if known_defects is not None:
            for name, state in known_defects(workdir).items():
                print(f"info: known_defect.{name} = {state}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"metric: {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
