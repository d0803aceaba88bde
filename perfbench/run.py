#!/usr/bin/env python3
"""entriv benchmark: seeded, single-process, single-threaded workloads run
against the package sources in `src/`, every answer checked independently.

    python3 perfbench/run.py --workload operad --seed 3 --seconds 20 --trace 0

Run it from the root of a checkout.  Set-up imports the package (timed in a
fresh process), builds the seeded inputs and warms up; it is repeated SETUPS
times and `setup_s` is the median.  The timed phase repeats whole passes over
the workload's items until --seconds have elapsed in them.  Every time
metric is at a nominal machine speed: measured, then scaled by how fast a
fixed reference loop ran around it (see Tally), because a shared machine's
speed swings by 20-40% for seconds to minutes at a time.

With --trace 0 the last stdout line carries the end-to-end metrics:

    setup_s            median set-up time, scaled by the reference loop
                       timed just before and after set-up
    wall_s             one pass at the workload's fixed size: the sum over
                       items of each item's median latency over the passes;
                       a cliff probe cut off by its limit adds nothing
    items_per_s        items that finished and were verified, per second
                       of wall_s
    item_p50_ms        median over items of those per-item latencies
    item_tail_ms       their highest percentile with ten items beyond it
    solved_frac        items finished within their limit and verified, over
                       items attempted; declared cliff probes may stall
    peak_rss_mb        peak resident memory of this process
    cli_cold_start_ms  median of COLD_RUNS fresh-process runs of one verb,
                       spread over the run

With --trace 1 half the time runs untraced and half under the span tracer of
spans.py, and the line carries the per-layer metrics (per pass) and the
tracer's overhead.  Spans are written to perfbench/.work/trace-<workload>.json.
Any item that fails its check makes `correct` false.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUPS = 5
COLD_RUNS = 31
REF_EVERY = 0.05
REF_NEAREST = 9
IMPORT_PROBE = ("import time; t = time.perf_counter(); import entriv.cli; "
                "print(time.perf_counter() - t)")


class ItemTimeout(BaseException):
    """Raised into an item that outlived its limit; a BaseException so that
    the program's own `except Exception` handlers do not swallow it."""


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise ItemTimeout


def run_item(item) -> tuple:
    """(status, seconds) with status ok, timeout, error or mismatch."""
    global _armed
    _armed = True
    signal.setitimer(signal.ITIMER_REAL, item.limit_s)
    t0 = perf_counter()
    try:
        out = item.call()
        status = "ok"
    except ItemTimeout:
        status = "timeout"
    except Exception as exc:  # a crashing item is a failed item, not a crashed run
        print(f"perfbench: {item.kind} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        status = "error"
    finally:
        elapsed = perf_counter() - t0
        _armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    if status == "ok":
        try:
            passed = item.check(out)
        except Exception as exc:
            print(f"perfbench: checking {item.kind} raised {exc!r}", file=sys.stderr)
            passed = False
        if not passed:
            print(f"perfbench: {item.kind} gave a wrong answer", file=sys.stderr)
            status = "mismatch"
    return status, elapsed


def timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


class Tally:
    """Outcomes and latencies of repeated passes over one list of items.

    Neighbours on a shared machine change its speed by 20-40% for seconds to
    minutes at a time, and not equally for every kind of code.  So the
    workload's reference loop (workloads.REFERENCES: fixed work of the same
    kind, in the benchmark's own code) runs every REF_EVERY seconds between
    items, and each latency is scaled by the loop's nominal time over the
    median of its nearest REF_NEAREST times: a time at the nominal machine
    speed."""

    def __init__(self, items: list, reference):
        self.items = items
        self.reference, self.nominal = reference
        self.samples_of = [[] for _ in items]  # per item: (start, seconds, timed out)
        self.ref_at, self.ref = [], []
        self.passes = 0
        self.attempted = self.solved = self.failed = 0

    def _reference(self):
        self.ref_at.append(perf_counter())
        self.ref.append(timed(self.reference))

    def run_passes(self, seconds: float, between=None):
        """Whole passes until `seconds` have elapsed in them (at least one);
        `between(share of the time used)` runs after each pass, off the
        clock."""
        spent = 0.0
        self._reference()
        while True:
            t0 = perf_counter()
            for k, item in enumerate(self.items):
                if perf_counter() - self.ref_at[-1] >= REF_EVERY:
                    self._reference()
                start = perf_counter()
                status, elapsed = run_item(item)
                self.samples_of[k].append((start, elapsed, status == "timeout"))
                self.attempted += 1
                if status == "ok":
                    self.solved += 1
                elif not (item.probe and status == "timeout"):
                    self.failed += 1
            self._reference()
            spent += perf_counter() - t0
            self.passes += 1
            if threading.active_count() > 1:  # the scaling assumes nothing else runs
                print("perfbench: the program left threads running", file=sys.stderr)
                self.failed += 1
            if spent >= seconds:
                return
            if between is not None:
                between(spent / seconds)

    def scale(self, at: float) -> float:
        i = bisect.bisect(self.ref_at, at)
        lo = max(0, i - REF_NEAREST // 2)
        return self.nominal / statistics.median(self.ref[lo:lo + REF_NEAREST])

    def latencies(self, scaled=True) -> list:
        """Per item, its latencies at the nominal speed in the passes where it
        finished; a probe cut off by its time limit has none."""
        return [[t * (self.scale(start) if scaled else 1) for start, t, cut in samples
                 if not cut] for samples in self.samples_of]

    def typical(self, scaled=True) -> list:
        """Per item, the median of its latencies over the passes, or None if
        it never finished."""
        return [statistics.median(v) if v else None for v in self.latencies(scaled)]

    def pass_seconds(self, scaled=True) -> float:
        """One pass at the workload's fixed size: the items that finished."""
        return sum(t for t in self.typical(scaled) if t is not None)

    def finished(self) -> int:
        """Items that finished in some pass: the certified items of a pass."""
        return sum(t is not None for t in self.typical())

    def sampled(self, scaled=True) -> list:
        return [x for item, x in zip(self.items, self.typical(scaled))
                if item.sampled and x is not None]


def tail(values: list) -> tuple:
    """(value, percentile): the highest percentile with ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def fresh_process(args: list) -> tuple:
    """Run `python3 <args>` against src/: (wall seconds, exit code, stdout)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    return perf_counter() - t0, proc.returncode, proc.stdout


class Spawns:
    """Fresh-process runs of one command, spread over the timed phase by
    calling upto() between passes."""

    def __init__(self, args: list):
        self.args = args
        self.runs = []  # (start, wall seconds, exit code, stdout)

    def upto(self, count: int):
        while len(self.runs) < count:
            self.runs.append((perf_counter(), *fresh_process(self.args)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("manifest", "operad", "homology", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "entriv", "__init__.py")):
        print(f"perfbench: no package sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.environ.pop("ENTRIV_CACHE_DIR", None)  # measure the computation, not a disk cache
    sys.path[:0] = [SRC, HERE]
    signal.signal(signal.SIGALRM, _on_alarm)

    import_s = []
    for _ in range(SETUPS):
        _, code, out = fresh_process(["-c", IMPORT_PROBE])
        if code != 0:
            print("perfbench: the package does not import", file=sys.stderr)
            return 2
        import_s.append(float(out))

    import entriv
    import workloads
    if not os.path.abspath(entriv.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported {entriv.__file__}, not the checkout's sources",
              file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, ".work")
    os.makedirs(workdir, exist_ok=True)

    build = workloads.WORKLOADS[args.workload]
    reference = workloads.REFERENCES[args.workload]
    speed = [timed(reference[0]) for _ in range(REF_NEAREST)]
    setups = []
    for k in range(SETUPS):
        t0 = perf_counter()
        wl = build(args.seed, workdir)
        workloads.run_cli(wl.cold_argv)  # warm-up: parser, report rendering, module caches
        setups.append(import_s[k] + perf_counter() - t0)
    speed += [timed(reference[0]) for _ in range(REF_NEAREST)]
    setup_s = statistics.median(setups) * reference[1] / statistics.median(speed)

    untraced = Tally(wl.items, reference)
    if args.trace:
        import spans
        probes = Spawns(["-c", IMPORT_PROBE])
        untraced.run_passes(args.seconds / 2, lambda done: probes.upto(int(COLD_RUNS * done)))
        probes.upto(COLD_RUNS)
        tracer = spans.Tracer()
        tracer.install()
        traced = Tally(wl.items, reference)
        try:
            traced.run_passes(args.seconds / 2)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(workdir, f"trace-{args.workload}.json"))
        values = spans.layer_metrics(tracer, traced.passes)
        values["cli.import_s"] = statistics.median(float(out) for *_, out in probes.runs)
        values["trace.overhead_frac"] = traced.pass_seconds() / untraced.pass_seconds() - 1
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in spans.METRICS.items()}
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
    else:
        cold = Spawns(["-m", "entriv.cli", *wl.cold_argv])
        untraced.run_passes(args.seconds, lambda done: cold.upto(int(COLD_RUNS * done)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        cold.upto(COLD_RUNS)
        expected = workloads.expected_reports()
        cold_failed = sum(1 for _, _, code, out in cold.runs if code != 0
                          or not workloads.report_matches(expected, wl.cold_argv, json.loads(out)))
        samples = untraced.sampled()
        tail_value, tail_pct = tail(samples)
        print(f"perfbench: {args.workload} seed {args.seed}: {untraced.passes} passes of "
              f"{len(wl.items)} items; item_tail_ms is p{tail_pct:.1f} of {len(samples)} "
              f"items; cold start is the median of {COLD_RUNS} runs of "
              f"entriv {' '.join(wl.cold_argv)}")
        wall_s = untraced.pass_seconds()
        values = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "items_per_s": (untraced.finished() / wall_s, "1/s"),
            "item_p50_ms": (statistics.median(samples) * 1000, "ms"),
            "item_tail_ms": (tail_value * 1000, "ms"),
            "solved_frac": (untraced.solved / untraced.attempted, "frac"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "cli_cold_start_ms": (statistics.median(
                wall * untraced.scale(start) for start, wall, _, _ in cold.runs) * 1000, "ms"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        # the same times without the speed scaling, on stderr, to show what it removes
        raw = untraced.sampled(scaled=False)
        raw_wall = untraced.pass_seconds(scaled=False)
        print("perfbench: unscaled " + json.dumps({
            "setup_s": statistics.median(setups), "wall_s": raw_wall,
            "items_per_s": untraced.finished() / raw_wall,
            "item_p50_ms": statistics.median(raw) * 1000, "item_tail_ms": tail(raw)[0] * 1000,
            "cli_cold_start_ms": statistics.median(wall for _, wall, _, _ in cold.runs) * 1000}),
            file=sys.stderr)
        attempted = untraced.attempted + COLD_RUNS
        failed = untraced.failed + cold_failed

    for name in os.listdir(workdir):
        if name.startswith(f"manifest-{os.getpid()}."):
            os.remove(os.path.join(workdir, name))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
