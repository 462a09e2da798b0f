"""Benchmark of bgkspectral: seeded workloads, output checks, layer tracing.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload {scan,cli-mix,expansion} \\
        --seed N --seconds S --trace {0,1}

Each workload runs in this one process as a closed loop with a single
caller: whole cycles of its calls repeat for as long as another cycle fits
in ``--seconds`` (at least one cycle).  Every output is checked between
calls, outside the timed region.  Lines starting with ``#`` describe the
run; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

  setup_s         median over fresh interpreters of the time to ready:
                  ``import bgkspectral`` plus the workload's set-up
  ops_per_s       successful operations per second of timed call time
  call_p50_ms     median latency of the workload's top-level library calls
  call_tail_ms    the highest percentile, at most p99, with at least ten
                  samples beyond it (the percentile and sample count are
                  printed)
  success_ratio   successful / attempted operations (1 - fail ratio)
  max_rel_err     worst relative error of t0..t4 and lambda on the fixed
                  mpmath reference set (``reference_moments.json``)
  peak_rss_mb     peak resident set size of this process

``--trace 1`` runs whole cycles untraced for half of ``--seconds``, then
the same number of cycles with every public library function wrapped in a
span, and reports the per-layer metrics of ``tracer.layer_metrics`` (counts
and times per cycle), the import breakdown from ``python -X importtime``
and the tracing overhead.  The spans are written to
``.perfbench/trace-<workload>.json``.

``--smoke`` shrinks the inputs and the set-up probes for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from time import perf_counter

import checkout

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3
#: highest tail percentile: p99.9 would rest on the eleventh-slowest of ~1e4
#: calls, which host noise moves far more than the code does
TAIL_MAX_PERCENTILE = 99.0


class Tally:
    """Operations, failures and latencies of a set of cycles."""

    def __init__(self):
        self.ops = self.failed = 0
        self.body_s = 0.0
        self.samples = []
        self.failures = {}  # (key, detail) -> [occurrences, failed ops]
        self.checks = {}  # check description -> times run
        self.cli_calls = []  # (command, seconds, failed)

    def add(self, checks, result):
        self.checks[checks] = self.checks.get(checks, 0) + 1
        self.ops += result.ops
        self.failed += result.failed
        for key, detail, n in result.failures:
            self._count_failure(key, detail, 1, n)

    def _count_failure(self, key, detail, count, n_ops):
        entry = self.failures.setdefault((key, detail), [0, 0])
        entry[0] += count
        entry[1] += n_ops

    def merge(self, other):
        self.ops += other.ops
        self.failed += other.failed
        for checks, count in other.checks.items():
            self.checks[checks] = self.checks.get(checks, 0) + count
        for (key, detail), (count, n_ops) in other.failures.items():
            self._count_failure(key, detail, count, n_ops)


def run_cycles(workload, tally, seconds=None, cycles=None, tracer=None):
    """Run ``cycles`` whole cycles, or as many as fit in ``seconds`` (at least one).

    A further cycle starts only if, at the mean cycle time so far, it ends
    within ``seconds``.
    """
    start = perf_counter()
    done = 0
    while True:
        for call in workload.calls:
            res = exc = None
            span = tracer.span(call.span) if tracer and call.span else nullcontext()
            t0 = perf_counter()
            try:
                with span:
                    res = call.run(tally.samples.append)
            except Exception as e:  # a raising call is a failed operation, named by its check
                exc = e
            dt = perf_counter() - t0
            tally.body_s += dt
            if not call.records_latency:
                tally.samples.append(dt)
            result = call.check(res, exc)
            tally.add(call.checks, result)
            if call.span:
                tally.cli_calls.append((call.span.split(".", 1)[1], dt, result.failed > 0))
        done += 1
        elapsed = perf_counter() - start
        if (done >= cycles) if cycles is not None else (elapsed * (done + 1) / done > seconds):
            return done


def measure_setup(workload, seed, probes):
    """Median time from starting a fresh interpreter to the workload being ready."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
    times = []
    for i in range(probes + 1):  # the first probe writes bytecode and warms the file cache
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=checkout.child_env(),
                              cwd=checkout.ROOT) as proc:
            line = proc.stdout.readline()
            dt = perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if rc != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe for {workload} failed with exit code {rc}")
        if i:
            times.append(dt)
    return statistics.median(times), times


def tail(samples):
    """(value, percentile): the highest percentile up to p99 with >= 10 samples beyond it.

    The percentile follows the sample count, so the tail stays the same
    sample of the sorted latencies as runs fit more or fewer cycles; with
    fewer than 11 samples it is the maximum.
    """
    ordered = sorted(samples)
    n = len(ordered)
    beyond = max(10, math.floor(n * (1.0 - TAIL_MAX_PERCENTILE / 100.0)))
    if n <= beyond:
        return ordered[-1], 100.0
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n


def failure_lines(tally, known):
    lines = []
    for (key, detail), (count, n_ops) in sorted(tally.failures.items()):
        tag = "known at seed" if key in known else "NEW"
        lines.append(f"failure [{tag}] {key}: {detail} ({count} times, {n_ops} ops)")
    return lines or ["failures: none"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan", "cli-mix", "expansion"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and one set-up probe, for the smoke test")
    args = parser.parse_args(argv)

    try:
        checkout.use_checkout_library()
    except checkout.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    info = [f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
            f"trace {args.trace}"]
    metrics = {}

    def metric(name, value, unit, note=""):
        metrics[name] = {"value": value, "unit": unit}
        info.append(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))

    if not args.trace:
        setup_s, probe_times = measure_setup(args.workload, args.seed,
                                             1 if args.smoke else SETUP_PROBES)
        metric("setup_s", setup_s, "s", "median of " + ", ".join(f"{t:.3f}" for t in probe_times))

    workload = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    try:
        max_rel_err, ref_note, ref_results = workloads.reference_checks()
        tally = Tally()
        if not args.trace:
            cycles = run_cycles(workload, tally, seconds=args.seconds)
            good = tally.ops - tally.failed
            metric("ops_per_s", good / tally.body_s, "1/s",
                   f"{good} successful ops in {tally.body_s:.3f} s of calls, {cycles} cycles")
            metric("call_p50_ms", 1e3 * statistics.median(tally.samples), "ms",
                   f"{len(tally.samples)} calls")
            value, p = tail(tally.samples)
            metric("call_tail_ms", 1e3 * value, "ms", f"p{p:.4g} of {len(tally.samples)} calls")
            metric("success_ratio", good / tally.ops, "ratio",
                   f"fail ratio {tally.failed / tally.ops:.6g}")
            metric("max_rel_err", max_rel_err, "rel", ref_note)
            metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            tallies = [tally]
        else:
            cycles = run_cycles(workload, tally, seconds=args.seconds / 2.0)
            traced = Tally()
            tracer = tracing.Tracer()
            tracer.install()
            try:
                workloads.library_setup(args.workload, args.seed)  # traced set-up
                mark = len(tracer.spans)
                run_cycles(workload, traced, cycles=cycles, tracer=tracer)
            finally:
                tracer.uninstall()
            layers, root_s = tracing.layer_metrics(tracer.spans, mark, cycles, traced.cli_calls)
            imports = tracing.import_breakdown(
                [sys.executable, "-X", "importtime", "-c", "import bgkspectral"],
                checkout.child_env(), checkout.ROOT)
            for name, value in imports.items():
                metric(name, value, "s")
            for name, (value, unit) in layers.items():
                metric(name, value, unit)
            metric("trace.overhead_ratio", traced.body_s / tally.body_s, "ratio",
                   f"{cycles} cycles: traced {traced.body_s:.3f} s, untraced {tally.body_s:.3f} s")
            metric("trace.unattributed_s", traced.body_s / cycles - root_s, "s", "per cycle")
            os.makedirs(checkout.OUT_DIR, exist_ok=True)
            path = os.path.join(checkout.OUT_DIR, f"trace-{args.workload}.json")
            tracer.dump(path)
            info.append(f"{len(tracer.spans)} spans written to {os.path.relpath(path, checkout.ROOT)}")
            tallies = [tally, traced]
    finally:
        workload.close()

    known = workloads.KNOWN_FAILURES
    merged = Tally()
    for t in tallies:
        merged.merge(t)
    for checks, result in ref_results:
        merged.add(checks, result)
    info += workload.report()
    info += [f"check: {c} (x{n})" for c, n in merged.checks.items()]
    info += failure_lines(merged, known)
    correct = all(key in known for key, _ in merged.failures)
    for line in info:
        print("# " + line)
    print(json.dumps({"correct": correct, "attempted": merged.ops, "failed": merged.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
