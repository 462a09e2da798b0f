"""Smoke test of the benchmark: every workload at small size, untraced and traced.

Run from the root of a checkout (takes about a minute):

    python3 perfbench/smoke.py

For each workload (``expansion`` too, which ``BENCHMARK.json`` leaves out)
it runs ``run.py --smoke --seconds 1`` with ``--trace 0`` and ``--trace 1``
and checks that the run exits 0, that its last line reports correct
outputs and every metric named in ``BENCHMARK.json`` with the declared
unit, and that the run made each kind of output check its workload owes.
Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: per workload, patterns every run must show among its ``# check:`` lines
EXPECTED_CHECKS = {
    "scan": [rf"scan lambda_{k} a=0 n=\d+: the a=0 closed form" for k in ("fn", "plus", "minus", "pv")]
    + [rf"scan lambda_fn a={a} n=\d+: conjugate symmetry" for a in ("1", "100")]
    + [rf"scan lambda_pv a={a} n=\d+: \(lambda\+ \+ lambda-\)/2 = lambda_pv" for a in ("1", "100")],
    "cli-mix": [r"README dispersion-curve .*sha256", r"README spectrum-verify .*sha256",
                r"README limits-compare .*sha256", r"README fm-solve .*sha256",
                r"README dispersion-eval .*sha256"]
    + [rf"spectrum-verify --a {a}: exit 0, status pass"
       for a in ("0", "1e-8", "1e-3", "0.1", "1", "10", "100", "1e3", "1e5")]
    + [rf"dispersion-eval --a={a} .*--side={side}: .*region {region}"
       for a in ("0.0", "1.0", "100.0")
       for side, region in (("pv", "on-cut-pv"), ("plus", "boundary-plus"),
                            ("minus", "boundary-minus"))]
    + [rf"dispersion-eval --a={a} .*--z-im=.*region off-cut" for a in ("0.0", "1.0", "100.0")],
    "expansion": [rf"expansion a={a} x=0.5: residual_2_4 below 1e-05" for a in ("0", "1")],
}
COMMON_CHECKS = [rf"reference set a={a}: relative error of t0..t4 and lambda below 1e-08"
                 for a in ("0", "1", "5", "100")]


def fail(msg):
    print(f"smoke: FAIL {msg}")
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for name in EXPECTED_CHECKS:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            cmd = [sys.executable, *bench["command"][1:], "--workload", name, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            where = f"{name} --trace {trace}"
            if proc.returncode != 0:
                fail(f"{where}: exit {proc.returncode}\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                fail(f"{where}: correct={result['correct']} attempted={result['attempted']}")
            got = result["metrics"]
            for m in declared:
                if m["name"] not in got:
                    fail(f"{where}: metric {m['name']} missing")
                if got[m["name"]]["unit"] != m["unit"]:
                    fail(f"{where}: {m['name']} unit {got[m['name']]['unit']} != {m['unit']}")
                if not isinstance(got[m["name"]]["value"], (int, float)):
                    fail(f"{where}: {m['name']} value is not a number")
            if set(got) != {m["name"] for m in declared}:
                fail(f"{where}: undeclared metrics {sorted(set(got) - {m['name'] for m in declared})}")
            checks = [ln[len("# check: "):] for ln in lines if ln.startswith("# check: ")]
            for pattern in EXPECTED_CHECKS[name] + COMMON_CHECKS:
                if not any(re.search(pattern, c) for c in checks):
                    fail(f"{where}: no output check matching {pattern!r}")
            print(f"smoke: ok {where}: {result['attempted']} ops, {result['failed']} failed, "
                  f"{len(checks)} kinds of check")
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
