#!/usr/bin/env python3
"""Build and run the end-to-end CRPQ benchmark from the repository root.

One run (the last stdout line is the JSON result):
  python3 crpqbench/run.py --workload W --seed N --seconds S --trace 0|1

Steadiness report: RUNS runs of one seed, each in its own process.  Prints
median, quartiles and spread (interquartile range over median) of every
end-to-end metric against its bound in BENCHMARK.json, the raw
(unnormalised) spread beside it, and the busy-time share of the costliest
1% of inputs.  Fails if the runs did different work (work fingerprint) or
a spread exceeds its bound:
  python3 crpqbench/run.py --steady RUNS --workload W --seed N --seconds S
                           [--metric NAME ...]

Held-out-seed mix check: each workload's strata keep their stated shares:
  python3 crpqbench/run.py --mix --seed N
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["st-reach", "st-join", "contain", "serve-mix"]
BENCH = os.path.join("_build", "default", "crpqbench", "bench.exe")
OUT = ".crpqbench"


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(allow_abbrev=False)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--steady", type=int, metavar="RUNS")
    p.add_argument("--metric", action="append", default=[])
    p.add_argument("--mix", action="store_true")
    a = p.parse_args()
    if a.mix:
        if a.seed is None or a.workload or a.steady or a.trace is not None or a.metric:
            p.error("--mix takes only --seed")
        return a
    for flag in ("workload", "seed", "seconds"):
        if getattr(a, flag) is None:
            p.error("--%s is required" % flag)
    if not 1 <= a.seconds <= 600:
        p.error("--seconds must be in 1..600")
    if a.steady is None:
        if a.trace is None:
            p.error("--trace is required")
        if a.metric:
            p.error("--metric needs --steady")
    else:
        if a.steady < 2:
            p.error("--steady needs at least 2 runs")
        if a.trace:
            p.error("--steady reports end-to-end metrics; drop --trace")
    return a


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        fail("run from the repository root (dune-project, lib/ and bin/ needed)")
    # no shared dune cache: the build reads and writes only the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./crpqbench/bench.exe", "./bin/injcrpq.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        fail("build failed", 1)


def bench_cmd(a, seed, trace, report=None):
    cmd = [BENCH, "--workload", a.workload, "--seed", str(seed),
           "--seconds", str(a.seconds), "--trace", str(trace)]
    if report:
        cmd += ["--report", report]
    return cmd


def load_bounds(a):
    try:
        with open("BENCHMARK.json") as f:
            bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    except (OSError, ValueError, KeyError) as e:
        fail("cannot read bounds from BENCHMARK.json: %s" % e)
    for m in a.metric:
        if m not in bounds:
            fail("unknown metric %r (known: %s)" % (m, ", ".join(sorted(bounds))))
    return bounds


def steady(a, bounds):
    names = a.metric or list(bounds)
    os.makedirs(OUT, exist_ok=True)
    reports = []
    for i in range(a.steady):
        path = os.path.join(OUT, "steady-%s-%d-%d.json" % (a.workload, a.seed, i))
        r = subprocess.run(bench_cmd(a, a.seed, 0, path), stdout=subprocess.DEVNULL)
        if r.returncode != 0:
            fail("run %d exited with %d" % (i, r.returncode), 1)
        with open(path) as f:
            reports.append(json.load(f))
        os.remove(path)
    bad = []
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in reports}
    if len(prints) > 1:
        bad.append("work fingerprints differ: " + " | ".join(sorted(prints)))
    if not all(r["correct"] for r in reports):
        bad.append("a run reported wrong outputs")
    print("%-14s %12s %12s %12s %8s %8s %8s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "raw"))
    for m in names:
        vals = [r["metrics"][m] for r in reports]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        raw = ""
        if m in reports[0]["raw"]:
            rv = [r["raw"][m] for r in reports]
            rq1, rmed, rq3 = statistics.quantiles(rv, n=4)
            raw = "%.4f" % ((rq3 - rq1) / rmed)
        over = m != "setup_s" and spread > bounds[m]
        if over:
            bad.append("%s spread %.4f over bound %.2f" % (m, spread, bounds[m]))
        print("%-14s %12.6g %12.6g %12.6g %8.4f %8.2f %8s%s" %
              (m, med, q1, q3, spread, bounds[m], raw, "  OVER" if over else ""))
    top = [r["top1pct_busy_share"] for r in reports]
    print("costliest 1%% of inputs: %.3f of busy time (median over runs)" %
          statistics.median(top))
    for b in bad:
        print("run.py: " + b, file=sys.stderr)
    sys.exit(1 if bad else 0)


def main():
    a = parse_args()
    # the program runs with the runtime's default GC settings, as users get them
    os.environ.pop("OCAMLRUNPARAM", None)
    bounds = load_bounds(a) if a.steady is not None else None
    build()
    if a.mix:
        sys.exit(subprocess.run([BENCH, "--mix", "--seed", str(a.seed)]).returncode)
    if a.steady is not None:
        steady(a, bounds)
    cmd = bench_cmd(a, a.seed, a.trace)
    os.execv(cmd[0], cmd)


if __name__ == "__main__":
    main()
