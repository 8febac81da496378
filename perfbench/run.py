#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/perfbench.exe from source and runs
one workload of it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The executable prints one "name value unit"
line per metric and, last, one JSON object {correct, attempted, failed,
metrics}; this driver adds the process's peak resident set (`peak_rss_mb`)
to the end-to-end metrics and prints that object as its own last line.

    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

runs every workload in both modes and prints every metric with its unit.

    python3 perfbench/run.py --workload NAME --steady K [--seed N] ...

repeats the workload K times on the same seed (with --vary-seed, over K
consecutive seeds) and prints, for every metric, the median, the quartiles
and the quartile spread as a share of the median, next to the metric's
bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["flid-sweep", "threshold-keys", "attack-matrix", "generated-topologies"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of a full source tree")
    # The shared dune cache lives outside the tree; build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=900)
    if proc.returncode != 0:
        fail("build failed")


def run_once(workload, seed, seconds, trace):
    """One measured run: returns (human lines, result object)."""
    proc = subprocess.Popen(
        [EXE, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    # wait4 reports the resource usage of this child and of the processes
    # it reaped (the batches it forks), so the peak resident set is the
    # benchmark's, not the build's.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail(f"{workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if not trace:
        result["metrics"]["peak_rss_mb"] = {
            "value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    return lines[:-1], result


def bounds():
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def steady(args):
    """The steadiness report: quartile spread of each metric over K runs,
    of the same seed or, with --vary-seed, of K consecutive seeds."""
    values = {}
    units = {}
    if args.vary_seed:
        seeds = range(args.seed, args.seed + args.steady)
    else:
        seeds = [args.seed] * args.steady
    for seed in seeds:
        _, result = run_once(args.workload, seed, args.seconds, args.trace)
        if not result["correct"] or result["failed"]:
            fail(f"{args.workload} seed {seed}: outputs incorrect")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)
    limits = bounds()
    print(f"{'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  unit")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = limits.get(name)
        print(f"{name:<36} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {bound if bound is not None else '-':>6}  "
              f"{units[name]}")


def run_all(args):
    """Every workload in both modes: every metric by name with its unit."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} --trace {trace}", flush=True)
            lines, result = run_once(workload, args.seed, args.seconds, trace)
            for line in lines:
                print(line)
            if not trace:
                print(f"{'peak_rss_mb':<40} "
                      f"{result['metrics']['peak_rss_mb']['value']:16.6g} MB")
            ok = ok and result["correct"] and not result["failed"]
    if not ok:
        fail("some outputs were incorrect")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="K",
                    help="repeat K times and report each metric's spread")
    ap.add_argument("--vary-seed", action="store_true",
                    help="with --steady, run K consecutive seeds, not one")
    args = ap.parse_args()
    build()
    if args.workload == "all":
        run_all(args)
        return
    if args.steady:
        steady(args)
        return
    lines, result = run_once(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    if not args.trace:
        print(f"{'peak_rss_mb':<40} {result['metrics']['peak_rss_mb']['value']:16.6g} MB")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
