#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perf/README.md).

One run, from the root of a source checkout:

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

builds perf/pgrid_perf.exe with dune, runs the workload in one process and
passes its output through: one "name value unit" line per metric, then, as
the last line, a JSON object {correct, attempted, failed, metrics}.  With
--trace 1 the metrics are the per-layer ones and the spans are written to
perf/_out/.  Exits non-zero, printing no result, when the build fails.

Repeated runs, each in a fresh process, alternating the workload order:

    python3 perf/run.py repeat --runs 5 [--vary-seed] [--save A.json]
    python3 perf/run.py compare A.json B.json

repeat prints each end-to-end metric's median and quartiles per workload
and flags a quartile spread wider than the metric's bound in
BENCHMARK.json; compare flags a median that got worse by more than the
bound between two saved sets.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
OUT = os.path.join(ROOT, "perf", "_out")
EXE = os.path.join(ROOT, "_build", "default", "perf", "pgrid_perf.exe")
BENCH = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_SEED = 20050830
# Metrics that depend only on the seed: identical across same-seed runs.
DETERMINISTIC = ("hops_mean", "deviation", "load_p99_ratio")


def build():
    """Build the benchmark with dune, keeping every file inside the checkout."""
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perf/pgrid_perf.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.exit("perf/run.py: build failed")


def run_once(workload, seed, seconds, trace):
    """Run one workload; return (exit code, stdout)."""
    cmd = [EXE, "run", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        cmd += ["--trace", os.path.join(OUT, "trace-%s-%d.jsonl" % (workload, seed))]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return r.returncode, r.stdout


def load_bench():
    with open(BENCH) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric, old, new):
    """Relative change of [new] against [old] in the metric's bad direction."""
    if old == 0:
        return 0.0
    change = (new - old) / abs(old)
    return change if metric["better"] == "lower" else -change


def repeat(args):
    bench = load_bench()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    build()
    values = {w: {} for w in workloads}
    flagged = False
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.seed + r if args.vary_seed else args.seed
            code, out = run_once(w, seed, seconds, False)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if code == 0 and lines else None
            if result is None or not result["correct"]:
                print("%s seed %d failed (exit %d)" % (w, seed, code))
                flagged = True
                continue
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("run %d %s seed %d done" % (r + 1, w, seed), file=sys.stderr)
    for w in workloads:
        if not values[w]:
            continue
        print("%s (%d runs, %s seed)" % (w, len(values[w]["setup_s"]),
                                         "varying" if args.vary_seed else "same"))
        for m in bench["end_to_end"]:
            vs = values[w][m["name"]]
            q1, med, q3 = quartiles(vs)
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if spread > m["bound"] and m["name"] != "setup_s":
                flag, flagged = "  SPREAD > BOUND", True
            elif spread > m["bound"] / 3:
                flag = "  spread > bound/3"
            print("  %-16s median %-14.6g q1 %-14.6g q3 %-14.6g spread %6.2f%% bound %4.0f%%%s"
                  % (m["name"], med, q1, q3, 100 * spread, 100 * m["bound"], flag))
        if not args.vary_seed:
            for name in DETERMINISTIC:
                if len(set(values[w][name])) != 1:
                    print("  %s differs between same-seed runs" % name)
                    flagged = True
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"seconds": seconds, "vary_seed": args.vary_seed, "values": values}, f, indent=1)
    return 1 if flagged else 0


def compare(args):
    bench = load_bench()
    with open(args.old) as f:
        old = json.load(f)["values"]
    with open(args.new) as f:
        new = json.load(f)["values"]
    flagged = False
    for w in old:
        if w not in new:
            continue
        print(w)
        for m in bench["end_to_end"]:
            a = statistics.median(old[w][m["name"]])
            b = statistics.median(new[w][m["name"]])
            d = worse_by(m, a, b)
            flag = ""
            if d > m["bound"]:
                flag, flagged = "  WORSE THAN BOUND", True
            print("  %-16s %-14.6g -> %-14.6g worse by %7.2f%% bound %4.0f%%%s"
                  % (m["name"], a, b, 100 * d, 100 * m["bound"], flag))
    return 1 if flagged else 0


def main(argv):
    if argv and argv[0] == "repeat":
        p = argparse.ArgumentParser(prog="perf/run.py repeat")
        p.add_argument("--runs", type=int, default=5)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--vary-seed", action="store_true")
        p.add_argument("--save")
        return repeat(p.parse_args(argv[1:]))
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="perf/run.py compare")
        p.add_argument("old")
        p.add_argument("new")
        return compare(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="perf/run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    seconds = args.seconds or load_bench()["run_seconds"]
    build()
    code, out = run_once(args.workload, args.seed, seconds, args.trace == 1)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
