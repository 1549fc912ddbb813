#!/usr/bin/env python3
"""A/B the repository benchmark: a parent revision against the working tree.

    python3 scripts/perf_ab.py --parent REV --workload W --pairs N
        [--seed S] [--workdir DIR]

Run from the root of a checkout.  Exports REV with `git archive` into a
temporary directory, then runs `python3 perfbench/run.py --workload W`
in that copy ("parent") and in the working tree ("change") N times each,
on seeds S, S+1, ..., S+N-1.  The two sides alternate: on even pairs the
parent runs first, on odd pairs the change does, so a drift in machine
speed lands on both sides alike.

Every run must end `correct`; a run that does not is reported and the
script exits 1.  For each end-to-end metric in BENCHMARK.json it prints
each side's median and q1-q3, the relative change of the medians, how
many pairs the change won, and whether the median gap exceeds the
parent's q1-q3 spread.  A median worse than the metric's bound is
flagged WORSE and makes the exit status 1.

BENCHMARK.json is only read; nothing under perfbench/ is touched.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def export(rev, dest):
    """Writes the tree of [rev] into [dest] (which must not exist)."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def run_once(tree, workload, seed):
    """One benchmark run in [tree]; returns its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed)]
    res = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stdout + res.stderr)
        sys.exit("perf_ab: run failed in %s (exit %d)" % (tree, res.returncode))
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--workdir", default=None,
                    help="where to export the parent (default: a new temp dir)")
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit("perf_ab: unknown workload %s" % args.workload)
    if args.pairs < 1:
        sys.exit("perf_ab: --pairs must be at least 1")
    metrics = spec["end_to_end"]

    base = tempfile.mkdtemp(prefix="perf_ab-", dir=args.workdir)
    parent_tree = os.path.join(base, "parent")
    runs = {"parent": [], "change": []}
    bad = []
    try:
        export(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                r = run_once(trees[side], args.workload, seed)
                runs[side].append(r)
                if not r["correct"]:
                    bad.append("%s seed %d: not correct (%d of %d checks failed)"
                               % (side, seed, r["failed"], r["attempted"]))
                line = " ".join("%s=%.6g" % (m["name"], r["metrics"][m["name"]]["value"])
                                for m in metrics if m["name"] in r["metrics"])
                print("pair %d seed %d %-6s correct=%s %s"
                      % (i + 1, seed, side, r["correct"], line), flush=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    worse = []
    print()
    print("%s, %d pairs, seeds %d-%d, parent %s vs working tree"
          % (args.workload, args.pairs, args.seed, args.seed + args.pairs - 1, args.parent))
    print("%-24s %-30s %-30s %8s %6s  %s"
          % ("metric", "parent median (q1-q3)", "change median (q1-q3)", "delta",
             "wins", "gap vs parent IQR"))
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        pq1, pmed, pq3 = quartiles(p)
        cq1, cmed, cq3 = quartiles(c)
        wins = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
        delta = (cmed - pmed) / pmed if pmed else float("nan")
        gap = (pmed - cmed) if lower else (cmed - pmed)
        iqr = pq3 - pq1
        flag = ""
        if (delta if lower else -delta) > m["bound"]:
            flag = "  WORSE (bound %.2f)" % m["bound"]
            worse.append(name)
        print("%-24s %-30s %-30s %+7.1f%% %3d/%-2d  %s%s"
              % (name,
                 "%.4g (%.4g-%.4g)" % (pmed, pq1, pq3),
                 "%.4g (%.4g-%.4g)" % (cmed, cq1, cq3),
                 100 * delta, wins, len(p),
                 "%.4g %s %.4g" % (gap, ">" if gap > iqr else "<=", iqr), flag))
    failed = {s: sum(r["failed"] for r in rs) for s, rs in runs.items()}
    attempted = {s: sum(r["attempted"] for r in rs) for s, rs in runs.items()}
    print("failed share: parent %d/%d, change %d/%d"
          % (failed["parent"], attempted["parent"], failed["change"], attempted["change"]))
    for b in bad:
        print("NOT CORRECT: %s" % b)
    sys.exit(1 if bad or worse else 0)


if __name__ == "__main__":
    main()
