#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

Runs every workload at the tiny size on seed 7, untraced and traced,
and checks that the correctness gate passes and that every metric
BENCHMARK.json names is reported, finite, with its unit.  Then checks
that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(what, ok):
        print("%s %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                   "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
                   "--size", "tiny"]
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = "%s trace=%d" % (w["name"], trace)
            expect(label + " exits 0", res.returncode == 0)
            out = result_of(res.stdout) if res.returncode == 0 else None
            if out is None:
                sys.stderr.write(res.stdout + res.stderr)
                continue
            expect(label + " result has exactly the contract keys",
                   sorted(out) == ["attempted", "correct", "failed", "metrics"])
            expect(label + " correctness gate passes",
                   out["correct"] and out["failed"] == 0 and out["attempted"] >= 1)
            names = [m["name"] for m in spec[group]]
            expect(label + " reports exactly the %s metrics" % group,
                   sorted(out["metrics"]) == sorted(names))
            for m in spec[group]:
                got = out["metrics"].get(m["name"], {})
                v = got.get("value")
                expect("%s %s finite, unit %s" % (label, m["name"], m["unit"]),
                       isinstance(v, (int, float)) and math.isfinite(v)
                       and got.get("unit") == m["unit"])

    bare = os.path.join(ROOT, ".perfbench", "bare-%d" % os.getpid())
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        res = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                                "--seed", str(SEED), "--seconds", "1",
                                                "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=180)
        last = res.stdout.strip().splitlines()[-1:] or [""]
        expect("bare checkout exits non-zero without a result",
               res.returncode != 0 and not last[0].startswith("{"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
