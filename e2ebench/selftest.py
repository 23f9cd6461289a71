#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate.

Run from the repository root:

    python3 e2ebench/selftest.py

For every workload, a run with one reference digest corrupted
(--perturb-ref 0: the reference of the first execution's op) must report
correct=false with failed ops -- every execution of that op, and nothing
else on a run that is otherwise clean.
On the default seed that exercises the committed references; on
serve_edit with another seed it exercises the cache-off reference path.
Exits 1 if a perturbed reference goes unnoticed.
"""
import json
import subprocess
import sys

CASES = [
    ("sweep_cold", 1, "committed reference"),
    ("serve_edit", 1, "committed + cache-off reference"),
    ("serve_edit", 2, "cache-off reference"),
    ("amplifier_flow", 1, "committed reference"),
]


def main():
    seconds = json.load(open("BENCHMARK.json"))["run_seconds"]
    ok = True
    for workload, seed, path in CASES:
        cmd = [sys.executable, "e2ebench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
               "--perturb-ref", "0"]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        lines = p.stdout.strip().splitlines()
        r = json.loads(lines[-1]) if p.returncode == 0 and lines else None
        caught = r is not None and not r["correct"] and r["failed"] >= 1
        ok &= caught
        print("%-15s seed %-3d %-32s %s" % (
            workload, seed, path,
            "caught (%d of %d executions failed)" % (r["failed"], r["attempted"])
            if caught else "NOT CAUGHT: %s" % r))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
