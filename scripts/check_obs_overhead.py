#!/usr/bin/env python3
"""Run full_flow plain and instrumented, validate the obs artifacts, and
fail when instrumentation regresses wall clock by more than the budget.

Usage: check_obs_overhead.py path/to/full_flow [--budget 0.10]

Writes trace.json and stats.json into the current directory (CI uploads
them as artifacts).  Timing is best-of-3 per configuration so a single
scheduler hiccup does not fail the build.
"""
import argparse
import json
import subprocess
import sys
import time


def best_of(n, argv):
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        r = subprocess.run(argv, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
        dt = time.perf_counter() - t0
        if r.returncode != 0:
            sys.exit(f"FAIL: {' '.join(argv)} exited {r.returncode}")
        best = min(best, dt)
    return best


def validate_json(path, required_keys):
    with open(path) as f:
        data = json.load(f)  # raises on malformed JSON
    for key in required_keys:
        if key not in data:
            sys.exit(f"FAIL: {path} lacks required key '{key}'")
    return data


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("full_flow", help="path to the built full_flow binary")
    ap.add_argument("--budget", type=float, default=0.10,
                    help="allowed fractional slowdown (default 0.10)")
    ap.add_argument("--runs", type=int, default=3)
    args = ap.parse_args()

    plain = best_of(args.runs, [args.full_flow])
    instrumented = best_of(
        args.runs,
        [args.full_flow, "--trace", "trace.json", "--stats=stats.json"])

    trace = validate_json("trace.json", ["traceEvents"])
    events = trace["traceEvents"]
    if not any(e.get("ph") == "X" for e in events):
        sys.exit("FAIL: trace.json holds no complete ('X') span events")
    stats = validate_json("stats.json", ["counters"])
    if not stats["counters"]:
        sys.exit("FAIL: stats.json holds no counters")

    overhead = instrumented / plain - 1.0
    print(f"plain        {plain * 1e3:8.1f} ms (best of {args.runs})")
    print(f"instrumented {instrumented * 1e3:8.1f} ms "
          f"({len(events)} trace events, {len(stats['counters'])} counters)")
    print(f"overhead     {overhead * 100:+7.1f}%  (budget {args.budget:.0%})")
    if overhead > args.budget:
        sys.exit("FAIL: instrumentation overhead exceeds the budget")
    print("OK")


if __name__ == "__main__":
    main()
