#!/usr/bin/env python3
"""Run full_flow plain and instrumented, validate the obs artifacts, and
fail when instrumentation regresses wall clock by more than the budget.

Usage: check_obs_overhead.py path/to/full_flow [--budget 0.10] [--pairs 50]

Writes trace.json and stats.json into the current directory (CI uploads
them as artifacts).  A full_flow run takes milliseconds, so one run says
little: the script times plain and instrumented runs alternately, pair
after pair, and gates on the median of the per-pair ratios.  The two runs
of a pair share the machine's state of the moment, so the ratio cancels
drift that moves both medians; the median ignores the odd scheduler
hiccup.  (On 4 shared vCPUs, over blocks of 15 pairs, the ratio of the
two medians ranged +3% to +23% where the median ratio ranged +5% to +11%.)
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def timed(argv):
    t0 = time.perf_counter()
    r = subprocess.run(argv, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
    dt = time.perf_counter() - t0
    if r.returncode != 0:
        sys.exit(f"FAIL: {' '.join(argv)} exited {r.returncode}")
    return dt


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
    ap.add_argument("--pairs", type=int, default=50,
                    help="alternating plain/instrumented pairs (default 50)")
    args = ap.parse_args()

    plain_argv = [args.full_flow]
    instrumented_argv = [args.full_flow, "--trace", "trace.json",
                         "--stats=stats.json"]
    plain, instrumented = [], []
    for i in range(args.pairs):
        # Swap which side goes first each pair, so neither always runs on
        # the caches the other just warmed.
        order = [(plain, plain_argv), (instrumented, instrumented_argv)]
        for times, argv in order if i % 2 == 0 else reversed(order):
            times.append(timed(argv))

    trace = validate_json("trace.json", ["traceEvents"])
    events = trace["traceEvents"]
    if not any(e.get("ph") == "X" for e in events):
        sys.exit("FAIL: trace.json holds no complete ('X') span events")
    stats = validate_json("stats.json", ["counters"])
    if not stats["counters"]:
        sys.exit("FAIL: stats.json holds no counters")

    plain_ms = statistics.median(plain) * 1e3
    instrumented_ms = statistics.median(instrumented) * 1e3
    overhead = statistics.median(
        i / p for p, i in zip(plain, instrumented)) - 1.0
    print(f"plain        {plain_ms:8.1f} ms (median of {args.pairs})")
    print(f"instrumented {instrumented_ms:8.1f} ms (median of {args.pairs}; "
          f"{len(events)} trace events, {len(stats['counters'])} counters)")
    print(f"overhead     {overhead * 100:+7.1f}%  (median of the pair ratios; "
          f"budget {args.budget:.0%})")
    if overhead > args.budget:
        sys.exit("FAIL: instrumentation overhead exceeds the budget")
    print("OK")


if __name__ == "__main__":
    main()
