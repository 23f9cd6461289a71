#!/usr/bin/env python3
"""Performance-trend gate over the committed benchmark baselines.

The benches write machine-readable reports (BENCH_vm.json,
BENCH_batch.json, BENCH_spatial.json, BENCH_serve.json) next to
wherever they run; a copy of each report is committed at the repository
root as the baseline.
This script compares a fresh report against its committed baseline and
fails when performance *regressed*:

* every numeric metric whose name starts with "speedup" must stay within
  --tolerance (default 30%) of the baseline: fresh >= committed / 1.3.
  Ratios are used, not wall times, so the gate is machine-independent —
  a slower CI box slows numerator and denominator alike.
* every numeric metric whose name ends with "_exponent" (a fitted log-log
  scaling slope: compact_scaling_exponent, prefix_bytes_exponent, ...) is
  a ceiling: fresh <= committed + EXPONENT_SLACK (0.2, absolute).  A
  slope is machine-independent too, and an absolute slack keeps a
  near-linear baseline from drifting back towards quadratic.
* every boolean gate that is true in the baseline (byte_identical,
  all_cache_hits, speedup_5x, ...) must still be true.

Getting *faster* (or flatter) never fails; run with --update to fold an
intentional improvement (or an accepted regression) into the committed
baselines.

Usage:
    python3 scripts/check_bench_trend.py --fresh-dir build
    python3 scripts/check_bench_trend.py --fresh-dir build --require BENCH_vm.json
    python3 scripts/check_bench_trend.py --fresh-dir build --update

A report with no committed baseline yet passes with a note (the first
--update commits it).  A --require'd report missing from --fresh-dir
fails: CI lists the reports its bench steps are supposed to have
produced, so a bench that silently stopped writing its file cannot turn
the gate vacuous.
"""

import argparse
import json
import os
import shutil
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Allowed absolute rise of a *_exponent scaling slope over its committed
# value: above the run-to-run spread of the fits (bench_spatial's Sweep
# slope reads 0.92-0.97), far below the distance to a quadratic step.
EXPONENT_SLACK = 0.2

REPORTS = [
    "BENCH_vm.json",
    "BENCH_batch.json",
    "BENCH_spatial.json",
    "BENCH_serve.json",
]


def walk_metrics(obj, prefix=""):
    """Yield (dotted_name, value) for every scalar in a nested report.

    Lists (per-sample wall times) are skipped: samples are raw context,
    the gated metrics are the top-level ratios computed from them.
    """
    if isinstance(obj, dict):
        for key, value in sorted(obj.items()):
            name = f"{prefix}.{key}" if prefix else key
            if isinstance(value, dict):
                yield from walk_metrics(value, name)
            elif isinstance(value, (bool, int, float)) or value is None:
                yield name, value


def is_exponent(name):
    return name.rsplit(".", 1)[-1].endswith("_exponent")


def gated(name, value):
    leaf = name.rsplit(".", 1)[-1]
    if isinstance(value, bool):
        return value  # only committed-true booleans gate
    if isinstance(value, (int, float)):
        return leaf.startswith("speedup") or is_exponent(name)
    return False


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_report(report, fresh_dir, tolerance, update):
    baseline_path = os.path.join(REPO, report)
    fresh_path = os.path.join(fresh_dir, report)
    if not os.path.exists(fresh_path):
        return None, [f"{report}: fresh report not found in {fresh_dir}"]

    try:
        with open(fresh_path, encoding="utf-8") as f:
            fresh = dict(walk_metrics(json.load(f)))
    except (OSError, ValueError) as e:
        return None, [f"{report}: cannot parse fresh report: {e}"]

    if not os.path.exists(baseline_path):
        if update:
            shutil.copyfile(fresh_path, baseline_path)
            return f"{report}: no baseline yet; committed the fresh report", []
        return f"{report}: no committed baseline yet (run --update)", []

    try:
        with open(baseline_path, encoding="utf-8") as f:
            base = dict(walk_metrics(json.load(f)))
    except (OSError, ValueError) as e:
        return None, [f"{report}: cannot parse committed baseline: {e}"]

    errors = []
    gates = 0
    for name, committed in sorted(base.items()):
        if not gated(name, committed):
            continue
        gates += 1
        if name not in fresh:
            errors.append(f"{report}: gated metric {name} disappeared from "
                          "the fresh report")
        elif isinstance(committed, bool):
            if fresh[name] is not True:
                errors.append(f"{report}: boolean gate {name} was true in "
                              f"the baseline but is {fresh[name]!r} now")
        elif is_exponent(name):
            ceiling = committed + EXPONENT_SLACK
            if not is_number(fresh[name]) or fresh[name] > ceiling:
                errors.append(
                    f"{report}: {name} grew: {fresh[name]!r} vs committed "
                    f"{committed:g} (ceiling {ceiling:.3g} at "
                    f"+{EXPONENT_SLACK:g} slack)")
        else:
            floor = committed / (1.0 + tolerance)
            if not is_number(fresh[name]) or fresh[name] < floor:
                errors.append(
                    f"{report}: {name} regressed: {fresh[name]!r} vs "
                    f"committed {committed:g} (floor {floor:.3g} at "
                    f"{tolerance:.0%} tolerance)")
    if gates == 0:
        errors.append(f"{report}: baseline has no gated metrics (no "
                      "speedup_* or *_exponent numbers, no true booleans); "
                      "the trend check would be vacuous")

    if update and not errors:
        shutil.copyfile(fresh_path, baseline_path)
        return f"{report}: {gates} gate(s) ok; baseline refreshed", errors
    return (f"{report}: {gates} gate(s) within {tolerance:.0%} "
            f"(exponents within +{EXPONENT_SLACK:g})"), errors


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fresh-dir", default="build",
                    help="directory holding the freshly written reports")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="allowed relative drop of a speedup ratio (0.30 = "
                         "fresh may be 30%% below the committed value)")
    ap.add_argument("--require", nargs="+", default=[], metavar="REPORT",
                    help="reports that MUST be present in --fresh-dir")
    ap.add_argument("--update", action="store_true",
                    help="copy passing fresh reports over the committed "
                         "baselines")
    args = ap.parse_args()

    fresh_dir = args.fresh_dir
    if not os.path.isabs(fresh_dir):
        fresh_dir = os.path.join(os.getcwd(), fresh_dir)

    unknown = sorted(set(args.require) - set(REPORTS))
    if unknown:
        print(f"check_bench_trend: unknown report(s) {', '.join(unknown)}; "
              f"known: {', '.join(REPORTS)}", file=sys.stderr)
        return 2

    errors = []
    for report in REPORTS:
        required = report in args.require
        if not required and not os.path.exists(
                os.path.join(fresh_dir, report)):
            print(f"check_bench_trend: {report}: not produced by this run; "
                  "skipped")
            continue
        note, errs = check_report(report, fresh_dir, args.tolerance,
                                  args.update)
        if note:
            print(f"check_bench_trend: {note}")
        errors += errs

    if errors:
        for e in errors:
            print(f"check_bench_trend: {e}", file=sys.stderr)
        print(f"check_bench_trend: FAILED ({len(errors)} problem(s))",
              file=sys.stderr)
        return 1
    print("check_bench_trend: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
