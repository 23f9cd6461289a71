#!/usr/bin/env python3
"""Steadiness runner for the end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/steady.py

For each workload it runs the benchmark ten times on seeds 1..10, then ten
times on the held-out seeds 1001..1010, each run for BENCHMARK.json's
run_seconds.  For every end-to-end metric it prints each run's value, the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median, and flags (FLAG) a spread above the metric's bound from
BENCHMARK.json, or a held-out median worse than the first median by more
than the bound.  It then runs seed 1 twice untraced and twice traced and
requires layout_area_um2 and every count the traced run marks exact to
repeat exactly.  Exits 1 when anything is flagged or any run is incorrect.
"""
import json
import statistics
import subprocess
import sys

WORKLOADS = ("sweep_cold", "serve_edit", "amplifier_flow")
RUNS = 10
SEED = 1
HELD_OUT_SEED = 1001


def run(workload, seed, seconds, trace):
    """One benchmark run: its result and, for a traced run, the exact counts."""
    cmd = [sys.executable, "e2ebench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode or not lines:
        raise SystemExit("run failed (exit %d): %s" % (p.returncode, " ".join(cmd)))
    exact = next((l.split()[1:] for l in lines if l.startswith("exact:")), [])
    return json.loads(lines[-1]), exact


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse(first, second, better):
    """Relative worsening of `second` against `first` (positive = worse)."""
    if not first:
        return 0.0
    return (second - first) / first if better == "lower" else (first - second) / first


def main():
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    flagged = False
    for w in WORKLOADS:
        medians = []
        for label, first in (("seeds %d.." % SEED, SEED),
                             ("held-out %d.." % HELD_OUT_SEED, HELD_OUT_SEED)):
            results = [run(w, first + i, seconds, False)[0] for i in range(RUNS)]
            bad = [r for r in results if not r["correct"] or r["failed"]]
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            print("\n%s, %s: %d runs, %d ops attempted, %d failed%s" % (
                w, label, len(results), attempted, failed,
                "  FLAG incorrect runs" if bad else ""))
            flagged |= bool(bad)
            print("  %-18s %12s %12s %12s %8s %6s" % (
                "metric", "median", "q1", "q3", "spread", "bound"))
            meds = {}
            for name, m in e2e.items():
                vals = [r["metrics"][name]["value"] for r in results]
                med, q1, q3, sp = spread(vals)
                print("    %s: %s" % (name, " ".join("%.5g" % v for v in vals)))
                meds[name] = med
                flag = sp > m["bound"]
                flagged |= flag
                print("  %-18s %12.5g %12.5g %12.5g %7.2f%% %5.0f%%%s" % (
                    name, med, q1, q3, 100 * sp, 100 * m["bound"],
                    "  FLAG" if flag else ""))
            medians.append(meds)
        for name, m in e2e.items():
            d = worse(medians[0][name], medians[1][name], m["better"])
            if d > m["bound"]:
                flagged = True
                print("  FLAG held-out median of %s worse by %.1f%% (bound %.0f%%)"
                      % (name, 100 * d, 100 * m["bound"]))

        # Determinism: the same seed twice gives the same area and counts.
        a, _ = run(w, SEED, seconds, False)
        b, _ = run(w, SEED, seconds, False)
        same = (a["metrics"]["layout_area_um2"]["value"]
                == b["metrics"]["layout_area_um2"]["value"])
        print("  determinism: layout_area_um2 %s across two runs of seed %d" % (
            "identical" if same else "DRIFTED  FLAG", SEED))
        flagged |= not same
        ta, exact = run(w, SEED, seconds, True)
        tb, _ = run(w, SEED, seconds, True)
        drift = [k for k in exact
                 if ta["metrics"][k]["value"] != tb["metrics"][k]["value"]]
        flagged |= bool(drift) or not exact or not (ta["correct"] and tb["correct"])
        print("  determinism: %d traced exact counts %s" % (
            len(exact), "identical" if exact and not drift
            else "DRIFTED " + ",".join(drift) + "  FLAG"))
    print("\nresult: %s" % ("FLAGGED" if flagged else "steady"))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
