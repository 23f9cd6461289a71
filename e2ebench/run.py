#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload sweep_cold --seed 1 --seconds 15 --trace 0

Builds the AMGEN libraries, the amg_serve daemon and the e2e_bench program
from source (Release) into $CARGO_TARGET_DIR, default .bench_build, then
runs one workload.  The last line of standard output is the result JSON
(see README.md in this directory).  Exits non-zero without a result when
the sources are missing or the build fails.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("sweep_cold", "serve_edit", "amplifier_flow")


def build(build_dir):
    """Configure once, then bring the two targets up to date."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        print("run.py: no AMGEN sources under src/; run from the repository root",
              file=sys.stderr)
        return False
    cmds = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", "e2ebench", "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    cmds.append(["cmake", "--build", build_dir, "-j", jobs,
                 "--target", "e2e_bench", "amg_serve"])
    for cmd in cmds:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--write-refs", action="store_true",
                    help="record this run's digests as the committed reference")
    ap.add_argument("--perturb-ref", type=int, default=-1, metavar="I",
                    help="self-test: corrupt reference I; the run must fail")
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        return 1
    cmd = [os.path.join(build_dir, "e2e_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.write_refs:
        cmd.append("--write-refs")
    if args.perturb_ref >= 0:
        cmd += ["--perturb-ref", str(args.perturb_ref)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
