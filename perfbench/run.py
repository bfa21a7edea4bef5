#!/usr/bin/env python3
"""Build the host-cost benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark and the library sources it
links are compiled (Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; the build is
incremental, so only the first run pays for it. Build output goes to
stderr; the benchmark's own stdout is passed through, so its last line is
the result object. The exit code is the benchmark's, or 2 when the build
fails. A traced run writes its spans (Chrome trace) next to the build as
spans-<workload>-seed<n>.json.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", "4"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = parser.parse_known_args()

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [
        os.path.join(out, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--expected-dir", os.path.join(HERE, "expected"),
    ]
    if args.trace == "1":
        spans = "spans-%s-seed%d.json" % (args.workload, args.seed)
        command += ["--spans-out", os.path.join(out, spans)]
    sys.stdout.flush()
    return subprocess.run(command + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
