#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py [workload ...]

For each workload (default: every workload of BENCHMARK.json):
  * names: a timed run prints exactly the end_to_end metrics of
    BENCHMARK.json and a traced run exactly its per_layer metrics, with the
    same units, and both pass every check at the default seed;
  * inputs: the generated inputs are a pure function of --seed (same seed,
    same inputs; another seed, other inputs).
Once:
  * negative control: a deliberately wrong pinned trace hash makes a cell
    fail, so the run reports failed >= 1, correct = false and exits non-zero.
Exits non-zero on the first failed test. Takes a few minutes: every
workload runs its full cell set.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def bench(workload, *args, seed=1, seconds=1, trace=0):
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)] + list(args)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stdout


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def test_names(workload, spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, result, _ = bench(workload, trace=trace)
        check(code == 0 and result is not None and result["correct"] and result["failed"] == 0,
              "%s --trace %d passes every check at the default seed" % (workload, trace))
        printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        check(printed == declared,
              "%s --trace %d prints exactly the %s metrics of BENCHMARK.json" %
              (workload, trace, key))


def test_inputs(workload):
    def inputs(seed):
        code, _, out = bench(workload, "--dump-inputs", seed=seed)
        check(code == 0, "%s --dump-inputs --seed %d runs" % (workload, seed))
        return out.strip().splitlines()[-1]

    first = inputs(7)
    check(first == inputs(7), "%s: same seed gives the same inputs" % workload)
    check(first != inputs(8), "%s: another seed gives other inputs" % workload)


def test_negative_control(build_dir):
    bad = os.path.join(build_dir, "selftest-expected")
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(os.path.join(HERE, "expected"), bad)
    path = os.path.join(bad, "svc_steady.json")
    with open(path) as f:
        text = f.read()
    doc = json.loads(text)
    good = doc["cells"][0]["trace_hash"]
    wrong = "%016x" % (int(good, 16) ^ 1)
    with open(path, "w") as f:
        f.write(text.replace(good, wrong, 1))
    code, result, out = bench("svc_steady", "--expected-dir", bad)
    shutil.rmtree(bad, ignore_errors=True)
    check(code != 0, "a wrong pinned trace_hash makes the run exit non-zero")
    check(result is not None and result["failed"] >= 1 and not result["correct"],
          "a wrong pinned trace_hash registers as a failed cell")
    check("differs from the pinned outputs" in out, "the failure names the pinned mismatch")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    chosen = sys.argv[1:] or names
    for workload in chosen:
        check(workload in names, "%s is a workload of BENCHMARK.json" % workload)
        test_inputs(workload)
        test_names(workload, spec)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    test_negative_control(os.path.join(ROOT, target, "perfbench"))
    print("all benchmark self-tests passed")


if __name__ == "__main__":
    main()
