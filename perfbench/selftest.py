"""Tiny-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at ``--size tiny`` for one second,
untraced and traced, and checks that the last output line carries exactly
the contract keys and every metric BENCHMARK.json names, with its unit.
It also checks that the benchmark fails, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 1 on any failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
KEYS = {"correct", "attempted", "failed", "metrics"}


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_run(spec, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", str(trace),
                             "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        return ["exit %d: %s" % (proc.returncode, proc.stderr[-500:])]
    out = last_json(proc.stdout)
    errors = []
    if set(out) != KEYS:
        errors.append("keys %s" % sorted(out))
    if out.get("correct") is not True or out.get("failed") != 0:
        errors.append("not correct: %s" % out)
    if not isinstance(out.get("attempted"), int) or out["attempted"] < 1:
        errors.append("attempted %r" % out.get("attempted"))
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = out.get("metrics", {})
    if set(got) != set(want):
        errors.append("metrics missing %s, extra %s"
                      % (sorted(set(want) - set(got)),
                         sorted(set(got) - set(want))))
    for name, unit in want.items():
        entry = got.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            errors.append("%s: unit %r != %r" % (name, entry.get("unit"),
                                                 unit))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: value %r" % (name, value))
    return errors


def check_bare(spec):
    """Without the package the benchmark must fail and print no result."""
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"],
                             "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True,
                          timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or any(line.startswith("{") for line in lines):
        return ["bare directory: exit %d, stdout %r"
                % (proc.returncode, proc.stdout[-300:])]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors = check_run(spec, workload, trace)
            print("%-18s trace %d: %s" % (workload, trace,
                                          "; ".join(errors) or "ok"))
            failures += bool(errors)
    errors = check_bare(spec)
    print("bare directory      : %s" % ("; ".join(errors) or "ok"))
    failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
