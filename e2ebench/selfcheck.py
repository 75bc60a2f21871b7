#!/usr/bin/env python3
"""Short self-check of the benchmark itself.

Usage (from the repository root):

    python3 e2ebench/selfcheck.py [--seconds 2] [--seed 1]

Runs every workload of BENCHMARK.json briefly, untraced and traced, and
asserts that
  * every declared metric is printed, by name, with its declared unit;
  * the oracles pass (`correct` is true, `failed` is 0);
  * in the traced run, the layers' self times plus `unattributed` sum to
    the traced wall time, with `unattributed` non-negative.
Exits non-zero on the first violated assertion.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "e2ebench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise AssertionError(f"{workload} trace={trace}: exit {done.returncode}")
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def check(bench, workload, seed, seconds, trace):
    record, result = run(workload, seed, seconds, trace)
    tag = f"{workload} trace={trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys"
    assert result["correct"] is True and result["failed"] == 0, f"{tag}: oracle failures"
    assert result["attempted"] >= 1, f"{tag}: nothing attempted"
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in declared}, f"{tag}: metric names differ"
    for m in declared:
        value = got[m["name"]]
        assert value["unit"] == m["unit"], f"{tag}: unit of {m['name']}"
        assert isinstance(value["value"], (int, float)), f"{tag}: value of {m['name']}"
        if not trace:
            assert value["value"] > 0, f"{tag}: {m['name']} is not positive"
    if trace:
        cov = record["coverage"]
        total = cov["layers_s"] + cov["unattributed_s"]
        assert cov["unattributed_s"] >= 0, f"{tag}: negative unattributed time"
        assert abs(total - cov["wall_s"]) <= 1e-6 * max(1.0, cov["wall_s"]), (
            f"{tag}: layers + unattributed = {total} s, traced wall = {cov['wall_s']} s")
        print(f"ok  {tag}: layers {cov['layers_s']:.4f} s + unattributed "
              f"{cov['unattributed_s']:.4f} s = wall {cov['wall_s']:.4f} s")
    else:
        print(f"ok  {tag}: {len(got)} metrics, {result['attempted']} ops, 0 failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    try:
        for w in bench["workloads"]:
            for trace in (0, 1):
                check(bench, w["name"], args.seed, args.seconds, trace)
    except AssertionError as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
    print("self-check passed")


if __name__ == "__main__":
    main()
