#!/usr/bin/env python3
"""Builds the workspace from source and runs one benchmark workload.

Usage (from the repository root):

    python3 e2ebench/run.py --workload <serve_socket|knn_adaptive|monitor_feed> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `sdtw` CLI (the serve workload's daemon) and the harness in
`e2ebench/` into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs
the harness. Build output goes to stderr; stdout carries the run record
and, as its last line, the result object. Exits non-zero without a
result when the build or the run fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("serve_socket", "knn_adaptive", "monitor_feed")
# Every run must end within 180 s; leave room for start-up and clean-up.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    """Builds the daemon binary and the harness; stdout stays clean."""
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "sdtw_cli"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("e2ebench", "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "shims"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-sha1:" + digest.hexdigest()


def rustc_version(env):
    try:
        out = subprocess.run(["rustc", "-V"], env=env, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail(f"no workspace to build at {ROOT}")
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build(env)

    # relative paths keep the daemon's socket path short
    out_dir = os.path.relpath(os.path.join(target, "e2ebench"), ROOT)
    harness = os.path.join(target, "release", "sdtw_e2ebench")
    cmd = [harness,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", args.trace,
           "--sdtw", os.path.relpath(os.path.join(target, "release", "sdtw"), ROOT),
           "--out", out_dir,
           "--commit", source_id(),
           "--rustc", rustc_version(env)]
    # its own process group, so a timeout also stops the serve daemon
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            pass
        else:
            # a straggler of the group (e.g. a daemon) must not outlive us
            os.killpg(proc.pid, signal.SIGKILL)
            time.sleep(0.1)
    if proc.returncode != 0:
        fail(f"harness exited with {proc.returncode}")
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        fail("harness printed no result")
    for line in lines:
        print(line)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
