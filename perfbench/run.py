#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the measuring program (perfbench/, its own cargo package) and the
live gateway binary (`jmso-gateway`, from the repository workspace) in
release mode into $CARGO_TARGET_DIR (default .bench_build), prints one
`{"host": ...}` line naming the machine and the source revision, then
runs the workload. The last line of standard output is the result line
the measuring program prints. Any build or run failure exits non-zero
without a result line.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["paper-grid", "open-1m", "churn-admission", "gateway-live"]
# Every run must end within this many seconds, builds included.
RUN_LIMIT_S = 175
SCRATCH = ".perfbench_tmp"


def cargo_build(args, env):
    """Build with cargo's output on stderr, so stdout stays the result."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def first_line(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=10)
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError, IndexError):
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, fs in os.walk(path)
            if "target" not in os.path.relpath(d, ROOT).split(os.sep)
            for f in fs
        )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def host_info():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rustc": first_line(["rustc", "-V"]) or "unknown",
        "git_rev": first_line(["git", "rev-parse", "HEAD"]) or "none",
        "source_sha256": source_digest(),
    }


def main():
    start = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = p.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    if not cargo_build(["--manifest-path", "perfbench/Cargo.toml"], env):
        sys.exit("run.py: building the measuring program failed")
    if not cargo_build(
        ["--manifest-path", "Cargo.toml", "-p", "jmso-gateway-svc", "--bin", "jmso-gateway"], env
    ):
        sys.exit("run.py: building jmso-gateway failed")

    print(json.dumps({"host": host_info()}), flush=True)

    cmd = [
        os.path.join(target, "release", "jmso-perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--gateway-bin", os.path.join(target, "release", "jmso-gateway"),
        "--scratch", SCRATCH,
    ]
    left = RUN_LIMIT_S - (time.monotonic() - start)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(left, 30))
    except subprocess.TimeoutExpired:
        # The measuring program and the services it spawned share one
        # process group: stop them all and wait.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("run.py: %s timed out" % a.workload)
    try:
        os.rmdir(os.path.join(ROOT, SCRATCH))
    except OSError:
        pass
    sys.stdout.write(out)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
