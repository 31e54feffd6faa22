#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test

The first call configures and builds perfbench (the datablinder library
from src/ plus the program in perfbench/) in Release mode under
.bench_build/; later calls rebuild only what changed. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the per-layer ledger, including the S_B vs S_C overhead probe,
which runs in its own process pinned to one CPU. The exit code is non-zero
if the build fails or any answer is wrong.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# Time allowed for every perfbench process of one run, build excluded: the
# set-ups and checks, plus the timed phases (two when traced).
SETUP_ALLOWANCE_S = 90
BUILD_TIMEOUT_S = 880


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr (stdout carries results).

    The step runs in its own process group, so a timeout also stops the
    compilers it started.
    """
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out: " + " ".join(cmd))
    if code != 0:
        fail("failed (exit %d): %s" % (code, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under %s/src; run from a full checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs], BUILD_TIMEOUT_S)


def run_binary(args, deadline):
    """Runs perfbench; returns (exit code, stdout lines). stderr passes through."""
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("timed out: perfbench " + " ".join(args))
    return proc.returncode, proc.stdout.splitlines()


def last_json(lines, code, what):
    if not lines:
        fail("%s printed no result (exit status %d)" % (what, code))
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(what + " printed a malformed result: " + lines[-1][:200])


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="check that a planted wrong answer trips the correctness gate")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")

    build()
    phases = 2 if a.trace else 1
    deadline = time.monotonic() + SETUP_ALLOWANCE_S * phases + 2 * a.seconds * phases
    out_dir = os.path.join(BUILD_ROOT, "out")
    os.makedirs(out_dir, exist_ok=True)

    if a.self_test:
        code, lines = run_binary(["--self-test"], deadline)
        print("\n".join(lines))
        sys.exit(code)

    common = ["--seed", str(a.seed), "--out", out_dir]
    code, lines = run_binary(["--workload", a.workload, "--seconds", str(a.seconds),
                              "--trace", str(a.trace)] + common, deadline)
    result = last_json(lines, code, "perfbench")
    for line in lines[:-1]:
        print(line)

    if a.trace:
        probe_code, probe_lines = run_binary(["--probe", "overhead"] + common, deadline)
        probe = last_json(probe_lines, probe_code, "overhead probe")
        result["correct"] = result["correct"] and probe["correct"]
        result["attempted"] += probe["attempted"]
        result["failed"] += probe["failed"]
        result["metrics"].update(probe["metrics"])
        code = code or probe_code

    print(json.dumps(result))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
