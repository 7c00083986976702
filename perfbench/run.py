#!/usr/bin/env python3
"""VectorMC end-to-end benchmark.

Builds perfbench/harness.cpp against the VectorMC sources of this checkout
(once; later runs only re-check the build) and runs one workload:

    python3 perfbench/run.py --workload small --seed 1 --seconds 10 --trace 0

The last line of stdout is the harness's JSON result. Build output goes to
stderr, and only when a build step fails. The build tree is
.bench_build/perfbench at the checkout root.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("small", "large")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, capture):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, start_new_session=True,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=subprocess.STDOUT if capture else sys.stderr)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"perfbench: {cmd[0]} timed out after {timeout}s")
    return proc.returncode, (out or b"").decode(errors="replace")


def build(build_dir):
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "vmc_perfbench", "-j", jobs])
    for cmd in steps:
        code, out = run(cmd, BUILD_TIMEOUT_S, capture=True)
        if code != 0:
            sys.stderr.write(out)
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return build_dir / "vmc_perfbench"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seed < 0 or not 1 <= a.seconds <= 60:
        sys.exit("perfbench: need --seed >= 0 and 1 <= --seconds <= 60")
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"perfbench: no VectorMC sources at {ROOT}")

    binary = build(ROOT / ".bench_build" / "perfbench")
    code, out = run([str(binary), "--workload", a.workload, "--seed",
                     str(a.seed), "--seconds", str(a.seconds), "--trace",
                     str(a.trace)], RUN_TIMEOUT_S, capture=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        sys.exit(f"perfbench: harness exited with {code}")
    result = json.loads(lines[-1])  # fail loudly on a malformed result
    sys.stdout.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")


if __name__ == "__main__":
    main()
