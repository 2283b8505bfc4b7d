#!/usr/bin/env python3
"""Build the library and the benchmark binary, then run one workload.

    python3 perfbench/run.py --workload flood_fixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  The build goes to $CARGO_TARGET_DIR (default
.bench_build) under that root; cmake output goes to stderr, so the last line
of standard output is the benchmark's result object.  --smoke runs every
workload at small size in both modes, each in its own process, and checks
that every metric BENCHMARK.json names is present with its unit and that no
operation failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("flood_fixed", "flood_wan", "churn_verify", "repair_lossy")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    compile_ = ["cmake", "--build", out, "--target", "lhg_perfbench", "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "lhg_perfbench")


def src_digest():
    """SHA-256 over the library sources: provenance where git is absent."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def binary_env():
    env = dict(os.environ)
    env["LHG_THREADS"] = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    env["LHG_GIT_SHA"] = git_sha()
    env["LHG_SRC_DIGEST"] = src_digest()
    return env


def run_binary(binary, args, env):
    try:
        proc = subprocess.run([binary, *args], capture_output=True, text=True,
                              env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary timed out after {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark binary exited with code {proc.returncode}")
    return lines


def smoke(binary, env):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            lines = run_binary(binary, ["--workload", workload, "--seed", "1",
                                        "--seconds", "1", "--trace", trace,
                                        "--small"], env)
            result = json.loads(lines[-1])
            metrics = result["metrics"]
            for m in spec[section]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{workload}: {m['name']} missing")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{workload}: {m['name']} unit {got['unit']}")
            extra = set(metrics) - {m["name"] for m in spec[section]}
            if extra:
                problems.append(f"{workload}: unexpected {sorted(extra)}")
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{workload} trace={trace}: error_rate "
                                f"{result['failed']}/{result['attempted']}")
            print(f"smoke {workload} trace={trace}: {len(metrics)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")
    for p in problems:
        print(f"smoke FAIL: {p}")
    print("smoke OK" if not problems else "smoke FAILED")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    env = binary_env()
    if args.smoke:
        return smoke(binary, env)
    lines = run_binary(binary, ["--workload", args.workload,
                                "--seed", str(args.seed),
                                "--seconds", str(args.seconds),
                                "--trace", args.trace], env)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
