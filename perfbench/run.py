#!/usr/bin/env python3
"""Builds and runs the BullFrog benchmark driver (perfbench/bfbench).

Run from the repository root:

    python3 perfbench/run.py --workload tpcc_split --seed 1 --seconds 10 --trace 0

The last stdout line is the driver's JSON result; the line before it is a
stamp recording where the result came from (nproc, source revision, build
type, seed, fixed rates). Every behaviour-changing BF_* variable is
cleared before the driver starts, so results never depend on the caller's
shell. The tpcc_split offered rate comes from perfbench/rates.json and is
never calibrated inside a run; --calibrate re-measures the capacity it
was derived from (see README.md).

Builds land in .bench_build/ and per-run scratch files (WAL segments,
span dumps) in .bench_build/work/, both inside the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "Release"
WORKLOADS = ("tpcc_split", "ycsb_zipf", "wire_durable")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def pinned_env():
    """The caller's environment minus every BF_* knob."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("BF_")}
    cleared = sorted(k for k in os.environ if k.startswith("BF_"))
    if cleared:
        log("cleared environment: " + " ".join(cleared))
    return env


def source_digest():
    """Content hash of the engine and benchmark sources (the checkout the
    benchmark runs in is not a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(env):
    binary = os.path.join(BUILD_DIR, "bfbench")
    cfg = ["cmake", "-S", HERE, "-B", BUILD_DIR,
           "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
    steps = [cfg, ["cmake", "--build", BUILD_DIR, "-j4", "--target",
                   "bfbench"]]
    for cmd in steps:
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                             text=True)
        if out.returncode != 0:
            log(out.stdout[-4000:] + out.stderr[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny data sets (the benchmark's own tests)")
    ap.add_argument("--corrupt", default="",
                    help="violate the named invariant after the run")
    ap.add_argument("--calibrate", action="store_true",
                    help="measure closed-loop tpcc capacity and exit")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("engine sources (src/) not found next to perfbench/")
        return 2
    env = pinned_env()
    with open(os.path.join(HERE, "rates.json")) as f:
        rates = json.load(f)
    rate = rates["tpcc_split"]["rate_tps"]

    binary = build(env)
    if binary is None:
        return 3

    work_dir = os.path.join(ROOT, ".bench_build", "work",
                            "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--rate", repr(rate), "--work-dir", work_dir]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    if args.calibrate:
        cmd.append("--calibrate")

    stamp = {
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "build_type": BUILD_TYPE,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "rates": {"tpcc_split_tps": rate},
    }
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver timed out after %d s" % RUN_TIMEOUT_S)
        return 4
    finally:
        if not args.trace:
            shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        log("driver printed nothing (exit %d)" % out.returncode)
        return out.returncode or 5
    for line in lines[:-1]:
        print(line)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(lines[-1], flush=True)
    return out.returncode


if __name__ == "__main__":
    sys.exit(main())
