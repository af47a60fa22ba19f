#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/selftest.py

1. BENCHMARK.json is well formed (keys, name and unit syntax, bounds).
2. Each workload (wire_durable too, which BENCHMARK.json does not gate)
   at tiny scale completes, passes its checks, fails no op, prints
   exactly the end-to-end metric names BENCHMARK.json lists, each with
   its unit, and prints every ungated end-to-end figure on stderr; a
   traced tiny run prints exactly the per-layer names with their units.
3. Each invariant checker rejects a deliberately corrupted final state:
   the run exits nonzero and names the failed check.
4. A directory holding only BENCHMARK.json and perfbench/ (no engine
   sources) exits nonzero without printing a result.

Exits 0 when every test passes. Takes about two minutes (it builds the
driver first if needed).
"""

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ["tpcc_split", "ycsb_zipf", "wire_durable"]
# End-to-end figures printed on stderr, with their units.
FIGURES = {
    "ops_per_s": "ops/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "window_p99_ms": "ms",
    "window_tput_ratio": "ratio",
    "converge_s": "s",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}
CHECKS = [
    "tpcc_split.split_counts",
    "tpcc_split.customer_gone",
    "tpcc_split.ytd",
    "ycsb_zipf.counter_sum",
    "ycsb_zipf.row_count",
    "wire_durable.sum",
    "wire_durable.row_count",
    "wire_durable.durability",
]

failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(args, cwd=ROOT, runner=RUN):
    out = subprocess.run([sys.executable, runner] + args, cwd=cwd,
                         capture_output=True, text=True, timeout=600)
    result = None
    lines = out.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return out.returncode, result, out.stderr


def check_spec(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    expect(1 <= spec["run_seconds"] <= 60, "run_seconds in [1, 60]")
    expect(2 <= len(spec["workloads"]) <= 8, "2..8 workloads")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(all(NAME.match(n) for n in names), "metric/workload name syntax")
    expect(len(names) == len(set(names)), "names unique")
    expect(all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"]), "workload why <= 200 chars")
    metrics = spec["end_to_end"] + spec["per_layer"]
    expect(all(UNIT.match(m["unit"]) for m in metrics), "unit syntax")
    expect(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]),
           "bounds in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s"
           and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s present with the largest bound")


def same_metrics(result, listed):
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    return got == want


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)

    # wire_durable is not gated in BENCHMARK.json (see README.md) but stays
    # runnable and feeds the traced run, so it is tested like the others.
    for name in WORKLOADS:
        rc, res, err = run(["--workload", name, "--seed", "3", "--seconds",
                            "2", "--trace", "0", "--tiny"])
        ok = rc == 0 and res is not None and res["correct"]
        expect(ok, "%s tiny run passes its checks" % name)
        if not ok:
            print(err[-2000:])
            continue
        expect(res["failed"] == 0 and res["attempted"] > 0,
               "%s attempted > 0 and failed == 0" % name)
        expect(same_metrics(res, spec["end_to_end"]),
               "%s prints exactly the end-to-end metrics" % name)
        printed = dict(re.findall(r"\] figure (\S+) \S+ (\S+)", err))
        expect(printed == FIGURES,
               "%s prints every end-to-end figure with its unit" % name)

    rc, res, err = run(["--workload", "ycsb_zipf", "--seed", "3", "--seconds",
                        "2", "--trace", "1", "--tiny"])
    ok = rc == 0 and res is not None and res["correct"]
    expect(ok, "traced tiny run passes its checks")
    if ok:
        expect(same_metrics(res, spec["per_layer"]),
               "traced run prints exactly the per-layer metrics")
    else:
        print(err[-2000:])

    for check in CHECKS:
        workload = check.split(".")[0]
        rc, res, err = run(["--workload", workload, "--seed", "3",
                            "--seconds", "2", "--tiny", "--corrupt", check])
        expect(rc != 0 and "CHECK FAILED: " + check in err,
               "corrupted state rejected by " + check)

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, res, err = run(["--workload", "ycsb_zipf", "--seed", "1", "--seconds",
                        "1", "--trace", "0"], cwd=bare,
                       runner=os.path.join(bare, "perfbench", "run.py"))
    expect(rc != 0 and res is None,
           "without engine sources: nonzero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
