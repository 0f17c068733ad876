#!/usr/bin/env python3
"""Build and run edgerep's loaded-regime benchmark.

    python3 loadbench/run.py --workload appro_batch [--seed 1] [--seconds 10] [--trace 0]
    python3 loadbench/run.py --workload all          # every workload, one table
    python3 loadbench/run.py --self-test             # determinism, second seed, layer split

Run it from anywhere inside a source tree: it configures and builds
loadbench/CMakeLists.txt (the libraries under src/ plus the loadbench binary)
into .bench_build/loadbench at the tree's root, then runs the binary.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See README.md next to this file.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "loadbench")
BINARY = os.path.join(BUILD_DIR, "loadbench")

WORKLOADS = ["appro_batch", "stream_sharded", "online_watched", "online_flow"]
DEFAULT_SEED = 1
SELF_TEST_SECOND_SEED = 2
# A benchmark run must end within 180 s; the binary's share is capped below.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
RATIO_METRICS = ["admitted_volume_ratio", "admitted_query_ratio",
                 "deadline_hit_ratio"]


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no edgerep sources at {os.path.join(ROOT, 'src')}; "
             "run from a full source tree", 2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "loadbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(cmd)}")
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed ({' '.join(cmd)}), log in {log_path}")


def run_one(workload, seed, seconds, trace):
    """Run the binary once; return (result dict, result hash)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"{workload}: loadbench exited with code {proc.returncode}",
             proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: loadbench printed no JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: unexpected result keys {sorted(result)}")
    m = re.search(r"result_hash=([0-9a-f]+)", proc.stderr)
    return result, (m.group(1) if m else None)


def print_table(workload, result):
    for name, m in result["metrics"].items():
        print(f"  {workload:<15} {name:<26} {m['value']:>16.6g} {m['unit']}")


def run_all(seed, seconds, trace):
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        result, _ = run_one(w, seed, seconds, trace)
        if not trace:  # a traced run prints its own per-layer table
            print_table(w, result)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{w}/{name}"] = m
    print(json.dumps(merged))


def self_test():
    """Each workload twice on the default seed and once on a second seed:
    every run correct, the default-seed runs equal bit for bit (result hash
    and ratios), the second seed a different input still inside the regime.
    Then one traced run per workload, checking that each targeted layer works
    on its own workload and not on the ones that bypass it."""
    problems = []
    seconds = 1
    for w in WORKLOADS:
        a, ha = run_one(w, DEFAULT_SEED, seconds, 0)
        b, hb = run_one(w, DEFAULT_SEED, seconds, 0)
        c, hc = run_one(w, SELF_TEST_SECOND_SEED, seconds, 0)
        for tag, r in (("seed 1 run 1", a), ("seed 1 run 2", b),
                       (f"seed {SELF_TEST_SECOND_SEED}", c)):
            if not r["correct"] or r["failed"] != 0:
                problems.append(f"{w} {tag}: output checks failed")
        if ha is None or ha != hb:
            problems.append(f"{w}: result hash differs between runs "
                            f"({ha} vs {hb})")
        for k in RATIO_METRICS:
            if a["metrics"][k]["value"] != b["metrics"][k]["value"]:
                problems.append(f"{w}: {k} differs between runs")
        if hc == ha:
            problems.append(f"{w}: seed {SELF_TEST_SECOND_SEED} gave the "
                            "same result hash as seed 1")
        print(f"self-test {w}: hash {ha} (seed 1, twice), {hc} "
              f"(seed {SELF_TEST_SECOND_SEED})", file=sys.stderr)

    layer = {}
    for w in WORKLOADS:
        r, _ = run_one(w, SELF_TEST_SECOND_SEED, seconds, 1)
        if not r["correct"] or r["failed"] != 0:
            problems.append(f"{w} traced: output checks failed")
        layer[w] = {k: m["value"] for k, m in r["metrics"].items()}
    # (metric, the only workload on which it may be non-zero)
    owners = [("sim.rate_changes", "online_flow"),
              ("obs.watchdog_share", "online_watched"),
              ("obs.recorder_records", "online_watched"),
              ("core.candidate_index_s", "appro_batch"),
              ("stream.reconcile_s", "stream_sharded"),
              ("stream.conflicts", "stream_sharded")]
    for metric, owner in owners:
        for w in WORKLOADS:
            v = layer[w][metric]
            if (w == owner) != (v != 0):
                problems.append(f"{metric} is {v} on {w}; expected it "
                                f"{'non-zero' if w == owner else 'zero'}")
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED})")
    ap.add_argument("--seconds", type=int, default=10,
                    help="length of the timed solve loop (default 10)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1: report per-layer metrics from a traced run")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload or --self-test is required")
    build()
    if args.self_test:
        sys.exit(self_test())
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
        return
    result, _ = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
