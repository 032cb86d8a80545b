#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the library and the perfbench executable from source (CMake, Release)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
the workload, and prints as its last stdout line one JSON object with
`correct`, `attempted`, `failed` and `metrics`: every end-to-end metric of
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1. The
lines before it carry the run's provenance and, for traced runs, the
per-span self times. The exit code is 0 only when the run passed its
correctness gate. The offered rates, latency limits and the per-layer
metric mapping live in perfbench/config.json.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "service.hpp")):
        log("perfbench: the library sources (src/) are missing; nothing to measure")
        return None
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return None
    cmd = ["cmake", "--build", out, "-j", str(os.cpu_count() or 1), "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        return None
    return out


def source_digest():
    """SHA-256 over the library sources: identifies the measured code when
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark machinery self-test")
    args = ap.parse_args()

    if args.selftest:
        out = build(["perfbench_selftest"])
        if out is None:
            return 2
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    if args.workload not in config["workloads"]:
        log("perfbench: unknown workload", args.workload)
        return 2
    workload = config["workloads"][args.workload]

    out = build(["perfbench"])
    if out is None:
        log("perfbench: build failed")
        return 2
    exe = os.path.join(out, "perfbench")
    info = json.loads(subprocess.run([exe, "build-info"], capture_output=True, text=True,
                                     check=True).stdout)
    if info["refusal"] or info["build_type"] != "Release":
        log("perfbench: refusing to measure a", info["build_type"], "build:", info["refusal"])
        return 3

    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rate-low", str(workload["rate_low"]), "--rate-high", str(workload["rate_high"]),
           "--run-dir", os.path.join(out, "run")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 4
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: run failed with code", proc.returncode)
        return 4
    raw = json.loads(lines[-1])
    values = raw["values"]

    metrics = {}
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = []
    for m in listed:
        value = values.get(m["name"])
        if value is None:
            if not args.trace:
                missing.append(m["name"])
                continue
            value = 0.0  # the workload does not exercise this layer
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = bool(raw["correct"]) and not missing
    for name in missing:
        log("perfbench: metric not measured:", name)
    for problem in raw["problems"]:
        log("perfbench: correctness gate:", problem)

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "build_type": info["build_type"],
        "compiler": info["compiler"], "commit": commit(), "source_digest": source_digest(),
        "host": platform.machine(), "held_out_seed": config["held_out_seed"],
        "rate_low": workload["rate_low"], "rate_high": workload["rate_high"],
        "samples_low": values.get("samples.low"), "samples_high": values.get("samples.high"),
        "latency_limit_ms": workload["latency_limit_ms"],
        "meets_latency_limit": values.get("lat_p99_ms.high", 0.0) <= workload["latency_limit_ms"],
        "emission_digest": raw["digest"] or None,
    }
    print(json.dumps({"provenance": provenance}))
    if args.trace:
        print(json.dumps({"self_time_s": raw["self_s"]}))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
