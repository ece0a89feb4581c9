#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ingest|served|durable|analytics \
        --seed N --seconds S --trace 0|1

The C++ benchmark binary (perfbench/src) is configured and built with
CMake under .bench_build/ on first use, together with the library layers
in src/.
Every line the binary prints is passed through; then an environment
block, then the result object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics, which every
workload reports with its own unit of work; with --trace 1 the per-layer
metrics plus trace_overhead.<metric>, the traced minus the untraced value
of each end-to-end metric. layers.json says what each end-to-end metric
measures on each workload, on which workload each per-layer metric is
measured and which metric it should move. A per-layer metric that
another workload measures (a server figure on ingest, say) is reported
as 0. The metric names and units are checked against
BENCHMARK.json. Exits non-zero, after the result, when an answer
disagreed with the oracle, and without a result on any other failure.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DATA = os.path.join(ROOT, ".bench_build", "perfbench-data")
# Each invocation must end within 180 s (900 s when it builds first).
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def read(path, default="unknown"):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def cpu_times():
    """The aggregate cpu line of /proc/stat, as a list of tick counts."""
    for line in read("/proc/stat", "").splitlines():
        if line.startswith("cpu "):
            return [int(x) for x in line.split()[1:]]
    return []


def busy_machine(start, end):
    """Shares of CPU time lost to the host (steal) and spent waiting on
    the disk (iowait) across the run, so a noisy neighbour shows."""
    if len(start) < 8 or len(end) < 8:
        return {}
    delta = [b - a for a, b in zip(start, end)]
    total = sum(delta[:8]) or 1
    return {"cpu_steal_pct": round(100.0 * delta[7] / total, 2),
            "cpu_iowait_pct": round(100.0 * delta[4] / total, 2)}


def machine_env():
    cpu = "unknown"
    for line in read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l3_cache": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "git_commit": commit,
    }


def load_json(name):
    with open(os.path.join(ROOT if name == "BENCHMARK.json" else HERE,
                           name)) as f:
        return json.load(f)


def expected_metrics(layers, workload, trace):
    """The metric names the binary reports for one workload."""
    end_to_end = set(layers["end_to_end"])
    if not trace:
        return end_to_end
    names = {name for name, info in layers["per_layer"].items()
             if info["workload"] == workload}
    return names | {"trace_overhead." + m for m in end_to_end}


def complete_metrics(metrics, manifest, trace):
    """Checks units against BENCHMARK.json and adds every per-layer metric
    another workload measures, as 0."""
    units = {m["name"]: m["unit"]
             for m in manifest["per_layer" if trace else "end_to_end"]}
    for name, m in metrics.items():
        if units.get(name) != m["unit"]:
            fail("metric %s: unit %s, BENCHMARK.json says %s" % (
                name, m["unit"], units.get(name)))
    for name, unit in units.items():
        metrics.setdefault(name, {"value": 0.0, "unit": unit})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "served", "durable", "analytics"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    os.makedirs(DATA, exist_ok=True)
    load_start = read("/proc/loadavg")
    cpu_start = cpu_times()
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--data-dir", DATA]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload,
                                                 RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    build_info = {}
    for line in lines[:-1]:
        print(line)
        if line.startswith("build: "):
            build_info = json.loads(line[len("build: "):])
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line (exit code %d)" % proc.returncode)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line: " + lines[-1])
    layers = load_json("layers.json")
    missing = expected_metrics(layers, args.workload, args.trace) ^ set(
        result["metrics"])
    if missing:
        fail("metric set differs from layers.json: " + ", ".join(
            sorted(missing)))
    complete_metrics(result["metrics"], load_json("BENCHMARK.json"),
                     args.trace)

    env = machine_env()
    env.update(build_info)
    env.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_wall_s": round(time.monotonic() - started, 3),
        "loadavg_start": load_start,
        "loadavg_end": read("/proc/loadavg"),
    })
    env.update(busy_machine(cpu_start, cpu_times()))
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
