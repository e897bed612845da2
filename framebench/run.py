#!/usr/bin/env python3
"""Frame-budget benchmark: build the harness from source, run one workload.

    python3 framebench/run.py --workload hog_1080p --seed 1 --seconds 20 --trace 0

Run from the repository root. The harness and the program's libraries are
built from src/ into .bench_build/framebench (RelWithDebInfo, the
repository's default). The harness's own lines are passed through; the last
stdout line is the result:

    {"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}

--trace 0 gives the end_to_end metrics of BENCHMARK.json, --trace 1 the
per_layer ones. Each result is also appended, with the host fingerprint
(nproc, CPU model, compiler, build type and flags, steal ticks during the
run), to .bench_build/framebench_results.jsonl. Extra arguments (e.g.
--inject-wrong-detection) are passed to the harness.
"""
import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "framebench"
RESULTS = ROOT / ".bench_build" / "framebench_results.jsonl"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"framebench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then (re)build the harness; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no program sources (src/CMakeLists.txt) beside the benchmark")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "frame_budget"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return BUILD / "frame_budget"


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()
    # A SIGTERM unwinds through subprocess.run, which kills and reaps the
    # harness instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    expected = expected_metrics(args.trace)
    exe = build()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    steal0, total0 = cpu_ticks()
    start = time.time()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {RUN_TIMEOUT_S} s")
    steal1, total1 = cpu_ticks()
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"harness exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    metrics = raw["metrics"]
    if set(metrics) != set(expected):
        fail(f"metric set mismatch: missing {sorted(set(expected) - set(metrics))}"
             f", unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics[name]
        if m["unit"] != unit or not math.isfinite(m["value"]):
            fail(f"bad metric {name}: {m}")

    info = raw["info"]
    host = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "cxx_flags": info["cxx_flags"].strip(),
        "steal_ticks": steal1 - steal0,
        "steal_frac": (steal1 - steal0) / max(1, total1 - total0),
    }
    result = {"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]), "metrics": metrics}
    record = {"time": start, "wall_s": time.time() - start,
              "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "extra": extra,
              "host": host, "values": info["values"], "result": result}
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    with open(RESULTS, "a") as f:
        f.write(json.dumps(record) + "\n")
    print("host " + json.dumps(host))
    print("values " + json.dumps({k: v["value"] for k, v in info["values"].items()}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
