#!/usr/bin/env python3
"""End-to-end benchmark of the PEPPHER composition tool and runtime.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ode_chain --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and the repository's libraries from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, on first use;
runs one workload for --seconds seconds in a work directory under
.perfbench_work/; and prints, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones (see
perfbench/METRICS.md). The lines before it give the host context, every
metric's sample count (or why it has none) and the mechanism guards. The
full record, and the spans of a traced run, are kept under
.perfbench_work/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

WORKLOADS = ("ode_chain", "spmv_hybrid", "suite_sessions")
BUILD_TYPE = "Release"


def run_timeout_s(seconds):
    """Limit on one run of the binary: --seconds of measurement plus the
    untimed work around it (input generation, warm-up, the suite's
    reference runs and unrecorded sessions), with room to spare."""
    return 90.0 + 2.0 * seconds


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures (once) and builds the benchmark; a no-op when up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def fs_type(path):
    """Filesystem type of the mount holding `path` (longest mount prefix)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def compiler(build_dir):
    cxx = "c++"
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt"), encoding="utf-8") as cache:
            for line in cache:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
    except OSError:
        pass
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True, text=True,
                             check=False).stdout
        return out.splitlines()[0] if out else cxx
    except OSError:
        return cxx


def sync_filesystem(path):
    """Flushes the filesystem holding `path` (syncfs), or all of them."""
    try:
        subprocess.run(["sync", "-f", path], check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except (OSError, subprocess.CalledProcessError):
        os.sync()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_context(root, build_dir, work_dir, load_at_start):
    context = {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "build_type": BUILD_TYPE,
        "compiler": compiler(build_dir),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "loadavg_at_start": load_at_start,
        # The sampling dir and the compose temp dirs live in the work dir.
        "fs_sampling_dir": fs_type(work_dir),
        "fs_temp_dir": fs_type(work_dir),
        "fs_checkout": fs_type(root),
    }
    # Wall metrics are comparable only between runs with the same host_id.
    fingerprint = f"{context['cpu_model']}|{context['nproc']}|{context['kernel']}"
    context["host_id"] = hashlib.sha256(fingerprint.encode()).hexdigest()[:12]
    return context


def declared_metrics(root):
    """Metric names BENCHMARK.json declares, or None without the file."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    load_at_start = list(os.getloadavg())
    for needed in ("perfbench/CMakeLists.txt", "src/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"run from the root of a checkout: {needed} is missing")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_root = os.path.join(root, ".perfbench_work")
    work_dir = os.path.join(work_root, f"{tag}-{os.getpid()}")
    results_dir = os.path.join(work_root, "results")
    os.makedirs(results_dir, exist_ok=True)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    context = host_context(root, build_dir, work_dir, load_at_start)

    # The build and earlier runs leave dirty data and deleted files behind;
    # flushing them starts every run from the same filesystem state (each
    # session's set-up flushes again, see METRICS.md).
    sync_filesystem(root)
    started = time.monotonic()
    timeout_s = run_timeout_s(args.seconds)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--work-dir", work_dir,
             "--headers", os.path.join(root, "perfbench", "headers")],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=timeout_s)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work_dir, ignore_errors=True)
        fail(f"{tag} did not finish within {timeout_s:.0f} s")
    elapsed = time.monotonic() - started
    spans = os.path.join(work_dir, "spans.jsonl")
    if os.path.exists(spans):
        shutil.move(spans, os.path.join(results_dir, f"{tag}.spans.jsonl"))
    shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{tag} printed no result (exit code {proc.returncode})")
    record["context"] = context
    record["elapsed_s"] = elapsed
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    metrics = record["metrics"]
    declared = declared_metrics(root)
    if declared is not None:
        wanted = declared[1] if args.trace else declared[0]
        missing = [name for name in wanted if name not in metrics]
        if missing:
            fail(f"{tag} did not report {', '.join(missing)}")
        metrics = {name: metrics[name] for name in wanted}

    print("context " + json.dumps(context))
    for name, m in metrics.items():
        why = f"  ({m['note']})" if m.get("note") else ""
        print(f"{name:34s} {m['value']:.6g} {m['unit']}  n={m['samples']}{why}")
    for name, ok in record["guards"].items():
        print(f"guard {name}: {'ok' if ok else 'TRIPPED'}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    sys.exit(0 if record["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
