#!/usr/bin/env python3
"""Build tempi_benchmark and run TEMPI's end-to-end benchmark.

Run from the repository root:

  python3 benchmark/run.py --seed 1                 # all workloads, untraced
  python3 benchmark/run.py --seed 1 --trace 1       # all workloads, per-layer
  python3 benchmark/run.py --workload halo_coll --seed 3 --seconds 12 --trace 0

Each workload runs in its own tempi_benchmark process. Every metric is
printed as `workload metric value unit`; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. Each run's full
record is also written under benchmark/results/runs/ for compare.py. The
exit code is nonzero when any operation failed or a metric is missing.
"""

import argparse
import datetime
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / "build-bench"
BINARY = BUILD_DIR / "tempi_benchmark"
RESULTS = BENCH_DIR / "results"
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def cmake_cache():
    cache = {}
    path = BUILD_DIR / "CMakeCache.txt"
    if path.exists():
        for line in path.read_text(encoding="utf-8", errors="replace").splitlines():
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def check_build_type(cache):
    """Refuse builds whose numbers would not be the product's."""
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        return "build type is %r, not Release" % cache.get("CMAKE_BUILD_TYPE")
    for option in ("TEMPI_ASAN", "TEMPI_TSAN"):
        if cache.get(option, "OFF").upper() in ("ON", "1", "TRUE", "YES"):
            return "%s is on: sanitizer builds are not measured" % option
    return None


def build():
    """Configure (once) and build tempi_benchmark out of tree in build-bench/."""
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        log("run.py: no TEMPI source tree at %s; nothing to build" % ROOT)
        return False
    BUILD_DIR.mkdir(exist_ok=True)
    with open(BUILD_DIR / ".build.lock", "w", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode:
                log("run.py: configure failed")
                return False
        problem = check_build_type(cmake_cache())
        if problem:
            log("run.py: refusing to measure: " + problem)
            return False
        cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "tempi_benchmark",
               "-j", str(os.cpu_count() or 1)]
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode:
            log("run.py: build failed")
            return False
    return BINARY.exists()


def clean_env():
    """The product at its defaults: no TEMPI_* variable reaches tempi_benchmark."""
    return {k: v for k, v in os.environ.items() if not k.startswith("TEMPI_")}


def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def run_binary(workload, seed, seconds, trace):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        RESULTS.mkdir(exist_ok=True)
        cmd += ["--trace-file", str(RESULTS / ("trace_%s.json" % workload))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=clean_env(), timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        log("run.py: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("run.py: %s exited with %d" % (workload, proc.returncode))
        return None
    return json.loads(lines[-1])


def run_one(spec, workload, seed, seconds, trace, out_dir):
    """Run one workload; print its metrics; return its record or None."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    raw = run_binary(workload, seed, seconds, trace)
    if raw is None:
        return None
    metrics = {}
    missing = []
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if value is None or not math.isfinite(value):
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%s %s %.10g %s" % (workload, m["name"], value, m["unit"]))
    attempted, failed = raw["attempted"], raw["failed"]
    print("%s error_rate %.10g ratio" % (workload, failed / max(attempted, 1)))
    info = raw.get("info", {})
    if not trace and info.get("paper"):
        print("# %s speedup_vs_system %.1fx beside %s"
              % (workload, raw["metrics"].get("speedup_vs_system", 0.0),
                 info["paper"]))
    if missing:
        log("run.py: %s did not report %s" % (workload, ", ".join(missing)))
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not missing and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "provenance": {
            "git_revision": git_revision(),
            "nproc": os.cpu_count(),
            "compiler": info.get("compiler", "?"),
            "calibration": info.get("calibration", "?"),
            "seed": seed,
        },
        "info": info,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S%f")
    name = "%s_seed%d_trace%d_%s.json" % (workload, seed, int(trace), stamp)
    with open(out_dir / name, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    return record


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path, default=RESULTS / "runs",
                        help="directory for the per-run records")
    args = parser.parse_args()
    trace = bool(args.trace)

    if not build():
        return 2
    records = []
    for workload in ([args.workload] if args.workload else names):
        record = run_one(spec, workload, args.seed, args.seconds, trace,
                         args.out)
        if record is None:
            return 1
        records.append(record)

    single = len(records) == 1
    metrics = {}
    for r in records:
        for name, m in r["metrics"].items():
            metrics[name if single else "%s.%s" % (r["workload"], name)] = m
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
