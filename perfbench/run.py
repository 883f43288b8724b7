#!/usr/bin/env python3
"""End-to-end benchmark of the rockhopper tuning service.

    python3 perfbench/run.py --workload tune_loop --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the benchmark program
(perfbench/CMakeLists.txt, Release) into .bench_build/perfbench, prepares
the workload's untimed inputs in a private work directory, runs the
program, and removes the work directory again. Prints a host-context
line, the program's detail and check lines, and as the last line the
result JSON:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. Exits non-zero without a result line
when the sources are missing or the build fails, and non-zero after the
result line when a correctness check failed.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tune_loop", "telemetry_flood", "cold_population")
# Together under the 180 s a run may take once the program is built.
PREPARE_TIMEOUT_S = 60
RUN_TIMEOUT_S = 110


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / base / "perfbench").resolve()


def build(out):
    """Configures (once) and builds the program; build output goes to stderr."""
    cache = out / "CMakeCache.txt"
    if not cache.exists():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "-j", str(min(4, os.cpu_count() or 1)),
         "--target", "perfbench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench"


def cmake_cache(out, key):
    try:
        for line in (out / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the sources the program is built from (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    paths = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        paths += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for p in paths:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def host_context(out):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cmake_cache(out, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else "unavailable"
    except OSError:
        git_sha = "unavailable"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "kernel": platform.release(),
        "build_type": cmake_cache(out, "CMAKE_BUILD_TYPE"),
        "compiler": version,
        "git_sha": git_sha,
        "source_digest": source_digest(),
    }


def expected_metrics(trace):
    """The metric names BENCHMARK.json promises for this mode, if present."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    data = json.loads(spec.read_text())
    return {m["name"] for m in data["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes (smoke test)")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"rockhopper sources not found under {ROOT}")
    out = build_dir()
    try:
        program = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")

    work = out.parent / "perfbench-work" / f"{args.workload}-{os.getpid()}"
    spans = out.parent / "perfbench-spans" / f"{args.workload}.tsv"
    spans.parent.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--workdir", str(work)]
    if args.toy:
        common.append("--toy")
    try:
        subprocess.run([str(program), "prepare"] + common, check=True,
                       timeout=PREPARE_TIMEOUT_S, stdout=sys.stderr)
        run = subprocess.run(
            [str(program), "run", "--trace", str(args.trace), "--spans",
             str(spans)] + common,
            timeout=RUN_TIMEOUT_S, capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError) as err:
        fail(f"benchmark program failed: {err}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"benchmark program exited {run.returncode} without a result")
    result = json.loads(lines[-1])
    expected = expected_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        fail("metrics differ from BENCHMARK.json: missing "
             f"{sorted(expected - set(result['metrics']))}, extra "
             f"{sorted(set(result['metrics']) - expected)}")

    print("host " + json.dumps(host_context(out), sort_keys=True))
    if args.trace:
        print(f"spans {os.path.relpath(spans, ROOT)}")
    for line in lines:
        print(line)
    sys.stdout.flush()
    return 0 if run.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
