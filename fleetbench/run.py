#!/usr/bin/env python3
"""Builds and runs the fleet benchmark (see fleetbench/README.md).

    python3 fleetbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 fleetbench/run.py --self-test
    python3 fleetbench/run.py --describe --seed N

The first form builds fleetbench and cdpud from the repository sources
(Release, under .bench_build/), runs one workload and forwards its
output; the last line is the JSON result. --self-test runs every
workload at a tiny size and checks that every metric named in
BENCHMARK.json is reported with its unit and that one flipped response
byte fails the run. --describe prints each workload's call-size and
level histograms for one seed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Relative to ROOT, which is the working directory of every child: a
# unix socket path must stay under 108 bytes wherever the checkout is.
BUILD = Path(".bench_build") / "fleetbench"
OUT = Path(".bench_build") / "run"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"fleetbench: {message}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log("the repository sources (src/) are missing; cannot build")
        sys.exit(1)
    jobs = str(os.cpu_count() or 1)
    if not (ROOT / BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE.relative_to(ROOT)), "-B",
                     str(BUILD), "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, cwd=ROOT, stdout=sys.stderr).returncode:
            log("cmake configure failed")
            sys.exit(1)
    compile_ = ["cmake", "--build", str(BUILD), "--target", "fleetbench",
                "fleetbench_cdpud", "-j", jobs]
    if subprocess.run(compile_, cwd=ROOT, stdout=sys.stderr).returncode:
        log("build failed")
        sys.exit(1)
    (ROOT / OUT).mkdir(parents=True, exist_ok=True)


def commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             cwd=ROOT, capture_output=True, text=True)
        if top.returncode or Path(top.stdout.strip()) != ROOT:
            return "unknown"
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        return head.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def run_binary(args, capture):
    command = [str(BUILD / "fleetbench"), "--cdpud",
               str(BUILD / "fleetbench_cdpud"), "--out-dir", str(OUT),
               "--commit", commit(), *args]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              capture_output=capture, text=True)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S}s: {' '.join(args)}")
        sys.exit(1)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        base = ["--workload", workload, "--seed", "7", "--seconds", "1",
                "--tiny"]
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            result = run_binary([*base, "--trace", trace], capture=True)
            parsed = last_json(result.stdout) if result.returncode == 0 else None
            if parsed is None:
                problems.append(f"{workload} trace {trace}: exit "
                                f"{result.returncode}: {result.stderr[-300:]}")
                continue
            if not parsed["correct"] or parsed["failed"]:
                problems.append(f"{workload} trace {trace}: not correct")
            for metric in spec[key]:
                got = parsed["metrics"].get(metric["name"])
                if got is None:
                    problems.append(f"{workload}: {metric['name']} missing")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"{workload}: {metric['name']} unit "
                                    f"{got['unit']} != {metric['unit']}")
        flipped = run_binary([*base, "--trace", "0", "--inject-mismatch"],
                             capture=True)
        parsed = last_json(flipped.stdout)
        if flipped.returncode == 0 or parsed is None or parsed["correct"]:
            problems.append(f"{workload}: a flipped response byte did not "
                            "fail the run")
        print(f"self-test {workload}: done", flush=True)
    for problem in problems:
        print(f"self-test FAIL {problem}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args()

    build()
    if args.self_test:
        return self_test()
    if args.describe:
        for workload in ("small_calls", "bulk", "container_decode"):
            result = run_binary(["--describe", "--workload", workload,
                                 "--seed", str(args.seed)], capture=True)
            if result.returncode:
                return result.returncode
            print(json.dumps({workload: json.loads(result.stdout)}))
        return 0
    if not args.workload:
        parser.error("--workload is required")
    result = run_binary(["--workload", args.workload, "--seed",
                         str(args.seed), "--seconds", str(args.seconds),
                         "--trace", args.trace],
                        capture=False)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
