#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload chat_burst --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call builds the measuring program
(perfbench/CMakeLists.txt, which compiles ../src) into $CARGO_TARGET_DIR or
.bench_build. Inputs are generated from the seed by a separate process and
cached per seed under .bench_data/inputs, so generating them is neither
timed nor counted in the measured process's peak RSS. On an untraced run,
setup_s is the median over the measured process and SETUP_PROCESSES
set-up-only processes: on a VM, set-up time (mostly page faults) differs
more between processes than between repeats inside one.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are BENCHMARK.json's
end_to_end list, with --trace 1 its per_layer list. Everything above that
line is the human report.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("chat_burst", "assistant_rag", "merge_stream")
DATA_DIR = ".bench_data"
CACHED_SEEDS_PER_WORKLOAD = 2
BUILD_TIMEOUT_S = 840
# Input generation plus the measured processes, after any build.
RUN_BUDGET_S = 175
SETUP_PROCESSES = 4


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; fails the run on error."""
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        fail(f"{' '.join(cmd)}: {error}")


def build(target):
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", "perfbench", "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", build_dir, "--target", target, "-j", jobs],
               BUILD_TIMEOUT_S)
    return os.path.join(build_dir, target)


def inputs_for(binary, workload, seed, deadline):
    """The seed's input directory, generated on first use."""
    root = os.path.join(DATA_DIR, "inputs")
    path = os.path.join(root, f"{workload}-{seed}")
    if os.path.exists(os.path.join(path, ".complete")):
        return path
    os.makedirs(root, exist_ok=True)
    # Bound disk use: keep only the most recent seeds of this workload.
    cached = sorted(
        (os.path.join(root, name) for name in os.listdir(root)
         if name.startswith(workload + "-")),
        key=os.path.getmtime)
    for stale in cached[:max(0, len(cached) - CACHED_SEEDS_PER_WORKLOAD + 1)]:
        shutil.rmtree(stale, ignore_errors=True)
    partial = path + ".partial"
    shutil.rmtree(partial, ignore_errors=True)
    run_logged([binary, "gen", "--workload", workload, "--seed", str(seed),
                "--dir", partial], max(1, deadline - time.monotonic()))
    with open(os.path.join(partial, ".complete"), "w") as marker:
        marker.write("ok\n")
    os.rename(partial, path)
    return path


def is_finite_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def select_metrics(measured, declared):
    selected = {}
    for spec in declared:
        name, unit = spec["name"], spec["unit"]
        metric = measured.get(name)
        if metric is None:
            fail(f"metric {name} was not measured")
        if metric["unit"] != unit:
            fail(f"metric {name} measured in {metric['unit']}, declared {unit}")
        value = metric["value"]
        if not is_finite_number(value):
            fail(f"metric {name} is not a finite number: {value}")
        selected[name] = {"value": value, "unit": unit}
    return selected


def fixture_note(measured, selected):
    """Names the selected metrics that were replayed on a same-seed fixture.

    The result line carries only value and unit per metric, so the mark
    goes into the human report above it.
    """
    names = [name for name in selected if measured[name].get("fixture")]
    if not names:
        return None
    return ("fixture metrics (replayed on a same-seed fixture; this workload "
            "does not drive their layer): " + ", ".join(names))


def measure(cmd, deadline):
    """Runs the measuring program; returns its report lines and result."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True,
                              timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} did not finish within {RUN_BUDGET_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"{' '.join(cmd)} exited with code {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def selftest():
    binary = build("perfbench_tests")
    sys.exit(subprocess.run([binary]).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    for needed in ("BENCHMARK.json", "perfbench/CMakeLists.txt",
                   "src/CMakeLists.txt"):
        if not os.path.isfile(needed):
            fail(f"{needed} not found: run from the repository root")
    # Compiler and test temporaries stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(DATA_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = os.environ["TEST_TMPDIR"] = tmp
    if args.selftest:
        selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    with open("BENCHMARK.json") as spec_file:
        spec = json.load(spec_file)

    binary = build("perfbench")
    deadline = time.monotonic() + RUN_BUDGET_S
    input_dir = inputs_for(binary, args.workload, args.seed, deadline)
    work_dir = os.path.join(DATA_DIR, f"work-{args.workload}")
    arguments = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--dir", input_dir, "--work-dir", work_dir]
    trace_out = []
    if args.trace:
        trace_out = ["--trace-out", os.path.join(
            DATA_DIR, f"trace-{args.workload}-{args.seed}.json")]
    try:
        lines, result = measure([binary, "run"] + arguments + trace_out,
                                deadline)
        setup_s = [result["metrics"]["setup_s"]["value"]]
        for _ in range(0 if args.trace else SETUP_PROCESSES):
            _, setup = measure([binary, "setup"] + arguments, deadline)
            setup_s.append(setup["metrics"]["setup_s"]["value"])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for line in lines:
        print(line)
    if not all(map(is_finite_number, setup_s)):
        fail(f"setup_s is not a finite number in every process: {setup_s}")
    if len(setup_s) > 1:
        result["metrics"]["setup_s"]["value"] = statistics.median(setup_s)
        print("setup_s per process: " +
              ", ".join(f"{value:.6g}" for value in setup_s) +
              f"; median {statistics.median(setup_s):.6g} s")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = select_metrics(result["metrics"], declared)
    note = fixture_note(result["metrics"], metrics)
    if note:
        print(note)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
