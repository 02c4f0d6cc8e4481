#!/usr/bin/env python3
"""The repository benchmark for the asynchronous plurality-consensus simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload clique_2c --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1
    python3 perfbench/run.py --selftest        # the driver's arithmetic

Builds perfbench/ (which compiles the repository's src/ into
plurality_core) with CMake into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the C++ driver.

--trace 0 is the timed pass, tracing off: set-up is measured cold in
several fresh processes, before and after the timed one, and reported
as their median; the timed process warms up and times engine runs for
--seconds. It reports the end-to-end metrics. --trace 1 is the traced
pass: a fixed number of runs untraced and again traced, plus layer
microbenchmarks, writing a chrome://tracing file. It reports the
per-layer metrics.

Stdout: a table of every metric with its unit and sample count, the
host/build fingerprint, then, as the last line, one JSON object with
the keys correct, attempted, failed and metrics. A determinism mismatch,
a build failure or a missing source tree exits non-zero with no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
WORKLOADS = ["clique_2c", "clique_3maj_sharded", "regular_2c_latency",
             "sweep_small"]

# Cold set-ups per timed run: the timed process's own, and set-up-only
# processes before the timed one and as many after it, one at a time:
# on each side, until SETUP_SECONDS_EACH_SIDE have passed, at least 1
# and at most SETUP_PROCESSES_EACH_SIDE. A set-up of milliseconds gets
# nine samples; the graph build of seconds gets three, which keeps a full
# regression check inside its time budget. Set-ups that run at once slow
# each other several-fold (page faults), and load on a shared host comes
# in stretches of seconds on one core at a time, so the samples are
# spread out in time and over the cores. setup_s is their median.
SETUP_PROCESSES_EACH_SIDE = 4
SETUP_SECONDS_EACH_SIDE = 2.0
# Any one driver process is killed after this long.
PROCESS_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = REPO / target
    return target / "perfbench"


def build(target):
    if not (REPO / "CMakeLists.txt").is_file() or not (REPO / "src").is_dir():
        fail(f"{REPO} holds no repository source tree (CMakeLists.txt, src/)")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    command = ["cmake", "--build", str(out), "--target", target, "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail(f"building {target} failed")
    return out / target


def source_revision():
    if not (REPO / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_driver(driver, workload, seed, mode, extra=()):
    """Runs one driver process to its end; its JSON record."""
    command = [str(driver), f"--workload={workload}", f"--seed={seed}",
               f"--mode={mode}", *extra]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {workload} seed {seed}: {mode} pass exceeded "
             f"{PROCESS_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"workload {workload} seed {seed}: {mode} pass exited with "
             f"status {done.returncode}", done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"workload {workload} seed {seed}: {mode} pass printed nothing")
    return json.loads(lines[-1])


def measure(driver, workload, seed, seconds, traced):
    """One workload's result record: metrics with units and sample counts."""
    if traced:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_file = traces / f"{workload}-seed{seed}.json"
        record = run_driver(driver, workload, seed, "traced",
                            [f"--trace-file={trace_file}"])
        record["trace_file"] = str(trace_file)
    else:
        # Each set-up is the first in a fresh process, as users pay it,
        # and each starts on the next core in turn.
        cpu = 0
        def setup_only():
            nonlocal cpu
            records = []
            start = time.monotonic()
            while (len(records) < SETUP_PROCESSES_EACH_SIDE and
                   (not records or
                    time.monotonic() - start < SETUP_SECONDS_EACH_SIDE)):
                records.append(run_driver(driver, workload, seed, "setup",
                                          [f"--cpu={cpu}"]))
                cpu += 1
            return records
        before = setup_only()
        record = run_driver(driver, workload, seed, "timed",
                            [f"--seconds={seconds}", f"--cpu={cpu}"])
        cpu += 1
        after = setup_only()
        cold = [r["metrics"]["setup_s"]["value"]
                for r in before + [record] + after]
        record["metrics"]["setup_s"] = {"value": statistics.median(cold),
                                        "unit": "s", "samples": len(cold)}
    record["fingerprint"]["source_revision"] = source_revision()
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(traced)}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")
    return record


def print_table(record):
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"{record['mode']} pass  ({record['attempted']} runs, "
          f"{record['failed']} failed)")
    for name, m in record["metrics"].items():
        print(f"  {name:<26} {m['value']:>18.6g} {m['unit']:<9} "
              f"n={m['samples']}")
    fp = record["fingerprint"]
    print("  host: " + ", ".join(
        f"{k}={fp[k]}" for k in ("nproc", "cpu_model", "l2_bytes",
                                 "l3_bytes", "thp")))
    print("  build: " + ", ".join(
        f"{k}={fp[k]}" for k in ("compiler", "cxx_flags", "build_type",
                                 "source_revision")))
    if "trace_file" in record:
        print(f"  trace: {record['trace_file']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the driver's arithmetic tests")
    args = parser.parse_args()

    if args.selftest:
        test = build("perfbench_test")
        sys.exit(subprocess.run([str(test)]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in spec[kind]]

    driver = build("perfbench_driver")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    records = [measure(driver, w, args.seed, args.seconds, bool(args.trace))
               for w in workloads]
    for record in records:
        print_table(record)

    def pick(record):
        return {name: {"value": record["metrics"][name]["value"],
                       "unit": record["metrics"][name]["unit"]}
                for name in wanted}

    if len(records) == 1:
        metrics = pick(records[0])
    else:
        metrics = {f"{r['workload']}/{name}": m
                   for r in records for name, m in pick(r).items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
