#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator library and the benchmark binary from the
checkout's sources (Release, under .bench_build/perfbench), then runs
one workload. The binary's standard output is passed through; its last
line is one JSON object with the keys correct, attempted, failed and
metrics. The binary's standard error always goes to
.bench_build/perfbench/<workload>.stderr.log, whatever the workload, so
per-op warnings never interleave with the result. Traced runs also
write a Chrome trace-event file next to it.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ("graph_fanout", "graph_resilient", "paper_pipeline")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then an incremental build; output goes to a log."""
    if not (ROOT / "src" / "microsim" / "service_graph.hh").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", BUILD_JOBS])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                log.close()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (see {log_path})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--reference", str(HERE / "reference.json")]
    if args.trace == "1":
        cmd += ["--trace-out",
                str(BUILD / f"trace-{args.workload}-seed{args.seed}.json")]
    env = dict(os.environ, ACCEL_JOBS="1")
    with open(BUILD / f"{args.workload}.stderr.log", "w") as err:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                                  stdin=subprocess.DEVNULL, env=env,
                                  timeout=RUN_TIMEOUT_S, text=True)
        except subprocess.TimeoutExpired:
            fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode} "
             f"(see {BUILD / (args.workload + '.stderr.log')})")


if __name__ == "__main__":
    main()
