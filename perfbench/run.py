#!/usr/bin/env python3
"""iosim benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the simulator and the
benchmark program from source into .bench_build/ (the first run compiles; later
runs only check the build is current), writes the workload's inputs generated
from --seed, runs iosim_perfbench, and relays its output. The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; the exit code is
non-zero when the build fails or any output check fails.

See perfbench/README.md for the workloads, the metrics and how to compare two
commits.
"""
import argparse
import os
import random
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "iosim_perfbench")

# (vmm, guest) pairs of fig2_sort: every elevator once in Dom0 and once in
# the guests.
SORT_PAIRS = [("cfq", "cfq"), ("anticipatory", "deadline"), ("deadline", "noop"),
              ("noop", "anticipatory")]
WORDCOUNT_RUNS = 8
WORKLOADS = ("fig2_sort", "fig2_wordcount", "fig7_online")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def configured_source():
    """The source directory .bench_build/cmake was configured from, if any."""
    try:
        with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    """Configure (once) and build iosim_perfbench; False when that fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if configured_source() != HERE:
        if os.path.exists(CMAKE_DIR):
            shutil.rmtree(CMAKE_DIR)
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def derived_seeds(seed, n):
    """n experiment seeds from the workload seed (never 0)."""
    rng = random.Random(seed)
    return [rng.getrandbits(62) + 1 for _ in range(n)]


def make_input(workload, seed):
    """The generated inputs of one workload, as iosim_perfbench's input text."""
    lines = ["workload " + workload]
    if workload == "fig2_sort":
        for (vmm, guest), s in zip(SORT_PAIRS, derived_seeds(seed, len(SORT_PAIRS))):
            lines.append("job sort %s %s %d" % (vmm, guest, s))
    elif workload == "fig2_wordcount":
        for s in derived_seeds(seed, WORDCOUNT_RUNS):
            lines.append("job wordcount cfq cfq %d" % s)
    else:
        with open(os.path.join(HERE, "specs", "fig7_online.spec")) as f:
            spec = f.read()
        base = derived_seeds(seed, 1)[0]
        spec, n = re.subn(r"(?m)^base_seed = \d+$", "base_seed = %d" % base, spec)
        if n != 1:
            raise SystemExit("fig7_online.spec needs exactly one base_seed line")
        lines.append("workers %d" % max(1, min(2, os.cpu_count() or 1)))
        lines.append("spec")
        lines.append(spec)
    return "\n".join(lines) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 2
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    input_path = os.path.join(out_dir, "input_%s_%d.txt" % (args.workload, args.seed))
    with open(input_path, "w") as f:
        f.write(make_input(args.workload, args.seed))

    cmd = [BINARY, "--input", input_path, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("iosim_perfbench exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
