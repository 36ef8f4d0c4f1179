#!/usr/bin/env python3
"""End-to-end benchmark of the renaming simulator (see README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --steady 10 --workload W [--seconds T]
    python3 perfbench/run.py --self-test

The first call builds the harness (perfbench/CMakeLists.txt) from the
simulator sources in src/ into $CARGO_TARGET_DIR (default .bench_build),
in a directory named after the checkout. A measuring call runs one
workload in one harness process, with address-space randomization turned
off for that process where the system allows it, and relays its stdout;
the last line is the result object. --steady N runs a workload once per
seed 1..N and prints, for every end-to-end metric, the median, the
quartiles and the spread (q3 - q1) / median that BENCHMARK.json's bounds
are set from.
"""

import argparse
import ctypes
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("crash-hunter", "byz-observed", "cht-dense")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A single harness run must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 175
# personality(2) flag; 0xffffffff queries the current persona.
ADDR_NO_RANDOMIZE = 0x0040000
LIBC = ctypes.CDLL(None, use_errno=True)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    """One build per checkout: a build directory shared by two checkouts
    would build whichever tree configured it first."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    tree = hashlib.sha1(str(BENCH_DIR).encode()).hexdigest()[:12]
    return target / f"perfbench-{tree}"


def fixed_layout():
    """Runs in the harness's process before exec. A fixed address layout
    keeps setup_s from varying with where the heap and libraries land
    (README.md, "Steadiness and bounds"). Where the system refuses, the
    harness runs randomized and its host block says "aslr": true."""
    persona = LIBC.personality(0xFFFFFFFF)
    if persona != -1:
        LIBC.personality(persona | ADDR_NO_RANDOMIZE)


def build():
    """Configures and builds the harness; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"simulator sources not found under {ROOT / 'src'}")
        sys.exit(2)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    # Runs started side by side in one checkout build one at a time.
    with open(out / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                log("cmake configure failed")
                sys.exit(2)
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", str(out), "--target", "perfbench_harness",
               "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("build failed")
            sys.exit(2)
    return out / "perfbench_harness"


def git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel"], capture_output=True,
                             text=True, env=env)
        if top.returncode != 0 or Path(top.stdout.strip()) != ROOT:
            return "unknown (not a git checkout)"
        desc = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                               "--dirty", "--tags"], capture_output=True,
                              text=True, env=env)
        return desc.stdout.strip() or "unknown"
    except OSError:
        return "unknown (git not installed)"


def run_harness(harness, workload, seed, seconds, trace, describe):
    """Runs one harness process; returns (stdout lines, result dict)."""
    cmd = [str(harness), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--git-describe", describe]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed} did not finish in {RUN_TIMEOUT_S} s")
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"harness exited with {proc.returncode}")
        sys.exit(1)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        log("harness printed no result object")
        sys.exit(1)
    return lines, result


def steady(harness, args, describe):
    values = {}
    units = {}
    shares = []
    for seed in range(1, args.steady + 1):
        _, result = run_harness(harness, args.workload, seed, args.seconds,
                                0, describe)
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        log(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        bounds = {m["name"]: m["bound"]
                  for m in json.loads(spec.read_text())["end_to_end"]}
    print(f"workload {args.workload}: {args.steady} runs of {args.seconds} s,"
          f" seeds 1..{args.steady},"
          f" failed share {sorted(set(shares))}")
    print(f"{'metric':<16}{'median':>16}{'q1':>16}{'q3':>16}"
          f"{'spread':>9}{'bound':>7}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        print(f"{name:<16}{med:>16.6g}{q1:>16.6g}{q3:>16.6g}{spread:>9.4f}"
              f"{bound if bound is not None else '-':>7} {units[name]}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, metavar="N",
                   help="run the workload N times, seeds 1..N")
    p.add_argument("--self-test", action="store_true",
                   help="check that the output checker rejects planted faults")
    args = p.parse_args()
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    if args.steady is None and not args.self_test and args.seed is None:
        p.error("--seed is required")
    if args.steady is not None and args.steady < 2:
        p.error("--steady needs at least 2 runs")

    harness = build()
    if args.self_test:
        sys.exit(subprocess.run([str(harness), "--self-test"]).returncode)
    describe = git_describe()
    if args.steady is not None:
        steady(harness, args, describe)
        return
    lines, _ = run_harness(harness, args.workload, args.seed, args.seconds,
                           args.trace, describe)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
