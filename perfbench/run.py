#!/usr/bin/env python3
"""Build and run the an2sim benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload fig3_pim16 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the library from src/
plus the an2bench program) into .bench_build/, or into $CARGO_TARGET_DIR
when that is set; later calls only re-check the build. Build output goes
to stderr. an2bench's last stdout line, one JSON object
{correct, attempted, failed, metrics}, is the last line printed here,
and the exit code is an2bench's: nonzero when any correctness check
failed. See perfbench/README.md.
"""
import argparse
import json
import os
import re
import subprocess
import sys

WORKLOADS = ("fig3_pim16", "voq_islip256", "lan_fattree2048")
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017  # reserved for confirming gain claims
BUILD_TIMEOUT_S = 840

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from an an2sim checkout")
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    steps = [["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "an2bench")


def run_bench(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=2 * seconds + 120)
    return done.returncode, done.stdout


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def sim_lines(stdout):
    return re.findall(r"^sim\[\w+\]: .*$", stdout, re.M)


def self_test(binary):
    """Same seed -> identical simulated statistics; other seed -> different.
    Traced runs also check traced == untimed inside an2bench."""
    ok = True
    for workload in WORKLOADS:
        outs = []
        for seed in (DEFAULT_SEED, DEFAULT_SEED, HELD_OUT_SEED):
            code, out = run_bench(binary, workload, seed, 1, 1)
            if code != 0 or result_line(out) is None:
                print(f"FAIL {workload} seed {seed}: an2bench exit {code}")
                ok = False
            outs.append(sim_lines(out))
        same = outs[0] == outs[1] and len(outs[0]) == 2
        differ = outs[0] != outs[2]
        print(f"{'ok  ' if same and differ else 'FAIL'} {workload}: "
              f"same seed identical={same}, other seed differs={differ}")
        ok = ok and same and differ
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not args.self_test and args.workload is None:
        fail("--workload is required")

    binary = build()
    if args.self_test:
        return self_test(binary)

    code, out = run_bench(binary, args.workload, args.seed, args.seconds,
                           args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    if result_line(out) is None:
        fail("an2bench printed no result line")
    return code


if __name__ == "__main__":
    sys.exit(main())
