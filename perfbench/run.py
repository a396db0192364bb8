#!/usr/bin/env python3
"""Build and run the repo benchmark from the root of a checkout.

    python3 perfbench/run.py --workload script_tour --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

A run builds perfbench/bench.exe (release profile, build directory
.bench_build), measures one workload for --seconds host seconds and prints,
as its last line, one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.  A traced run also writes its spans under
.bench_out/.  The exit code is non-zero, with no JSON line, when the program
cannot be built or a run does not print every metric BENCHMARK.json names.

--self-test checks each workload's checker against real and tampered
outputs, then makes a short run of every workload in both modes and checks
that each metric is printed with its unit (see perfbench/meta.json for the
workloads each per-layer metric applies to).
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load(name):
    with open(os.path.join(BENCH_DIR, name)) as f:
        return json.load(f)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("dune-project and lib/ not found: run from the root of a full checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", BUILD_DIR, "./perfbench/bench.exe"],
        stdout=sys.stderr, env=env)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def no_aslr_prefix():
    """A command prefix that runs bench.exe with address-space randomisation
    off, so its memory layout, and the cache conflicts that come with it,
    is the same on every run; empty where setarch is missing or refused."""
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    prefix = [setarch, platform.machine(), "-R"]
    r = subprocess.run(prefix + ["true"], stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
    return prefix if r.returncode == 0 else []


PREFIX = no_aslr_prefix()


def run_bench(args, timeout=RUN_TIMEOUT_S):
    # bench.exe forks a host-reference child; on a timeout the whole
    # session is killed, then waited for
    p = subprocess.Popen(PREFIX + [EXE] + args, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail("bench.exe did not finish within %d s" % timeout)
    return p.returncode, out.splitlines()


def benchmark_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found")
    with open(path) as f:
        return json.load(f)


def measure(workload, seed, seconds, trace):
    """One run; returns the parsed result after checking it names every metric."""
    code, lines = run_bench(["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)])
    if code != 0 or not lines:
        print("\n".join(lines), file=sys.stderr)
        fail("bench.exe exited with code %d" % code)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line is not a JSON result: %r" % lines[-1])
    for m in benchmark_spec()["per_layer" if trace else "end_to_end"]:
        got = result["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            fail("%s: metric %s missing or not in %s" % (workload, m["name"], m["unit"]))
        if not math.isfinite(got["value"]):
            fail("%s: metric %s is not a finite number" % (workload, m["name"]))
    return lines, result


def self_test():
    code, lines = run_bench(["--self-test"])
    print("\n".join(lines))
    if code != 0:
        fail("checker self-test failed")
    meta = load("meta.json")
    spec = benchmark_spec()
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            # a traced run long enough that mem.rss_growth_kb_per_ksim
            # outgrows the resident set's page-level noise
            _, result = measure(name, meta["default_seed"], 10 if trace else 1, trace)
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append("%s trace %d: run not correct: %r" % (name, trace, result))
            if trace == 0 and result["metrics"]["ops_ok_frac"]["value"] != 1.0:
                problems.append("%s: ops_ok_frac below 1" % name)
            if trace == 1:
                for metric, where in meta["per_layer"].items():
                    if name in where["workloads"] and result["metrics"][metric]["value"] <= 0:
                        problems.append("%s: %s applies here but reads %r" % (
                            name, metric, result["metrics"][metric]["value"]))
            print("ok   %s trace %d: every metric printed with its unit" % (name, trace))
    names = {m["name"] for m in spec["per_layer"]}
    if names != set(meta["per_layer"]):
        problems.append("meta.json and BENCHMARK.json name different per-layer metrics")
    for p in problems:
        print("FAIL " + p)
    if problems:
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    build()
    if a.self_test:
        self_test()
        return
    if a.workload is None:
        fail("--workload is required")
    print("# dune profile: release; address-space randomisation %s"
          % ("off" if PREFIX else "on"))
    lines, _ = measure(a.workload, a.seed, a.seconds, a.trace)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
