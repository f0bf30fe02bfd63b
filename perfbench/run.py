#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the benchmark
executable in dune's release profile (build directory .bench_build,
artifacts under .bench_out), runs one workload in a child process and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  peak_rss_mb is the child's peak
resident set, taken from the kernel when the child is reaped.  Exits
non-zero, printing no result, when the sources are missing, the build
fails, the child fails or times out, or its metrics do not match
BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no schedsearch sources (dune-project, lib/) at " + ROOT)
    # The shared dune cache lives outside the checkout; keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed (dune exit %d)" % done.returncode)


def run(args):
    """Runs the executable; returns (stdout text, peak RSS in MiB)."""
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    # A run makes a fixed number of passes sized to --seconds; a traced
    # run adds a fixed number more (one, seven on grid-observed).
    watchdog = threading.Timer(4 * args.seconds + 100, child.kill)
    watchdog.start()
    try:
        out = child.stdout.read()
        child.stdout.close()
        # wait4 reaps this child and returns its own resource usage.
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
    if child.returncode != 0:
        fail("%s exited with %d" % (args.workload, child.returncode))
    return out.decode(), usage.ru_maxrss / 1024.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    build()
    out, peak_rss_mb = run(args)
    lines = out.strip().splitlines()
    if not lines:
        fail("no result from " + args.workload)
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in metrics.items()}
    if want != got:
        fail("metric names or units differ from BENCHMARK.json: "
             "missing %s, extra %s" % (sorted(set(want) - set(got)),
                                       sorted(set(got) - set(want))))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
