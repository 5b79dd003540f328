#!/usr/bin/env python3
"""Repository benchmark: builds the measuring program from source, runs one
workload and prints its report, ending with one JSON result line.

    python3 perfbench/run.py --workload read_mostly --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

With --trace 0 the result holds every end_to_end metric of BENCHMARK.json,
with --trace 1 every per_layer metric. The program is built with CMake into
.bench_build/perfbench under the repository root. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the program; its output goes to stderr
    so that the result stays the last line of stdout."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=840)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build failed: %s" % e)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def measure(workload, seed, seconds, trace, quick=False):
    """Runs the program; returns (report lines, metrics, result fields)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    # Own process group: the program forks a child to measure memory, and a
    # timeout must stop both.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        sys.stderr.write(err)
        fail("%s exited with code %d" % (workload, proc.returncode))
    lines = out.splitlines()
    metrics = {}
    result = None
    for line in lines:
        parts = line.split()
        if parts[:1] == ["metric"] and len(parts) >= 5:
            metrics[parts[1]] = {"value": float(parts[2]), "unit": parts[3]}
        elif parts[:1] == ["result"]:
            result = dict(p.split("=", 1) for p in parts[1:])
    if result is None:
        fail("%s printed no result line" % workload)
    return lines, metrics, result


def load_spec():
    try:
        with open(SPEC) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def select(spec, metrics, trace):
    """The metrics BENCHMARK.json names for this mode, with checked units."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            fail("metric %s was not measured" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s measured in %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = got
    return out


def self_test(spec):
    """Short mode, per workload and mode: every metric BENCHMARK.json names
    is printed with its unit, and two same-seed runs print byte-identical
    simulated-time lines."""
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            first, metrics, result = measure(w["name"], 7, 0, trace, quick=True)
            select(spec, metrics, trace)
            second, _, _ = measure(w["name"], 7, 0, trace, quick=True)
            sim_a = [l for l in first if "[sim]" in l]
            sim_b = [l for l in second if "[sim]" in l]
            same = sim_a == sim_b and len(sim_a) > 0
            correct = result.get("correct") == "1"
            print("self-test %-12s trace=%d: %d sim lines %s, %s"
                  % (w["name"], trace, len(sim_a),
                     "identical" if same else "DIFFER",
                     "correct" if correct else "NOT correct"))
            ok = ok and same and correct
    print("self-test " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    build()
    if args.self_test:
        return self_test(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("--workload must be one of " + ", ".join(names))

    lines, metrics, result = measure(args.workload, args.seed, args.seconds,
                                     args.trace)
    for line in lines:
        if not line.startswith("result "):
            print(line)
    out = {
        "correct": result.get("correct") == "1",
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": select(spec, metrics, args.trace),
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
