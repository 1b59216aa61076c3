#!/usr/bin/env python3
"""End-to-end benchmark of integration jobs: one command per workload.

    python3 perfbench/run.py --workload batch_loop --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first run builds the program's
libraries, `mui` and `adapter_automaton` from ../src and ../tools plus the
harness (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR (default
.bench_build)/perfbench. Each run then generates a seeded campaign in a
separate process (untimed), measures it, and prints human-readable lines
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set. The exit code is non-zero when any verdict,
iteration count or test-period count differs from the expected one, or when
the build or the run fails (then no JSON line is printed).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(name):
    with open(os.path.join(ROOT, name) if name == "BENCHMARK.json"
              else os.path.join(HERE, name)) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the package; returns the build dir."""
    for needed in ("src/CMakeLists.txt", "tools/mui.cpp",
                   "tools/adapter_automaton.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"program source {needed} is missing; run from a full checkout")
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(base, "perfbench"))
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        steps = [["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 2)]]
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed")
    return build_dir


def run_harness(args, env, timeout=RUN_TIMEOUT_S):
    """Runs the harness in its own process group, so a timeout also stops
    the daemon and adapter processes it started."""
    proc = subprocess.Popen(args, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{' '.join(args[:3])} timed out after {timeout} s")
    return proc.returncode, out, err


def selftest(build_dir, env):
    meta = load_json("meta.json")
    seeds = meta.get("seeds", {})
    ok = True
    if not (isinstance(seeds.get("default"), int)
            and isinstance(seeds.get("held_out"), int)
            and seeds["default"] != seeds["held_out"]):
        print("meta.json: default and held-out seeds are not both recorded")
        ok = False
    else:
        print(f"seeds recorded: default {seeds['default']}, "
              f"held-out {seeds['held_out']}")
    bench = load_json("BENCHMARK.json")
    workloads = {w["name"] for w in bench["workloads"]}
    described = set(meta.get("workloads", {}))
    if workloads != described:
        print(f"meta.json workloads {sorted(described)} != "
              f"BENCHMARK.json workloads {sorted(workloads)}")
        ok = False
    targets = set(meta.get("per_layer_targets", {}))
    missing = {m["name"] for m in bench["per_layer"]} - targets
    if missing:
        print(f"meta.json has no target for per-layer metrics {sorted(missing)}")
        ok = False
    scratch = os.path.join(build_dir, "selftest")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    code, out, err = run_harness([os.path.join(build_dir, "perfbench"),
                                  "selftest", "--dir", scratch], env)
    sys.stdout.write(out)
    sys.stderr.write(err)
    shutil.rmtree(scratch, ignore_errors=True)
    return 0 if ok and code == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    bench = load_json("BENCHMARK.json")
    meta = load_json("meta.json")
    build_dir = build()
    env = dict(os.environ, MUI_ADAPTER_PATH=build_dir)
    if args.selftest:
        return selftest(build_dir, env)

    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    seed = args.seed if args.seed is not None else meta["seeds"]["default"]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    harness = os.path.join(build_dir, "perfbench")
    work = os.path.join(build_dir, "work", f"{args.workload}-{seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    code, out, err = run_harness(
        [harness, "gen", "--workload", args.workload, "--seed", str(seed),
         "--out", work], env)
    if code != 0:
        sys.stderr.write(err)
        fail("campaign generation failed")
    code, out, err = run_harness(
        [harness, "run", "--workload", args.workload, "--dir", work,
         "--seconds", str(seconds), "--trace", str(args.trace),
         "--mui", os.path.join(build_dir, "mui")], env)
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(out)
        fail(f"the {args.workload} run printed no result (exit {code})")
    if os.path.exists(os.path.join(work, "trace.json")):
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        kept = os.path.join(traces, f"{args.workload}-{seed}.json")
        shutil.move(os.path.join(work, "trace.json"), kept)
        lines.insert(0, f"chrome trace: {kept}")
    shutil.rmtree(work, ignore_errors=True)

    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    got = result["metrics"]
    if sorted(got) != sorted(wanted):
        sys.stdout.write(out)
        fail(f"metric set mismatch: missing {sorted(set(wanted) - set(got))}, "
             f"unexpected {sorted(set(got) - set(wanted))}")
    result["metrics"] = {name: got[name] for name in wanted}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
