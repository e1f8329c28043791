#!/usr/bin/env python3
"""Repository benchmark: build the harness, run one workload, check it.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload suite-cold|suite-warm|fleet \\
        [--seed N] [--seconds S] [--trace 0|1]

The harness (perfbench/harness.cpp) is built as a Release package of
its own under $CARGO_TARGET_DIR (default .bench_build). It runs the
workload for --seconds with jobs = min(4, nproc) and reports medians;
--trace 1 adds the serial per-layer walk and reports per-layer
metrics instead. The harness checks that every repetition repeats the
first; at seed 42 the first is also compared with
tools/compare_bench.py against bench/reference (suite) or the fleet
block pinned in perfbench/expected. The last line of standard output
is one JSON object with the keys correct, attempted, failed and
metrics.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_SEED = 42
SUITE_REFERENCE = os.path.join(ROOT, "bench", "reference",
                               "BENCH_RESULTS.ref.json")
FLEET_REFERENCE = os.path.join(HERE, "expected",
                               "fleet-hosts1000-seed42.json")
COMPARE = os.path.join(ROOT, "tools", "compare_bench.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
HARNESS_TIMEOUT_S = 170


def die(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def build_jobs():
    return max(1, min(4, os.cpu_count() or 1))


def build(out):
    """Configure and build the harness; returns its path."""
    tree = os.path.join(out, "perfbench")
    commands = [["cmake", "--build", tree, "-j", str(build_jobs())]]
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", tree,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        commands.insert(0, configure)
    for command in commands:
        done = subprocess.run(command, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            die(f"build failed: {' '.join(command)}")
    return os.path.join(tree, "perfbench")


def warm_cache(harness, out, seed):
    """The suite-warm input cache of @seed, filled once; caches of
    other seeds are dropped so the build tree stays ~100 MB."""
    root = os.path.join(out, "warm-cache")
    directory = os.path.join(root, f"seed-{seed}")
    marker = os.path.join(directory, ".filled")
    if os.path.exists(marker):
        return directory
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(directory)
    done = subprocess.run([harness, "--fill", "--seed", str(seed),
                           "--cache-dir", directory],
                          stdout=sys.stderr, stderr=sys.stderr,
                          timeout=HARNESS_TIMEOUT_S)
    if done.returncode != 0:
        die("filling the warm input cache failed")
    open(marker, "w").close()
    return directory


def compare(reference, candidate):
    """One tools/compare_bench.py verdict: True when they match."""
    done = subprocess.run([sys.executable, COMPARE, reference,
                           candidate, "--allow-missing-metrics"],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if done.returncode != 0:
        print(f"perfbench: {candidate} differs from {reference}:\n"
              f"{done.stdout}", file=sys.stderr)
    return done.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["suite-cold", "suite-warm", "fleet"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    for needed in (os.path.join(ROOT, "src", "CMakeLists.txt"),
                   os.path.join(ROOT, "bench", "reports.cpp"),
                   COMPARE, SUITE_REFERENCE, FLEET_REFERENCE, SPEC):
        if not os.path.isfile(needed):
            die(f"not a complete source checkout: {needed} is missing",
                2)

    out = build_dir()
    harness = build(out)
    work = os.path.join(out, "runs",
                        f"{args.workload}-seed{args.seed}-"
                        f"trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    command = [harness, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work]
    if args.workload == "suite-warm":
        command += ["--cache-dir", warm_cache(harness, out, args.seed)]
    # git describe (for the fingerprint) must not search above the
    # checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, env=env,
                          timeout=HARNESS_TIMEOUT_S)
    if done.returncode != 0:
        die(f"harness exited with {done.returncode}")
    result = json.loads(done.stdout)

    attempted = int(result["attempted"])
    failed = int(result["failed"])
    if args.seed == REFERENCE_SEED:
        reference = (FLEET_REFERENCE if args.workload == "fleet"
                     else SUITE_REFERENCE)
        attempted += 1
        if not compare(reference, os.path.join(work, "rep-first.json")):
            failed += 1

    print("fingerprint: " + json.dumps(result["fingerprint"],
                                       sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace "
          f"{args.trace}: {result['reps']} timed repetitions, "
          f"{result['walks']} traced walks, fail_frac "
          f"{failed / attempted:.6g} ({failed}/{attempted})")
    metrics = result["metrics"]
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}")
    with open(SPEC) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    reported = {name: entry["unit"] for name, entry in metrics.items()}
    if reported != expected:
        die(f"harness metrics differ from BENCHMARK.json: "
            f"{sorted(set(reported.items()) ^ set(expected.items()))}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
