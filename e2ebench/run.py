#!/usr/bin/env python3
"""Paper-protocol end-to-end benchmark.

Builds the library sources and the e2e_bench program from this checkout,
runs one workload, checks its outputs and prints every metric by name with
its unit. The last line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json with --trace 0 and its
per-layer metrics with --trace 1. A check miss, or a run that aborts or
times out, prints the result with "correct": false and exits 1.

Usage (from the repository root):
    python3 e2ebench/run.py --workload approx-walk --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload approx-walk --seed 1 --record
    python3 e2ebench/run.py --self-test

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
# Relative tolerances of the reference comparison: online costs are
# deterministic up to floating-point reassociation across builds; the
# offline objective is a PDHG iterate, good to its stopping tolerance.
ONLINE_REL_TOL = 1e-6
OFFLINE_REL_TOL = 5e-4
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build(target):
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "e2ebench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", build_dir, "--target", target, "-j", jobs])
    return os.path.join(build_dir, target)


def child_env():
    # Every library pool and observability knob at its default: drop the
    # repository's ECA_* environment knobs.
    return {k: v for k, v in os.environ.items() if not k.startswith("ECA_")}


def source_provenance():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py", ".json")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()[:16]}


def crashed(message):
    """Reports a run the program did not finish as one failed operation.

    The library aborts on some failures (an ECA_CHECK ends the process), so
    a run that dies is a result of the code under test, not of the harness.
    """
    print(f"error: {message}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}))
    sys.exit(1)


def run_bench(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=child_env(), timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        crashed(f"e2e_bench exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        crashed(f"e2e_bench exited {proc.returncode}")
    return json.loads(lines[-1])


def load_references():
    if not os.path.exists(REFERENCES):
        return {}
    with open(REFERENCES) as f:
        return json.load(f)


def rel_diff(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def compare_references(report, references):
    """Check misses against the recorded values; None if the seed is unrecorded."""
    recorded = references.get(report["workload"], {}).get(str(report["seed"]))
    if recorded is None:
        return None
    misses = []
    got = {inst["label"]: inst for inst in report["references"]}
    for ref in recorded:
        inst = got.get(ref["label"])
        if inst is None:
            misses.append(f"{ref['label']}: missing from the run")
            continue
        if "offline_objective" in ref:
            d = rel_diff(inst.get("offline_objective", float("nan")),
                         ref["offline_objective"])
            if not d <= OFFLINE_REL_TOL:
                misses.append(f"{ref['label']} offline objective off by "
                              f"{d:.3g} relative")
        for name, cost in ref["costs"].items():
            d = rel_diff(inst["costs"].get(name, float("nan")), cost)
            if not d <= ONLINE_REL_TOL:
                misses.append(f"{ref['label']} {name} cost off by {d:.3g} "
                              "relative")
    return misses


def contract_metrics(report, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in names if n not in report["metrics"]]
    if missing:
        fail(f"report lacks metrics {missing}")
    return {n: report["metrics"][n] for n in names}


def print_report(report, reference_state):
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}")
    for name, m in report["metrics"].items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    print(f"  operations: {report['attempted']} attempted, "
          f"{report['failed']} failed")
    print(f"  references: {reference_state}")
    for miss in report["check_misses"]:
        print(f"  CHECK MISS: {miss}")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))


def record(binary, workload, seed):
    report = run_bench(binary, workload, seed, 0, 0)
    if report["check_misses"]:
        fail(f"not recording a run with check misses: {report['check_misses']}")
    references = load_references()
    references.setdefault(workload, {})[str(seed)] = report["references"]
    for w in references:
        references[w] = dict(sorted(references[w].items(),
                                    key=lambda kv: int(kv[0])))
    with open(REFERENCES, "w") as f:
        json.dump(references, f, indent=1)
        f.write("\n")
    print(f"recorded {workload} seed {seed}: "
          f"{len(report['references'])} instances")


def self_test():
    binary = build("e2e_bench_tests")
    sys.exit(subprocess.run([binary], env=child_env(), check=False).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record the reference costs of a seed")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    binary = build("e2e_bench")
    if args.record:
        record(binary, args.workload, args.seed)
        return
    report = run_bench(binary, args.workload, args.seed, args.seconds,
                       args.trace)
    report["provenance"].update(source_provenance())
    misses = list(report["check_misses"])
    ref_misses = compare_references(report, load_references())
    if ref_misses is None:
        reference_state = "seed not recorded; invariant checks only"
    else:
        reference_state = (f"{len(ref_misses)} mismatches" if ref_misses
                           else "match")
        misses += ref_misses
    report["check_misses"] = misses
    print_report(report, reference_state)
    correct = not misses
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": contract_metrics(report, args.trace)}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
