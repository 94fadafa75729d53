#!/usr/bin/env python3
"""End-to-end benchmark for dfsm.

Run from the root of a dfsm checkout:

    python3 e2ebench/run.py --workload corpus_lifecycle --seed 1 --seconds 20 --trace 0

Builds the library and dfsm_e2e from source (Release, into
$CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench), prints the host
context, then runs dfsm_e2e. Its last stdout line is the result:
one JSON object with "correct", "attempted", "failed" and "metrics".
With --trace 1 the per-layer metrics are printed instead of the end-to-end
ones, and every span is written to <build>/traces/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("corpus_lifecycle", "monitored_traffic", "model_analysis")
# A seed kept out of tuning, for checking later claims on unseen inputs.
HELD_OUT_SEED = 20021130


def build_dir(root):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(root, target, "e2ebench")


def build(root):
    """Configures and builds dfsm_e2e; returns its path or None."""
    out = build_dir(root)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "dfsm_e2e"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(out, "dfsm_e2e")


def cmake_cache(root, key):
    path = os.path.join(build_dir(root), "CMakeCache.txt")
    with open(path, encoding="utf-8") as cache:
        for line in cache:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_digest(root):
    """sha256 over every file of src/, so a run names the code it measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def host_context(root):
    compiler = cmake_cache(root, "CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    return {
        "nproc": os.cpu_count(),
        "compiler": version[0] if version else compiler,
        "build_type": cmake_cache(root, "CMAKE_BUILD_TYPE"),
        "DFSM_THREADS": os.environ.get("DFSM_THREADS", "unset"),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "commit": commit(root),
        "src_digest": source_digest(root),
        "held_out_seed": HELD_OUT_SEED,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    program = build(root)
    if program is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 2
    print("# host " + json.dumps(host_context(root)), flush=True)

    out = build_dir(root)
    workdir = os.path.join(out, "work-%d" % os.getpid())
    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--workdir", workdir]
    if args.trace == "1":
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.spans.csv" % (args.workload, args.seed))]
    try:
        return subprocess.run(command).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
