#!/usr/bin/env python3
"""Build and run the retrieval-engine benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload wiki-cold --seed 1 --seconds 10 --trace 0

Workloads: wiki-cold, orcas-hot, tenant-churn. The first run in a
checkout configures and builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later runs rebuild incrementally. Every run first executes the
benchmark's own arithmetic self-test, then the benchmark. Build output
goes to stderr; the benchmark's stdout is passed through, so its last
line is the JSON result. Outputs (run records, Chrome traces) land in
<build dir>/out.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def source_id():
    """Git commit when available, else a hash of the built sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git-" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def build(bdir):
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["wiki-cold", "orcas-hot", "tenant-churn"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    bdir = build_dir()
    if not build(bdir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if subprocess.run([os.path.join(bdir, "perfbench_selftest")]).returncode:
        print("perfbench: self-test failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(bdir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(bdir, "out"), "--source-id", source_id()]
    try:
        return subprocess.run(cmd, timeout=BENCH_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % BENCH_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
