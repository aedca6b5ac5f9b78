#!/usr/bin/env python3
"""Builds and runs the end-to-end compass benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload handheld --seed 1 --seconds 15 --trace 0

The library under ../src and the benchmark program in this directory are compiled
with CMake into .bench_build/perfbench (incremental after the first
run). The program's standard output is passed through unchanged;
its last line is the JSON result. Exit status is non-zero when the
build fails, the library sources are missing or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("handheld", "fleet_large", "fleet_noisy", "compassd")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "compass_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "compass_perfbench"


def git_sha(root):
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest(root):
    """Content hash of src/: identifies the code in a checkout without git."""
    h = hashlib.sha256()
    for path in sorted(p for p in (root / "src").rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        log(f"library sources not found under {root / 'src'}")
        return 2
    build_dir = root / ".bench_build" / "perfbench"
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(root), "--src-digest", source_digest(root),
           "--trace-out", str(build_dir / "traces")]
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; killed")
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
