#!/usr/bin/env python3
"""Builds and runs the AMPED repository benchmark (see README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload patents-host --seed 1 \
        --seconds 20 --trace 0

Configures and builds perfbench/ (which compiles libamped from the
checkout's src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the driver. The driver's last stdout
line is the result JSON; this script checks it parses and passes it on.
Exits non-zero, printing no result, if the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "amped_perfbench"],
        check=True, stdout=sys.stderr)
    return build_dir / "amped_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    try:
        binary = build(root, target / "perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    # Scratch files of one run (.tns inputs, spill files, checkpoints)
    # live in work/ and are removed afterwards; span files are kept.
    work = target / "perfbench-work"
    spans = target / "perfbench-spans"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           args.trace, "--work-dir", str(work), "--span-dir", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log(f"driver exited with code {proc.returncode}")
        return 1
    try:
        json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(proc.stdout)
        log("driver printed no result line")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
