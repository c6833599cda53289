#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --one-cycle ...   # smoke mode

The program is built from the checkout's sources (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
then the benchmark binary runs the workload in its own process. Its stdout
is passed through; the last line is the JSON result. Build output goes to
stderr. Exits non-zero without a result when the sources are missing, the
build fails, or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("infocom-schemes", "reality-maintenance", "mobility-20k", "peerd-fleet")
RUN_TIMEOUT_S = 170
# Program knobs read from the environment; the workloads pin these choices
# in their configs, so an inherited value must not change what is measured.
PROGRAM_ENV_KNOBS = ("DTNCACHE_SHARDS", "DTNCACHE_SPARSE_PAIRS", "DTNCACHE_SHARD_STEAL_MAX",
                     "DTNCACHE_FULL_MAINTENANCE")


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    cache = os.path.join(out, "CMakeCache.txt")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("configuring the benchmark build failed")
    step = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(out, "perfbench")


def source_digest():
    """A digest of the program and benchmark sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def source_revision():
    """The git commit when there is one, marked with the source digest when
    src/ or perfbench/ differ from it; else the source digest alone."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--", "src",
                                 "perfbench"], capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            sha = head.stdout.strip()
            return sha if not status.stdout.strip() else f"{sha}+dirty-{source_digest()}"
    return source_digest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--one-cycle", action="store_true",
                        help="one set-up pass and one timed cycle (smoke test)")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    if not os.path.isfile(os.path.join(ROOT, "src", "runner", "experiment.hpp")):
        fail(f"program sources not found under {ROOT}/src; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake is required to build the benchmark")

    out = build_dir()
    binary = build(out)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", os.path.join(os.path.dirname(out), "perfbench-out")]
    if args.one_cycle:
        command.append("--one-cycle")
    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_ENV_KNOBS}
    env["PERFBENCH_SOURCE_REV"] = source_revision()
    sys.stdout.flush()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        fail(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
