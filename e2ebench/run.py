#!/usr/bin/env python3
"""End-to-end benchmark of the Impatience ingest server.

Builds the benchmark (e2ebench/, which compiles the library sources under
src/ of the same checkout) and runs one workload:

    python3 e2ebench/run.py --workload tcp_ingest --seed 1 --seconds 10 --trace 0

Run it from the root of the checkout. --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer metrics. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; every
line before it is a human-readable stamp, note or metric. Build output and
errors go to stderr. `--selftest` builds and runs the tests of the
benchmark's own logic instead.

Everything the benchmark writes stays under the build directory:
$CARGO_TARGET_DIR if set, else .bench_build (relative to the working
directory).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Git commit of the checkout, else a digest of the library sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail("build failed: " + " ".join(step), 3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "server",
                                       "ingest_service.h")):
        fail(f"library sources not found under {ROOT}/src; run from a full "
             "checkout")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    build_dir = os.path.join(build_root, "e2ebench")
    build(build_dir)

    # The binary fixes every IMPATIENCE_* setting itself; drop inherited
    # ones too, since IMPATIENCE_TRACE is read before main().
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("IMPATIENCE_")}
    # Throwaway spill stores, one directory per run so that concurrent runs
    # in one checkout never remove each other's files.
    tmp_root = os.path.join(build_root, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    env["TMPDIR"] = tmp_dir
    env["E2EBENCH_GIT_SHA"] = source_digest()

    if args.selftest:
        cmd = [os.path.join(build_dir, "e2ebench_selftest")]
    else:
        out_dir = os.path.join(build_root, "traces")
        os.makedirs(out_dir, exist_ok=True)
        cmd = [os.path.join(build_dir, "e2ebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", out_dir]
    try:
        result = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    if args.selftest:
        sys.stdout.write(result.stdout)
        sys.exit(result.returncode)
    if result.returncode != 0:
        fail(f"run failed with exit code {result.returncode}", 5)

    lines = result.stdout.rstrip("\n").split("\n")
    try:
        report = json.loads(lines[-1])
    except ValueError:
        fail("the run printed no result line", 6)
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 6)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
