#!/usr/bin/env python3
"""Build and run the ssalive closed-loop server benchmark.

Run from the repository root:

    python3 ssalive-bench/run.py --workload uniform-4k --seed 1 \
        --seconds 20 --trace 0

The first run configures and builds ssalive-bench/CMakeLists.txt (the
ssalive library from src/ plus the benchmark program in ssalive-bench/) under
.bench_build/ (or $CARGO_TARGET_DIR when set); later runs only check that the
build is current. The benchmark's report goes to stdout, and the last line is
one JSON object whose "metrics" hold exactly the metrics BENCHMARK.json
declares for the mode: end_to_end with --trace 0, per_layer with --trace 1.
The exit code is nonzero when the build fails, a reply differs from the
oracle, or a declared metric is missing. --trace 1 also writes a Chrome
trace to .bench_build/traces/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    """Configures once, then rebuilds incrementally; output to stderr."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "ssalive-bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--corrupt-frame", type=int, default=None,
                    help="flip one expected reply bit (self-test)")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "server",
                                       "LivenessServer.h")):
        fail(f"no ssalive sources under {ROOT}/src")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    names = [m["name"] for m in
             spec["per_layer" if args.trace == "1" else "end_to_end"]]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"),
                             "ssalive-bench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--source-id", source_id()]
    if args.trace == "1":
        trace_dir = os.path.join(os.path.dirname(build_dir), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    if args.corrupt_frame is not None:
        cmd += ["--corrupt-frame", str(args.corrupt_frame)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited {proc.returncode} without a result")
    for line in lines[:-1]:
        print(line)
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail(f"metrics missing from the run: {', '.join(missing)}")
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
