#!/usr/bin/env python3
"""Self-test of the benchmark's failure accounting.

Run from the repository root:

    python3 ssalive-bench/selftest.py

Runs a short uniform-4k benchmark twice: once as is, which must pass with
no failed frame, and once with one bit of one expected reply flipped
(--corrupt-frame), which must report that frame as failed, mark the result
incorrect and exit nonzero. Exits nonzero if either expectation is broken.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(extra):
    cmd = [sys.executable, os.path.join("ssalive-bench", "run.py"),
           "--workload", "uniform-4k", "--seed", "7", "--seconds", "1",
           "--trace", "0"] + extra
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    try:
        result = json.loads(proc.stdout.strip().split("\n")[-1])
    except (ValueError, IndexError):
        result = None
    return proc.returncode, result


def main():
    problems = []
    code, result = run([])
    if code != 0 or not result or not result["correct"] or result["failed"]:
        problems.append(f"clean run: exit {code}, result {result}")
    code, result = run(["--corrupt-frame", "3"])
    if code == 0 or not result or result["correct"] or result["failed"] < 1:
        problems.append(f"corrupted run: exit {code}, result {result}")
    for p in problems:
        print("FAIL", p)
    if not problems:
        print("ok: a clean run passes and a corrupted expectation fails")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
