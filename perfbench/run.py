#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload dense_phases --seed 1 --seconds 20 --trace 0

Run it from the repository root. It configures and builds perfbench/ (the
library sources plus the benchmark driver) in Release under
$CARGO_TARGET_DIR (default .bench_build), runs the driver, checks the set
and ledger digests against perfbench/expected.json, stamps the host, and
prints the result JSON as the last line of standard output.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("dense_phases", "sharded_gather", "serve_churn")
BINARY = "rsets_perfbench"
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                 build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        jobs = str(min(os.cpu_count() or 1, 4))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr)
    with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.strip().split("=", 1)[1]
                if build_type != "Release":
                    fail(f"refusing a {build_type or 'default'} build; "
                         f"delete {build_dir} to reconfigure")
    return os.path.join(build_dir, BINARY)


def source_digest(root):
    """SHA-256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("run from the repository root: src/CMakeLists.txt is missing", 2)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    run_dir = os.path.join(build_dir, "runs",
                           f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}-{os.getpid()}")
    journal_dir = os.path.join(run_dir, "journal")
    os.makedirs(journal_dir, exist_ok=True)
    spans = os.path.join(run_dir, "spans.jsonl")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp-dir", journal_dir]
    if args.trace:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        # Journals are scratch; only a traced run's span file is kept.
        shutil.rmtree(journal_dir if args.trace else run_dir,
                      ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"{BINARY} exited with {proc.returncode}")

    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    host = next(line["host"] for line in lines if "host" in line)
    detail = next(line["detail"] for line in lines if "detail" in line)
    result = lines[-1]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")

    # Digest check against the recorded values for this (workload, seed).
    with open(os.path.join(root, "perfbench", "expected.json")) as f:
        expected = json.load(f).get(args.workload, {}).get(str(args.seed))
    got = {"set": detail["set_digest"], "ledger": detail["ledger_digest"]}
    if expected is None:
        digest_check = "unrecorded seed"
    elif expected == got:
        digest_check = "match"
    else:
        digest_check = f"MISMATCH expected {expected}"
        result["failed"] += 1
        result["correct"] = False

    host.update(git_sha=git_sha(root), source_sha256=source_digest(root))
    print(json.dumps({"host": host}))
    detail["digest_check"] = digest_check
    if args.trace:
        detail["spans"] = os.path.relpath(spans, root)
    detail["failure_rate"] = result["failed"] / result["attempted"]
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
