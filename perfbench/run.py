#!/usr/bin/env python3
"""Detector benchmark: build, run one workload, check, print one JSON line.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and the library sources it compiles) into .bench_build,
or into $CARGO_TARGET_DIR when that is set, then runs the scd_perfbench
binary. Inputs and alarm references are cached in .bench_cache; the traced
run writes its ledger and Chrome trace to .bench_out and validates the trace
with scripts/trace_check.py, requiring a span for every ledger layer.

The last line of standard output is one JSON object with exactly the keys
correct, attempted, failed and metrics. Lines before it start with "#".
Exits non-zero, without that line, when the build or the run fails.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "scd_perfbench"
# Cached large traces are ~170 MB each; keep only the newest few per stream.
MAX_CACHED_TRACES = 6


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir: str) -> str:
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", build_dir, "--target", BINARY, "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(build_dir, BINARY)


def evict_old_traces(cache_dir: str) -> None:
    """Removes the oldest cached traces of each stream beyond the limit."""
    streams: dict[str, list[str]] = {}
    for path in glob.glob(os.path.join(cache_dir, "*.scdt")):
        stream = os.path.basename(path).rsplit("-", 1)[0]
        streams.setdefault(stream, []).append(path)
    for paths in streams.values():
        paths.sort(key=os.path.getmtime, reverse=True)
        for path in paths[MAX_CACHED_TRACES:]:
            os.remove(path)


def check_trace(out_dir: str, workload: str) -> tuple[bool, str]:
    """Validates the traced run's Chrome trace: every ledger layer spanned."""
    ledger_path = os.path.join(out_dir, f"{workload}-ledger.json")
    trace_path = os.path.join(out_dir, f"{workload}-trace.json")
    with open(ledger_path, encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    cmd = [sys.executable, os.path.join(ROOT, "scripts", "trace_check.py"),
           "trace", trace_path]
    for span in spans:
        cmd += ["--require-span", span]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    return proc.returncode == 0, proc.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken streams, for the self-test")
    parser.add_argument("--digests",
                        default=os.path.join(HERE, "reference_digests.txt"),
                        help="committed alarm digests of the default seed")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    binary = build(build_dir)
    cache_dir = os.path.join(ROOT, ".bench_cache")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(cache_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    evict_old_traces(cache_dir)

    common = [binary, "--workload", args.workload, "--seed", str(args.seed),
              "--cache", cache_dir] + (["--tiny"] if args.tiny else [])
    # Generation and the alarm reference run in a process of their own, so
    # that the measuring process's heap starts the same on every run.
    prepare = subprocess.run(common + ["--prepare"], stdout=subprocess.PIPE,
                             text=True)
    sys.stdout.write(prepare.stdout)
    if prepare.returncode != 0:
        fail(f"{BINARY} --prepare exited with {prepare.returncode}")
    cmd = common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--digests", args.digests, "--out", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        fail(f"{BINARY} exited with {proc.returncode}")

    if args.trace:
        ok, message = check_trace(out_dir, args.workload)
        print(f"# trace_check: {message}")
        result["correct"] = result["correct"] and ok

    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
