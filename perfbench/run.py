#!/usr/bin/env python3
"""Builds the eTransform benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload <estates-exact|dr-horizon-exact|daemon-mix>
                             --seed N --seconds S --trace 0|1

Run from the repository root. The harness (perfbench/CMakeLists.txt) is
configured and built under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) as a RelWithDebInfo build; a Debug build is refused.
Run records and Chrome traces land in .bench_out/. The last line of standard
output is the harness's result object; the exit code is non-zero when the
build fails or any correctness check fails.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("estates-exact", "dr-horizon-exact", "daemon-mix")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def build_metadata(build_dir):
    """Build type and compiler from the CMake cache."""
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    compiler = "unknown"
    files = os.path.join(build_dir, "CMakeFiles")
    for entry in sorted(os.listdir(files)):
        path = os.path.join(files, entry, "CMakeCXXCompiler.cmake")
        if os.path.exists(path):
            with open(path) as f:
                text = f.read()
            cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
            ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
            compiler = "-".join(m.group(1) for m in (cid, ver) if m)
    return cache.get("CMAKE_BUILD_TYPE", ""), compiler


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    build_type, compiler = build_metadata(build_dir)
    if build_type.lower() not in ("release", "relwithdebinfo"):
        log(f"refusing to time a '{build_type or 'unset'}' build")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", ".bench_out", "--build-type", build_type,
           "--compiler", compiler, "--commit", git_commit()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"harness exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = out.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    if not isinstance(result, dict):
        # A crash: keep the diagnostics, print no result line.
        sys.stderr.write(out)
        log(f"harness exited with {proc.returncode} and no result")
        return proc.returncode or 1
    # Failed checks still print their result (correct: false) and exit 1.
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
