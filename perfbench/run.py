#!/usr/bin/env python3
"""Build raidrel from this checkout and run one end-to-end benchmark workload.

    python3 perfbench/run.py --workload converge_base --seed 1 --seconds 20 --trace 0

Builds the library (Release) and installs it into .bench_build/ at the
checkout root, builds perfbench/bench_e2e against that install, then runs
it with the given arguments. Build output goes to stderr; the last line of
stdout is the benchmark's JSON result. Extra arguments (--smoke, --out FILE)
are passed to bench_e2e unchanged. Exits non-zero if the checkout has no
raidrel sources, the build fails, or the benchmark fails a check.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; raise on failure."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   check=True, timeout=timeout)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    lib, prefix, bench = BUILD / "raidrel", BUILD / "prefix", BUILD / "perfbench"
    if not (lib / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", str(ROOT), "-B", str(lib), *gen,
                   "-DCMAKE_BUILD_TYPE=Release",
                   "-DRAIDREL_BUILD_TESTS=OFF", "-DRAIDREL_BUILD_BENCH=OFF",
                   "-DRAIDREL_BUILD_EXAMPLES=OFF",
                   f"-DCMAKE_INSTALL_PREFIX={prefix}"], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", str(lib), "-j", jobs], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--install", str(lib)], BUILD_TIMEOUT_S)
    if not (bench / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(bench), *gen,
                   "-DCMAKE_BUILD_TYPE=Release",
                   f"-DCMAKE_PREFIX_PATH={prefix}"], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", str(bench), "-j", jobs], BUILD_TIMEOUT_S)
    return bench / "bench_e2e"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = parser.parse_known_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"run.py: no raidrel sources at {ROOT}", file=sys.stderr)
        return 2
    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    scratch = BUILD / f"scratch-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--scratch", str(scratch), *extra]
    if args.trace == "1":
        spans = BUILD / "traces" / f"{args.workload}-{args.seed}.spans.jsonl"
        cmd += ["--spans", str(spans)]
    try:
        # The benchmark writes its own stdout, so its JSON stays the last line.
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
