#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds `perfbench/` (a Cargo package
of its own, over the repository's crates) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs the workload in one process. The last
line of stdout is the JSON result; every metric is also printed to stderr
with its unit. The detailed result file, with the run's metadata, lands in
`.bench_out/results/`. The exit code is non-zero when the build fails, when
any output check fails, or on a usage error.
"""

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "perfbench"
WORKLOADS = ["figure_campaign", "oracle_direct", "sweep_journal", "serve_mixed"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def command_output(args):
    """First line of a command's stdout, or None if it cannot run."""
    try:
        done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.strip().splitlines()
    return lines[0] if done.returncode == 0 and lines else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = pathlib.Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(PACKAGE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"]) or "unknown"
    env["PERFBENCH_PROFILE"] = "release (lto = thin, debug = line-tables-only)"
    revision = None
    if (ROOT / ".git").exists():
        revision = command_output(["git", "rev-parse", "HEAD"])
    env["PERFBENCH_GIT_REV"] = revision or "unknown (not a git checkout)"
    run = subprocess.run(
        [str(target / "release" / "perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", str(ROOT / ".bench_out")],
        cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
