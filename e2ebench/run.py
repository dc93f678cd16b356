#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (`e2ebench/Cargo.toml`) that
depends on the repository's crates by path. It is built in release mode
into `$CARGO_TARGET_DIR` (default `.bench_build`); build output goes to
standard error, so the last line of standard output is the run's JSON
summary. A failed build exits non-zero without printing a summary.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def commit():
    """The checked-out commit, or "unknown" outside a git work tree.

    Git's search for a repository stops at the current directory's parent,
    so nothing outside the checkout is read.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            check=True,
            text=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "cbir-e2ebench")
    env.setdefault("CBIR_BENCH_COMMIT", commit())
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
