#!/usr/bin/env python3
"""Build probterm and the benchmark from source, then run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <paper-lower|serve-hot|serve-cold> \
        --seed N --seconds S --trace 0|1

Both builds go to $CARGO_TARGET_DIR (default: .bench_build). Build output goes
to stderr; stdout carries the report, whose last line is the JSON result.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = ("Cargo.toml", "Cargo.lock", "src", "crates")


def source_files():
    """Every source file the build reads, in a fixed order."""
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            yield path
            continue
        for directory, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "target")
            for name in sorted(names):
                yield os.path.join(directory, name)


def revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout.strip()
            if out:
                return out
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for name in source_files():
        digest.update(os.path.relpath(name, ROOT).encode())
        with open(name, "rb") as handle:
            digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:12]


def main():
    missing = [s for s in SOURCES if not os.path.exists(os.path.join(ROOT, s))]
    if missing:
        print(f"perfbench: repository sources missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = (
        ["cargo", "build", "--release", "--offline", "--locked", "-p", "probterm", "--bin", "probterm"],
        ["cargo", "build", "--release", "--offline", "--locked", "--manifest-path", "perfbench/Cargo.toml"],
    )
    for build in builds:
        if subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print(f"perfbench: build failed: {' '.join(build)}", file=sys.stderr)
            return 1
    command = [
        os.path.join(target, "release", "perfbench"),
        "--probterm", os.path.join(target, "release", "probterm"),
        "--out", os.path.join(ROOT, "perfbench", "out"),
        "--rev", revision(),
        *sys.argv[1:],
    ]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
