#!/usr/bin/env python3
"""Build the benchmark and the gclabd daemon from this tree, then run one
workload. Run from the repository root:

    python3 perfbench/run.py --workload svc-hit --seed 1 --seconds 12 --trace 0

Arguments are passed to the perfbench binary unchanged. Build products,
the Go build cache, daemon logs and span dumps go under .bench_build/ in
the repository root; nothing is read or written outside the checkout.
Build output goes to standard error, so the last line of standard output
is the benchmark's JSON result.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(OUT, "gocache"),
        GOPATH=os.path.join(OUT, "gopath"),
        GOMODCACHE=os.path.join(OUT, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(OUT, "config"),  # go env and telemetry files
        GOTMPDIR=os.path.join(OUT, "tmp"),  # the go command's work directories
        TMPDIR=os.path.join(OUT, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOWORK="off",
        GOFLAGS="",
    )
    return env


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(
        os.path.join(ROOT, "cmd", "gclabd")
    ):
        sys.exit("perfbench: run from the root of a jvmgc checkout (go.mod and cmd/gclabd not found)")
    env = go_env()
    bindir = os.path.join(OUT, "bin")
    os.makedirs(bindir, exist_ok=True)
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    builds = [
        (ROOT, ["go", "build", "-o", os.path.join(bindir, "gclabd"), "./cmd/gclabd"]),
        (BENCH, ["go", "build", "-o", os.path.join(bindir, "perfbench"), "."]),
    ]
    for cwd, cmd in builds:
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    args = [
        os.path.join(bindir, "perfbench"),
        "-gclabd", os.path.join(bindir, "gclabd"),
        "-state", os.path.join(OUT, "perfbench"),
    ] + sys.argv[1:]
    sys.stdout.flush()
    os.execve(args[0], args, env)


if __name__ == "__main__":
    main()
