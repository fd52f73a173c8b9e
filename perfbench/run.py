#!/usr/bin/env python3
"""Build the perfbench Go package and run one benchmark run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload live --seed 1 --seconds 10 --trace 0

The binary and the Go build cache go to .bench_build/ under the checkout
(or $CARGO_TARGET_DIR when set), so nothing is written outside it. The
benchmark's last line of standard output is its JSON result; when the
build or the run fails, this script exits non-zero without printing one.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out_dir = os.path.abspath(out_dir)
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out_dir, "gocache"),
        GOMODCACHE=os.path.join(out_dir, "gomodcache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOPROXY="off",
        # The go command keeps its telemetry counters under the user
        # config directory; point that into the build directory as well.
        XDG_CONFIG_HOME=os.path.join(out_dir, "config"),
    )
    binary = os.path.join(out_dir, "perfbench")
    build = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=HERE, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run(
        [binary, "--workdir", os.path.join(out_dir, "work")] + sys.argv[1:],
        cwd=ROOT, env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
