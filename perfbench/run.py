#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload cold|edit|serve|signoff \
        --seed N --seconds S --trace 0|1

The benchmark is an OCaml executable in this directory, built with dune
against the repository's libraries.  Build output goes to stderr; the
benchmark's own output goes to stdout, and its last line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 1
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    if not os.path.isfile("dune-project"):
        print("perfbench: run from the repository root (no dune-project here)", file=sys.stderr)
        return 2
    # the shared dune cache lives outside the repository: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run(["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
               BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code or 1
    sys.stdout.flush()
    return run([EXE] + sys.argv[1:], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
