#!/usr/bin/env python3
"""Build and run the repo benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune (inside the checkout's _build,
dune cache off), then runs it with the same arguments. The program's
stdout is passed through; its last line is the JSON result. Build logs
go to stderr. Exits non-zero, printing no result, when the checkout
lacks the library sources, the build fails or the run fails.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, stdout, env=None):
    proc = subprocess.Popen(cmd, stdout=stdout, env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("no %s here: run from the root of a source checkout" % needed)
    build = ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/perfbench.exe"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    if run(build, BUILD_TIMEOUT_S, sys.stderr, env) != 0:
        fail("build failed")
    sys.stdout.flush()
    code = run([EXE] + sys.argv[1:], RUN_TIMEOUT_S, None)
    sys.exit(code)


if __name__ == "__main__":
    main()
