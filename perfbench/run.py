#!/usr/bin/env python3
"""Build ccsim's benchmark from source and run one workload.

Usage, from the root of a ccsim checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (the first build compiles the
simulator's libraries too), then runs it with the recorded reference
digests. The last line of standard output is the result as one JSON
object; progress and the traced run's layer table go to standard error.
Exits non-zero without printing a result when the checkout holds no
simulator sources or the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    return 2


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        return fail("no ccsim sources here (dune-project and lib/ are missing)")
    dune = shutil.which("dune")
    if dune is None:
        return fail("dune is not on PATH")
    # No shared dune cache: the build writes inside the checkout only.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ROOT, "--profile", "perfbench",
         "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        return fail("build failed")
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    cmd = [exe] + sys.argv[1:] + ["--digests", os.path.join(HERE, "digests.txt")]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
