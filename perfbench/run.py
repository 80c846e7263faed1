#!/usr/bin/env python3
"""Build the compsynth benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload table1-fast --seed 1 --seconds 30 --trace 0

Arguments are passed through to the Go program in this directory (see
main.go for the workloads and metrics). Everything the build and the run
write stays under .bench_build/ in the current directory: the Go build
cache, the binary, the fleet's journals and the traced run's spans. The
last line of standard output is the JSON result; the exit status is
non-zero when the build fails or an output check fails.
"""

import os
import subprocess
import sys

# A run must end within three minutes; the program itself stops well
# before this on a healthy host.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal", "core"))):
        sys.stderr.write("run.py: run from the compsynth repository root "
                         "(go.mod and internal/ not found in %s)\n" % root)
        return 2
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
    })
    for d in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.stderr.write("run.py: build failed: %s\n" % err)
        return 2
    if built.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return 2
    proc = subprocess.Popen([binary, "--out", build] + sys.argv[1:], cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("run.py: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
