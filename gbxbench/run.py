#!/usr/bin/env python3
"""Builds the gbxbench driver from this checkout and runs one workload.

    python3 gbxbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
when set, else to .bench_build; the first run configures and builds
(Release), later runs only check that the build is current. A build
directory configured from another checkout's sources is refused, so two
checkouts never share one build. Build output
goes to stderr; the driver's standard output is passed through, so its
last line is the result JSON. Exits non-zero, without a result, when the
library sources are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def configured_source(out):
    """The gbxbench source directory the build in `out` was configured
    from, or None when `out` holds no CMake cache."""
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except FileNotFoundError:
        return None
    return ""


def step(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    for needed in ("CMakeLists.txt", "src", "include"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"run.py: {needed} missing at the checkout root; "
                  "cannot build the library", file=sys.stderr)
            return 1
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    source = configured_source(out)
    if source is not None and os.path.realpath(source) != os.path.realpath(HERE):
        print(f"run.py: {out} was configured from {source or 'an unknown source'}, "
              f"not from {HERE}; use another CARGO_TARGET_DIR", file=sys.stderr)
        return 1
    if source is None:
        if not step(["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]):
            return 1
    if not step(["cmake", "--build", out, "--target", "gbxbench", "-j", jobs]):
        return 1
    proc = subprocess.run([os.path.join(out, "gbxbench"), *sys.argv[1:],
                           "--out", out])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
