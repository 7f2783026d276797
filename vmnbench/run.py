#!/usr/bin/env python3
"""Build the vmn benchmark driver from source and run one workload.

Run from the repository root:

    python3 vmnbench/run.py --workload <zoo|estate|reload|isolation> \
        --seed N --seconds S --trace <0|1>

The driver (vmnbench/src) is configured with CMake into $CARGO_TARGET_DIR
(default .bench_build) and built in Release mode together with libvmn; a
build that is already up to date costs a second. The driver's standard
output passes through unchanged: its last line is the JSON result. Build
logs go to standard error. Spans of traced runs are written to
<build dir>/traces/. Exits non-zero, without a result, when the sources or
the build are missing.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = "4"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "vmnbench")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("vmnbench: vmn sources not found next to vmnbench/")
    if shutil.which("cmake") is None:
        sys.exit("vmnbench: cmake not found")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "vmnbench",
                    "-j", BUILD_JOBS], stdout=sys.stderr, check=True)
    return os.path.join(out, "vmnbench")


def main(argv):
    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        sys.exit("vmnbench: build failed (%s)" % e)
    out = build_dir()
    work = os.path.join(out, "work", str(os.getpid()))
    traces = os.path.join(out, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    args = list(argv)
    if "--trace-out" not in args:
        tag = "-".join(a for a in args if not a.startswith("--"))
        args += ["--trace-out", os.path.join(traces, "trace-%s.json" % tag)]
    try:
        proc = subprocess.run([binary, "--work-dir", work] + args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
