#!/usr/bin/env python3
"""Build and run the CRP end-to-end benchmark.

    python3 e2ebench/run.py --workload <paper|dense> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The benchmark and the CRP libraries are
built (Release) into $CARGO_TARGET_DIR, or .bench_build when it is unset;
build output goes to stderr. The benchmark's own stdout ends with one JSON
result line. A traced run also writes its spans to
<build dir>/trace-<workload>-<seed>.csv.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion; on timeout kills it and waits for it."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: the CRP sources (src/) are missing", file=sys.stderr)
        return 2
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(build_root, "e2ebench")
    try:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            if run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
                return 2
        if run(["cmake", "--build", build_dir, "-j", "4",
                "--target", "crp_e2ebench"],
               BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            return 2
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 2

    cmd = [os.path.join(build_dir, "crp_e2ebench")] + argv
    opts = dict(zip(argv[::2], argv[1::2]))
    if opts.get("--trace") == "1":
        cmd += ["--trace-out", os.path.join(
            build_root, "trace-%s-%s.csv" % (opts.get("--workload"),
                                            opts.get("--seed")))]
    sys.stdout.flush()
    try:
        return run(cmd, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
