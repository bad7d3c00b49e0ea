#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fleet_direct --seed 1 --seconds 10 \
        --trace 0

Run from the root of a checkout. Builds perfbench/ (the capp library,
tools/collector_server and the measuring driver) from source into
$CARGO_TARGET_DIR (default .bench_build), runs the driver with TMPDIR
pointed at .bench_tmp inside the checkout, and passes its output through:
the last line is the JSON result. Exits non-zero, printing no result, when
the build or the driver fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

DRIVER_TIMEOUT_S = 170


def build(build_dir):
    here = os.path.dirname(os.path.abspath(__file__))
    steps = [
        ["cmake", "-S", here, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
         "--target", "perfbench_driver", "collector_server"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("perfbench: build step failed: %s\n" %
                             " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fleet_direct", "tcp_wal", "slot_stream_d4"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 1
    scratch = ".bench_tmp"
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    env = dict(os.environ, TMPDIR=scratch)
    command = [os.path.join(build_dir, "perfbench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--server", os.path.join(build_dir, "collector_server")]
    # Its own process group, so a timeout also stops the collector_server
    # children the driver spawned.
    driver = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                              text=True, start_new_session=True)
    try:
        output, _ = driver.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(driver.pid, signal.SIGKILL)
        driver.communicate()
        sys.stderr.write("perfbench: driver timed out\n")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if driver.returncode != 0:
        sys.stderr.write(output)
        sys.stderr.write("perfbench: driver exited with %d\n" %
                         driver.returncode)
        return 1
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
