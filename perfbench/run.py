#!/usr/bin/env python3
"""Build and run the repository's benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `pvbench` binary from source with `cargo build --release`
(honouring CARGO_TARGET_DIR), runs it from the repository root and relays
its result line, which is the last line of standard output. The server's
per-hit log lines on standard error are counted and dropped, and the
binary's other diagnostics are passed through. The script exits non-zero
without a result line when the build fails, the binary fails or times
out, or its last line is not a well-formed result.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170
HIT_LOG_PREFIX = "pv: cache hit "


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return False
    if done.returncode != 0:
        print(f"run.py: build failed with exit code {done.returncode}", file=sys.stderr)
        return False
    return True


def binary_path():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    return os.path.join(ROOT, target, "release", "pvbench")


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (
        isinstance(result, dict)
        and set(result) == {"correct", "attempted", "failed", "metrics"}
        and isinstance(result["attempted"], int)
        and result["attempted"] >= 1
    )


def main():
    if not build():
        return 1
    proc = subprocess.Popen(
        [binary_path()] + sys.argv[1:],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"run.py: the benchmark did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    hits = 0
    for line in err.splitlines():
        if line.startswith(HIT_LOG_PREFIX):
            hits += 1
        else:
            print(line, file=sys.stderr)
    if hits:
        print(f"run.py: dropped {hits} per-hit server log lines", file=sys.stderr)
    lines = out.splitlines()
    if proc.returncode != 0:
        print(f"run.py: the benchmark exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode
    if not lines or not valid_result(lines[-1]):
        print("run.py: the benchmark printed no well-formed result line", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
