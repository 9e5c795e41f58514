"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload zoom-uniform --seed 1 --seconds 8 --trace 0

Builds the benchmark if its sources changed (see build.py), then runs one
JVM per set-up, one after the other, with the heap size, collector and JIT
thresholds fixed here. The last JVM also runs the queries; its output is
passed through, and its last line is the JSON result. With `--trace 1` the
run also writes its spans to `.bench_build/perfbench/traces/`.
"""

import argparse
import json
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import build  # noqa: E402  (after disabling bytecode files)

WORKLOADS = ["zoom-uniform", "zoom-hubs"]

# Fixed heap (min = max, touched up front) and a single-threaded collector:
# one client thread generates the load, and nothing else runs in the JVM.
# Per-query methods run once per click, so at the default thresholds C2
# compiles them only after ~10 s of queries; a tenth of the thresholds
# brings the JIT to steady state within the warm-up.
JVM_FLAGS = [
    "-Xms768m", "-Xmx768m", "-XX:+AlwaysPreTouch",
    "-XX:+UseSerialGC",
    "-XX:CompileThresholdScaling=0.1",
    "-XX:-UsePerfData",
]

# Set-ups per run, each in a JVM of its own; `setup_s` and `preprocess_s`
# are medians over them.
SETUPS = 3

# A run, after any build, must end well inside the three minutes it is given.
RUN_TIMEOUT_S = 170


def run_jvm(cmd: list, deadline: float):
    """Runs one JVM to completion; returns its exit code and output lines.
    A JVM still running at the deadline is killed, and the run fails."""
    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        sys.exit(1)
    return proc.returncode, out.rstrip("\n").split("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    try:
        classpath = build.build()
    except build.BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    cmd = ["java", *JVM_FLAGS, "-cp", classpath, "pprbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    deadline = time.monotonic() + RUN_TIMEOUT_S

    # Set-ups, one JVM each; the last JVM also runs the queries.
    priors = []
    for _ in range(SETUPS - 1):
        code, lines = run_jvm(cmd + ["--setup-only", "1"], deadline)
        if code != 0 or not lines[-1].startswith("SETUP\t"):
            print("\n".join(lines), file=sys.stderr)
            print(f"set-up exited with code {code}", file=sys.stderr)
            return 1
        priors += ["--prior", lines[-1][len("SETUP\t"):]]

    code, lines = run_jvm(cmd + ["--out-dir", str(build.OUT / "traces"), *priors], deadline)
    for line in lines[:-1]:
        print(line)
    last = lines[-1]
    if code != 0:
        print(last, flush=True)
        print(f"benchmark exited with code {code}", file=sys.stderr)
        return 1
    try:
        result = json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        print(last, flush=True)
        print("benchmark printed no result line", file=sys.stderr)
        return 1
    print(last, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
