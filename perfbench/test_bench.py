"""Tests of the benchmark itself.

    python3 perfbench/test_bench.py

Runs the Scala self-tests (percentiles, buckets, path generators) and checks
that the metric names and units the benchmark prints are the ones
BENCHMARK.json declares.
"""

import json
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
import build  # noqa: E402  (after disabling bytecode files)


def java(classpath: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["java", "-XX:-UsePerfData", "-Xmx1536m", "-cp", classpath, *args],
                          cwd=build.ROOT, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=600)


class BenchmarkTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.classpath = build.build()

    def test_scala_self_tests(self):
        done = java(self.classpath, "pprbench.SelfTest")
        print(done.stdout, end="")
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)

    def test_metric_names_match_benchmark_json(self):
        declared = json.loads((build.ROOT / "BENCHMARK.json").read_text())
        done = java(self.classpath, "pprbench.Main", "--list-metrics")
        self.assertEqual(done.returncode, 0, done.stderr)
        printed = {"end_to_end": [], "per_layer": []}
        for line in done.stdout.splitlines():
            kind, name, unit = line.split()
            printed[kind].append({"name": name, "unit": unit})
        for kind, metrics in printed.items():
            self.assertEqual(metrics, [{"name": m["name"], "unit": m["unit"]} for m in declared[kind]],
                             kind)


if __name__ == "__main__":
    unittest.main(verbosity=2)
