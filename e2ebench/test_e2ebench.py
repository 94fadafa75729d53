#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a dfsm checkout:

    python3 e2ebench/test_e2ebench.py

Checks that layers.json maps every per-layer metric of BENCHMARK.json to
an end-to-end metric and a workload, that a real run prints exactly the
metric names and units of BENCHMARK.json, and runs the C++ unit tests
(span self-time arithmetic, input determinism).
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark entry point, for its build step)

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
# The src/ modules the benchmark measures.
LAYERS = {"bugtraq", "runtime", "loadgen", "netsim", "apps", "analysis",
          "core", "staticlint", "fssim"}


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


class Catalog(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.program = run.build(ROOT)
        if cls.program is None:
            raise RuntimeError("build failed")
        cls.spec = load(os.path.join(ROOT, "BENCHMARK.json"))

    def test_every_layer_metric_names_an_end_to_end_metric_and_a_workload(self):
        layers = load(os.path.join(BENCH, "layers.json"))["per_layer"]
        self.assertEqual(list(layers), [m["name"] for m in self.spec["per_layer"]])
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        workloads = {w["name"] for w in self.spec["workloads"]}
        for name, entry in layers.items():
            self.assertTrue(entry["moves"], name)
            self.assertLessEqual(set(entry["moves"]), e2e, name)
            self.assertIn(entry["workload"], workloads, name)
            self.assertIn(name.split(".")[0], LAYERS, name)

    def test_a_run_prints_exactly_the_declared_metrics(self):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            out = subprocess.run(
                [self.program, "--workload", "model_analysis", "--seed", "5",
                 "--seconds", "1", "--trace", trace,
                 "--workdir", os.path.join(run.build_dir(ROOT), "test-work")],
                capture_output=True, text=True)
            self.assertEqual(out.returncode, 0, out.stderr)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(list(result["metrics"]),
                             [m["name"] for m in self.spec[key]])
            units = {m["name"]: m["unit"] for m in self.spec[key]}
            for name, metric in result["metrics"].items():
                self.assertEqual(metric["unit"], units[name])


class CppUnitTests(unittest.TestCase):
    def test_span_arithmetic_and_input_determinism(self):
        out = run.build_dir(ROOT)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                        "e2ebench_tests"], check=True, stdout=sys.stderr)
        tests = subprocess.run([os.path.join(out, "e2ebench_tests")],
                               capture_output=True, text=True)
        self.assertEqual(tests.returncode, 0, tests.stdout[-2000:])


if __name__ == "__main__":
    unittest.main()
