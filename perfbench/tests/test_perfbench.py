#!/usr/bin/env python3
"""Tests of the mvsched benchmark.

    python3 perfbench/tests/test_perfbench.py

Runs every workload at its declared size with a short time budget, so each
run lasts as long as its minimum number of segments (a few minutes in all;
builds the benchmark first if needed). Checks that each one emits exactly its
declared metrics with their units, passes its correctness gate, and handles
its seed: the same seed reproduces the deterministic figures, another seed
changes the inputs.
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")
# Every workload the binary runs; s1_closed and plane_steady are runnable but
# not declared in BENCHMARK.json (see README.md).
WORKLOADS = ("s1_closed", "city_paced", "plane_steady", "plane_churn")
DECLARED = ("city_paced", "plane_churn")
PIPELINES = ("s1_closed", "city_paced")
PIPELINE_LAYERS = ("sim.", "vision.", "track.", "detect.", "assoc.", "core.",
                   "gpu.", "net.", "policy.", "rt.")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

_runs = {}


def run(workload, seed=7, trace=0):
    """Shortest run (memoized); returns (result JSON, {detail: value})."""
    key = (workload, seed, trace)
    if key not in _runs:
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
             "--seconds", "0.1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            raise AssertionError(f"{key} exited {proc.returncode}: "
                                 f"{proc.stderr[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        detail = {}
        for line in lines[:-1]:
            parts = line.split()
            if parts[0] == "detail":
                detail[parts[1]] = float(parts[2])
        _runs[key] = (json.loads(lines[-1]), detail)
    return _runs[key]


class SpecTest(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(SPEC["paths"], ["perfbench"])
        self.assertIsInstance(SPEC["run_seconds"], int)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(DECLARED))
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class WorkloadTest(unittest.TestCase):
    def check_result(self, result, declared):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], units[name], name)
            self.assertTrue(math.isfinite(metric["value"]), name)

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, _ = run(w)
                self.check_result(result, SPEC["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0.0, name)

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, _ = run(w, trace=1)
                self.check_result(result, SPEC["per_layer"])
                values = {k: v["value"] for k, v in result["metrics"].items()}
                if w == "s1_closed":
                    self.assertEqual(values["policy.gate_cold_ratio"], 0.0)
                if w == "city_paced":
                    self.assertGreater(values["policy.gate_cold_ratio"], 0.0)
                    self.assertGreater(values["policy.decide_us"], 0.0)
                for name, value in values.items():
                    if w in PIPELINES and name.startswith("fleet."):
                        self.assertEqual(value, 0.0, name)
                    if w not in PIPELINES and name.startswith(PIPELINE_LAYERS):
                        self.assertEqual(value, 0.0, name)
                if w in PIPELINES:
                    self.assertGreater(values["vision.flow_us"], 0.0)
                    self.assertGreater(values["assoc.associate_us"], 0.0)
                else:
                    self.assertGreater(values["fleet.arbiter_ns_per_session"],
                                       0.0)

    def test_seed_handling(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, first = run(w, seed=7)
                _, again = run(w, seed=7, trace=1)
                _, other = run(w, seed=8)
                self.assertIn("input_digest", first)
                self.assertEqual(first["input_digest"], again["input_digest"])
                self.assertNotEqual(first["input_digest"],
                                    other["input_digest"])
                for name in ("sim_latency_ms_mean", "object_recall",
                             "streaming_recall", "deadline_miss_ratio",
                             "slo_miss_ratio"):
                    if name in first and name in again:
                        self.assertEqual(first[name], again[name], name)


if __name__ == "__main__":
    unittest.main()
