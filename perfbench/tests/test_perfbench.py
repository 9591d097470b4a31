"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/tests/test_perfbench.py

Builds the harness (through run.py) if needed, then checks, for every
workload in BENCHMARK.json, that a tiny run emits every end-to-end metric
(--trace 0) and every per-layer metric (--trace 1) with its declared unit,
that two runs with the same seed give identical deterministic metrics, and
that the harness refuses to run with an LPCE_* variable set.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Metrics that depend only on the seed and the code, never on timing.
DETERMINISTIC = {
    0: ["success_frac", "qerror_p50", "qerror_p95"],
    1: ["engine.reopts_per_query", "optimizer.estimates_per_plan",
        "exec.rows_per_query", "exec.peak_intermediate_mb",
        "feedback.log_bytes_per_query", "server.rejected"],
}


def run(workload, seed, trace, env=None):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    def check_run(self, workload, trace, declared):
        first = run(workload, 11, trace)
        self.assertEqual(first.returncode, 0, first.stderr[-2000:])
        second = run(workload, 11, trace)
        self.assertEqual(second.returncode, 0, second.stderr[-2000:])
        a, b = result_of(first), result_of(second)
        for r in (a, b):
            self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(r["correct"])
            self.assertGreaterEqual(r["attempted"], 1)
            self.assertEqual(r["failed"], 0)
            self.assertEqual(set(r["metrics"]), {m["name"] for m in declared})
            for m in declared:
                self.assertEqual(r["metrics"][m["name"]]["unit"], m["unit"], m["name"])
        for name in DETERMINISTIC[trace]:
            self.assertEqual(a["metrics"][name]["value"], b["metrics"][name]["value"],
                             f"{workload}: {name} differs between same-seed runs")

    def test_end_to_end_metrics(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check_run(workload["name"], 0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check_run(workload["name"], 1, SPEC["per_layer"])

    def test_refuses_engine_knobs(self):
        env = dict(os.environ, LPCE_NUM_THREADS="2")
        proc = run(SPEC["workloads"][0]["name"], 11, 0, env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_rejects_unknown_workload(self):
        proc = run("no-such-workload", 11, 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
