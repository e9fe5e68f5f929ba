#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself, at smoke size.

    python3 perfbench/test_perfbench.py

Builds the driver through run.py, then checks that
  * the inputs are a pure function of the seed: two runs with one seed give
    identical deterministic metrics;
  * pool threads 1 and 4 give identical deterministic metrics;
  * a smoke run of every workload prints every metric of BENCHMARK.json,
    with its unit, and passes its own correctness checks.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKLOADS = ("large_query", "service_packed", "capped_resume")
# Metrics that are exact functions of the seed (end-to-end, then per-layer).
DETERMINISTIC = ("questions", "crowd_rounds", "cost_usd", "skyline_f1")
DETERMINISTIC_TRACED = ("governor.capped_skyline_f1", "algo.free_lookups",
                        "service.packed_hits", "service.isolated_hits",
                        "persist.replayed_attempts")

BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build()
    if BINARY is None:
        raise RuntimeError("benchmark build failed")


def smoke(workload, seed=1, trace=0, threads=None):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
           "0.2", "--trace", str(trace), "--smoke", "--work-dir",
           os.path.join(run.build_dir(), "work")]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=180)
    if out.returncode != 0:
        raise AssertionError("exit %d: %s" % (out.returncode, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def values(result, names):
    return {n: result["metrics"][n]["value"] for n in names}


class PerfbenchTest(unittest.TestCase):
    def test_inputs_are_a_function_of_the_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = smoke(w, seed=7), smoke(w, seed=7)
                self.assertEqual(values(a, DETERMINISTIC),
                                 values(b, DETERMINISTIC))
                c = smoke(w, seed=8)
                self.assertNotEqual(values(a, DETERMINISTIC),
                                    values(c, DETERMINISTIC))
                ta, tb = smoke(w, seed=7, trace=1), smoke(w, seed=7, trace=1)
                self.assertEqual(values(ta, DETERMINISTIC_TRACED),
                                 values(tb, DETERMINISTIC_TRACED))

    def test_pool_threads_do_not_change_results(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                one = smoke(w, threads=1)
                four = smoke(w, threads=4)
                self.assertEqual(values(one, DETERMINISTIC),
                                 values(four, DETERMINISTIC))

    def test_every_metric_is_printed_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))
        for w in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    result = smoke(w, trace=trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(sorted(metrics),
                                     sorted(m["name"] for m in spec[key]))
                    for m in spec[key]:
                        self.assertEqual(metrics[m["name"]]["unit"], m["unit"])


if __name__ == "__main__":
    unittest.main()
