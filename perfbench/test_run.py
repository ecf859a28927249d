#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_run.py        (from the repository root)

Builds the program on first use, like run.py; takes a few minutes.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)

AGING_OK = """| standby policy | fresh [ns] | aged [ns] | ddelay [%] |
|---|---|---|---|
| all nodes stressed (worst) | 394.2 | 413 | 4.757 |
| inputs held all-0 | 394.2 | 412 | 4.524 |
| all nodes relaxed (best) | 394.2 | 409 | 3.75 |
"""


def bench(workload, trace, seed=2):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=600)
    return p.returncode, json.loads(p.stdout.strip().splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_emitted_names_equal_benchmark_json(self):
        e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
        layers = {m["name"] for m in BENCHMARK["per_layer"]}
        self.assertEqual(layers, set(run.PER_LAYER))
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         list(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for trace, want in ((0, e2e), (1, layers)):
                with self.subTest(workload=workload, trace=trace):
                    rc, res = bench(workload, trace)
                    self.assertEqual(rc, 0)
                    self.assertEqual(set(res["metrics"]), want)
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)


class CorruptedOutput(unittest.TestCase):
    def setUp(self):
        run.build()
        run.fresh_dir(run.WORK)

    def test_checks_reject_corrupted_tables(self):
        self.assertEqual(checks.check_aging(AGING_OK), [])
        self.assertTrue(checks.check_aging(AGING_OK.replace("| 413 |",
                                                            "| 390 |")))
        self.assertTrue(checks.check_aging(AGING_OK.replace("4.524", "5.9")))
        self.assertTrue(checks.check_aging(AGING_OK.replace("3.75", "nan")))

    def test_corrupted_cli_output_counts_as_failed(self):
        real = run.run_child

        def corrupt(argv, tag):
            c = real(argv, tag)
            if "aging" in argv:
                c.out = c.out.replace("all nodes relaxed", "all nodes stressed")
            return c

        run.run_child = corrupt
        try:
            ops, metrics, _ = run.signoff(2, 0, False)
        finally:
            run.run_child = real
        self.assertGreaterEqual(ops.failed, 1)
        self.assertLess(metrics["success_rate"][0], 1.0)

    def test_corrupted_query_reply_counts_as_failed(self):
        real = run.Server.ask

        def corrupt(self, line):
            reply = real(self, line)
            return reply.replace('"matched":', '"matched":1') if (
                '"where"' in line) else reply

        run.Server.ask = corrupt
        try:
            ops, _, _ = run.campaign_grid(2, 0, False)
        finally:
            run.Server.ask = real
        self.assertGreaterEqual(ops.failed, inputs.QUERY_POOL)


class Seeds(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for make in (inputs.signoff_circuit_spec,
                     lambda s: inputs.campaign_spec(s, "d", 4),
                     inputs.store_rows):
            self.assertEqual(make(3), make(3))
            self.assertNotEqual(make(3), make(4))
        rows = inputs.store_rows(3)
        self.assertEqual(inputs.query_pool(3, rows),
                         inputs.query_pool(3, rows))
        self.assertNotEqual(inputs.query_pool(3, rows),
                            inputs.query_pool(4, rows))

    def test_same_seed_same_digest(self):
        run.build()
        digests = []
        for seed in (3, 3, 4):
            run.fresh_dir(run.WORK)
            ops, _, dig = run.campaign_grid(seed, 0, False)
            self.assertEqual(ops.failed, 0)
            digests.append(dig)
        self.assertEqual(digests[0], digests[1])
        self.assertNotEqual(digests[0], digests[2])


if __name__ == "__main__":
    unittest.main(verbosity=2)
