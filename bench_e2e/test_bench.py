#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 bench_e2e/test_bench.py

Builds bench_e2e the way run.py does, then checks that the hit check
catches corrupted top-k lists and that a workload's inputs are a pure
function of its seed.
"""

import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_corrupted_hit_lists_are_caught(self):
        with tempfile.TemporaryDirectory(dir=run.BUILD) as work:
            proc = subprocess.run([str(run.BENCH), "selftest", "--dir", work],
                                  capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("selftest passed", proc.stdout)

    def test_inputs_are_a_function_of_the_seed(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                digests = []
                for seed in (1, 1, 2):
                    with tempfile.TemporaryDirectory(dir=run.BUILD) as work:
                        digests.append(run.generate(workload, seed,
                                                    Path(work))[1])
                self.assertEqual(digests[0], digests[1])
                self.assertNotEqual(digests[0], digests[2])


if __name__ == "__main__":
    unittest.main()
