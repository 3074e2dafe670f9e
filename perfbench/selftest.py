"""Smoke-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that every workload prints exactly the metrics BENCHMARK.json
names, each with its unit; that same-seed runs give the same table
digests; that a wrong output, a changed table, an exception and a
nonzero exit code each count as a failed operation; and that the
benchmark refuses to run in a directory without the package.  Runs
take a few seconds each at smoke sizes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from probe import import_package  # noqa: E402
from worker import Runner  # noqa: E402
from workloads import WORKLOADS, large_d  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(workload, seed, trace, cwd=ROOT, root=ROOT):
    """One smoke-size run; returns (exit code, report, result or None)."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
           "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return proc.returncode, None, None
    return proc.returncode, json.loads(lines[-2])["report"], json.loads(lines[-1])


class MetricsContract(unittest.TestCase):

    def test_every_metric_with_its_unit(self):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[group]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, _, result = run_bench(workload, 3, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), RESULT_KEYS)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for value in result["metrics"].values():
                        self.assertIsInstance(value["value"], (int, float))

    def test_workloads_match_spec(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))

    def test_same_seed_same_table_bytes(self):
        _, first, _ = run_bench("sweep-grid", 11, 0)
        _, second, _ = run_bench("sweep-grid", 11, 0)
        self.assertTrue(first["table_sha256"])
        self.assertEqual(first["table_sha256"], second["table_sha256"])


class FailuresCount(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.cw = import_package()
        cls.ops = large_d(cls.cw, np.random.default_rng(5), smoke=True)

    def _op(self, prefix):
        return next(op for op in self.ops if op.name.startswith(prefix))

    def _failed(self, op, rounds=2):
        runner = Runner([op])
        for _ in range(rounds):
            runner.round()
        return runner.failed

    def test_good_ops_pass(self):
        runner = Runner(self.ops)
        runner.round()
        runner.round()
        self.assertEqual(runner.failed, 0, runner.failures)

    def test_perturbed_distribution_fails(self):
        op = self._op("closed_form")

        def perturbed():
            probs = op.run().probs.copy()
            probs[0] += 1e-6
            probs[1] -= 1e-6
            return SimpleNamespace(probs=probs)
        self.assertEqual(self._failed(dataclasses.replace(op, run=perturbed)), 2)

    def test_changed_table_bytes_fail(self):
        op = self._op("limiting")
        calls = []

        def drifting():
            code, text = op.run()
            calls.append(1)
            return code, text + "# run=%d\n" % len(calls)
        self.assertEqual(self._failed(dataclasses.replace(op, run=drifting)), 1)

    def test_exception_and_exit_code_fail(self):
        op = self._op("evolve")

        def boom():
            raise RuntimeError("injected")
        self.assertEqual(self._failed(dataclasses.replace(op, run=boom)), 2)
        self.assertEqual(
            self._failed(dataclasses.replace(op, run=lambda: (1, ""))), 2)


class BareDirectory(unittest.TestCase):

    def test_refuses_without_package(self):
        bare = ROOT / ".perfbench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            code, report, _ = run_bench("short-walks", 1, 0, cwd=bare,
                                        root=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(report)


if __name__ == "__main__":
    unittest.main()
