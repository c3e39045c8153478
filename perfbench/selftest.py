"""Tiny self-test of the benchmark itself (about a minute on two cores).

    python3 perfbench/selftest.py

Checks that every workload prints each metric named in BENCHMARK.json
with its unit, that the tracer's shims reach every module namespace that
imported a wrapped function and are all removed afterwards, that the
recorded digests for the default seed hold and a corrupted one is
reported as a failure, and that the benchmark exits non-zero without a
result where the checkout holds no package.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402
from zeroreg import cli, harness, normality  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXPECTED = workloads.load_expected(Path(run.__file__).with_name("expected.json"))
ENV = dict(os.environ, PYTHONPATH=str(run.SRC))


@contextlib.contextmanager
def tiny_sizes():
    """One cycle per run, a small P^5 degree and two setup imports."""
    saved = workloads.MIN_CLI_CALLS, workloads.P5_MAX_DEGREE, workloads.SETUP_REPS
    workloads.MIN_CLI_CALLS, workloads.P5_MAX_DEGREE, workloads.SETUP_REPS = 1, 4, 2
    try:
        yield
    finally:
        workloads.MIN_CLI_CALLS, workloads.P5_MAX_DEGREE, workloads.SETUP_REPS = saved


def _holders(fn):
    return sorted((name, key) for name, mod in sys.modules.items()
                  if name == "zeroreg" or name.startswith("zeroreg.")
                  for key, value in vars(mod).items() if value is fn)


def _cli_workdir(name):
    path = run.WORK / ("selftest-%s-%d" % (name, os.getpid()))
    path.mkdir(parents=True, exist_ok=True)
    return path


class SelfTest(unittest.TestCase):

    def test_every_metric_is_printed_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in SPEC["workloads"]:
                out = io.StringIO()
                with tiny_sizes(), contextlib.redirect_stdout(out):
                    code = run.main(["--workload", workload["name"], "--seed", "1",
                                     "--seconds", "0", "--trace", str(trace)])
                self.assertEqual(code, 0)
                result = json.loads(out.getvalue().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], (workload["name"], trace))
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(got, want, (workload["name"], trace))

    def test_shims_reach_every_importer_and_are_removed(self):
        originals = [(owner, attr, getattr(owner, attr)) for _, owner, attr, _ in tracer.SHIMS]
        holders = {id(fn): _holders(fn) for owner, _, fn in originals}
        self.assertIn(("zeroreg.harness", "hilbert_function"),
                      holders[id(normality.hilbert_function)])
        self.assertIn(("zeroreg.cli", "hilbert_function_values"),
                      holders[id(normality.hilbert_function_values)])
        with tracer.Tracer() as t:
            for owner, attr, fn in originals:
                self.assertIsNot(getattr(owner, attr), fn, attr)
                self.assertEqual(_holders(fn), [], attr)
            harness.run_suite("hilbert_shape", 1, 0)
            self.assertEqual(t.stats["harness.run_suite"].calls, 1)
            self.assertGreater(t.stats["normality.hilbert_function"].calls, 0)
        for owner, attr, fn in originals:
            self.assertIs(getattr(owner, attr), fn, attr)
            self.assertEqual(_holders(fn), holders[id(fn)], attr)
        self.assertIs(harness.hilbert_function, normality.hilbert_function)
        self.assertIs(cli.hilbert_function_values, normality.hilbert_function_values)

    def test_recorded_digests_hold_and_a_corrupted_one_fails(self):
        seed = workloads.DEFAULT_SEED
        for workload in ("verify-hilbert", "verify-fp"):
            bad = copy.deepcopy(EXPECTED)
            bad["verify"][workload][0] = "0" * 16
            for expected, failing in ((EXPECTED, False), (bad, True)):
                _, _, attempted, failed, ok = workloads.run_verify(workload, seed, 0, 0, expected)
                self.assertTrue(ok)
                self.assertEqual(failed > 0, failing, workload)
                self.assertGreater(attempted, 0)
        bad = copy.deepcopy(EXPECTED)
        key = sorted(bad["cli"])[0]
        bad["cli"][key][1] = "0" * len(bad["cli"][key][1])
        workdir = _cli_workdir("cli")
        try:
            saved = workloads.MIN_CLI_CALLS
            workloads.MIN_CLI_CALLS = 1
            try:
                for expected, failing in ((EXPECTED, False), (bad, True)):
                    _, _, _, failed, _ = workloads.run_cli(seed, 0, 0, expected, str(workdir), ENV)
                    self.assertEqual(failed > 0, failing)
            finally:
                workloads.MIN_CLI_CALLS = saved
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def test_fails_without_the_package(self):
        bare = _cli_workdir("bare")
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(Path(run.__file__).parent, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
