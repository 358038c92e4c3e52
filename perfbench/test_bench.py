#!/usr/bin/env python3
"""The benchmark's own tests: a short run of each workload, traced and
untraced, checked against BENCHMARK.json and workloads.json; a run with
a wrong reference digest must fail; and a directory holding only the
benchmark must fail to run.

    python3 perfbench/test_bench.py

Run from the root of a checkout.  The first test builds the harness
(see run.py); the whole file then takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SHAPES = json.loads((HERE / "workloads.json").read_text())


def run_bench(workload, trace, seconds=1, seed=5):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


class WorkloadSmoke(unittest.TestCase):
    def check(self, workload, trace):
        proc, lines = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)

        table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        expected = {m["name"]: m["unit"] for m in table}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)
        if not trace:
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)
        else:
            self.assertEqual(result["metrics"]["failed_frac"]["value"], 0)

        context = next(json.loads(l)["context"] for l in lines
                       if l.startswith('{"context"'))
        self.assertEqual(context["shape"], SHAPES[workload]["shape"])
        for key in ("nproc", "build_type", "compiler"):
            self.assertIn(key, context)
        return result["metrics"]

    def test_workloads_match_benchmark_json(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(SHAPES))

    def test_year_oracle(self):
        self.check("year-oracle", 0)
        self.check("year-oracle", 1)

    def test_sweep_batched(self):
        self.check("sweep-batched", 0)
        traced = self.check("sweep-batched", 1)
        # Read from the library's batch.* counters: two shape groups of
        # 125 specs make 32 batches of 8 lanes, two of them 5-lane tails.
        self.assertEqual(traced["sim.batch.ragged_tail_lanes"]["value"], 10)
        self.assertAlmostEqual(traced["sim.batch.lane_fill"]["value"],
                               250 / (32 * 8))
        self.assertGreater(traced["runner.busy_frac"]["value"], 0)

    def test_serve_mixed(self):
        self.check("serve-mixed", 0)
        self.check("serve-mixed", 1)


class OutputChecks(unittest.TestCase):
    def test_wrong_digest_fails(self):
        run_bench("year-oracle", 0)  # make sure the harness is built
        binary = BUILD_ROOT / "perfbench-release" / "coolair_perfbench"
        good = (HERE / "reference" / "year_oracle.digests").read_text()
        bad_path = BUILD_ROOT / "test-bad.digests"
        bad_path.write_text("".join(
            line if line.startswith("#") else line[:-2] + "00\n"
            for line in good.splitlines(keepends=True)))
        work = BUILD_ROOT / "test-work"
        try:
            proc = subprocess.run(
                [str(binary), "--workload", "year-oracle", "--seed", "1",
                 "--seconds", "1", "--trace", "0", "--digests",
                 str(bad_path), "--work-dir", str(work)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
        finally:
            bad_path.unlink()
            shutil.rmtree(work, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(json.loads(proc.stdout.splitlines()[-1])["correct"])

    def test_benchmark_alone_fails(self):
        alone = BUILD_ROOT / "test-alone"
        shutil.rmtree(alone, ignore_errors=True)
        alone.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", alone)
            shutil.copytree(HERE, alone / "perfbench")
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "year-oracle", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=alone, env=env, capture_output=True, text=True,
                timeout=180)
        finally:
            shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
