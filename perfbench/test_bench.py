#!/usr/bin/env python3
"""Smoke test of the benchmark: a reduced run of every workload, with the
output check, at 1 and nproc threads; the traced run's metric set; the
fresh-process rule; and the refusal to run without the simulator sources.

    python3 perfbench/test_bench.py
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, *extra, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--reduced",
           *extra]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if res.returncode != 0:
        raise AssertionError(res.stderr[-2000:])
    return json.loads(res.stdout.strip().splitlines()[-1]), res.stderr


class Workloads(unittest.TestCase):
    def check_result(self, result, names):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), names)

    def test_every_workload_passes_at_1_and_nproc_threads(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for w in SPEC["workloads"]:
            for threads in (1, os.cpu_count() or 1):
                with self.subTest(workload=w["name"], threads=threads):
                    result, _ = bench(w["name"], "--threads", str(threads))
                    self.check_result(result, names)
                    for m in result["metrics"].values():
                        self.assertGreater(m["value"], 0)

    def test_every_sample_is_a_fresh_process(self):
        _, log = bench("fleet_replay")
        pids = [line.split("pid=")[1].split()[0] for line in log.splitlines()
                if line.startswith("sample ")]
        self.assertGreaterEqual(len(pids), len(run.REDUCED_POOL))
        self.assertEqual(len(pids), len(set(pids)))

    def test_traced_run_reports_every_layer(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result, _ = bench(w["name"], trace=1)
                self.check_result(result, names)
                metrics = result["metrics"]
                for layer in run.ACTIVE_LAYERS[w["name"]]:
                    self.assertGreater(metrics[layer + ".calls"]["value"], 0)


class Checks(unittest.TestCase):
    SAMPLE = {"errors": [], "failed": 0, "memo_warm_at_start": 0, "pid": 7,
              "seed": 1, "check": {"commits": 10, "sync_traffic": 999}}

    def test_matching_sample_passes(self):
        self.assertEqual(run.sample_problems(self.SAMPLE, self.SAMPLE["check"], set()), [])

    def test_changed_output_warm_start_and_reused_process_fail(self):
        changed = dict(self.SAMPLE, check={"commits": 11, "sync_traffic": 999})
        self.assertTrue(run.sample_problems(changed, self.SAMPLE["check"], set()))
        warm = dict(self.SAMPLE, memo_warm_at_start=5)
        self.assertTrue(run.sample_problems(warm, self.SAMPLE["check"], set()))
        self.assertTrue(run.sample_problems(self.SAMPLE, self.SAMPLE["check"], {7}))
        self.assertTrue(run.sample_problems(self.SAMPLE, None, set()))

    def test_failed_sample_counts_all_its_operations(self):
        state = run.RunState("fleet_replay", reduced=True)
        state.golden = {"1": self.SAMPLE["check"]}
        self.assertTrue(state.admit(dict(self.SAMPLE, attempted=40)))
        bad = dict(self.SAMPLE, pid=8, attempted=40, check={"commits": 0})
        self.assertFalse(state.admit(bad))
        self.assertEqual((state.attempted, state.failed), (80, 40))

    def test_seed_orders_the_input_pool(self):
        self.assertEqual(run.input_seeds(5, False), run.input_seeds(5, False))
        self.assertNotEqual(run.input_seeds(5, False), run.input_seeds(6, False))
        self.assertEqual(sorted(run.input_seeds(5, False)), list(run.POOL))


class Refusal(unittest.TestCase):
    def test_fails_without_the_simulator_sources(self):
        scratch = tempfile.mkdtemp(dir=run.build_dir() if os.path.isdir(run.build_dir())
                                   else None)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(scratch, ".bench_build"))
            res = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fleet_replay",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=scratch, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(res.returncode, 0)
            self.assertNotIn('"correct"', res.stdout)
        finally:
            shutil.rmtree(scratch)


if __name__ == "__main__":
    unittest.main()
