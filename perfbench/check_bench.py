"""The benchmark's own tests (tiny sizes, about a minute).

    python3 perfbench/check_bench.py

Kept out of the repository's pytest collection on purpose (the file
name does not match ``test_*.py``): they run the benchmark itself.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402

WORKLOADS = ("regress_monitored", "regress_plain", "regress_sharded", "close_pci")


def setUpModule() -> None:
    global WORK_DIR
    WORK_DIR = run.ROOT / ".perfbench-work" / f"check-{os.getpid()}"
    run._prepare_environment(WORK_DIR)


def tearDownModule() -> None:
    shutil.rmtree(WORK_DIR, ignore_errors=True)


def tiny_run(name: str, trace: bool, workload=None) -> "run.RunResult":
    return run.run(name, 11, 0.05, trace, "tiny", WORK_DIR, workload=workload)


class BenchmarkSpecTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(
            set(spec),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), WORKLOADS)
        from workloads import WORKLOADS as defined

        self.assertEqual(tuple(defined), WORKLOADS)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER
        )
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for name in WORKLOADS:
            for trace, table in ((False, run.END_TO_END), (True, run.PER_LAYER)):
                with self.subTest(workload=name, trace=trace):
                    result = tiny_run(name, trace)
                    line = json.loads(json.dumps(result.line()))
                    self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(line["correct"], result.problems)
                    self.assertEqual(line["failed"], 0)
                    self.assertGreaterEqual(line["attempted"], 1)
                    self.assertEqual(
                        {k: v["unit"] for k, v in line["metrics"].items()}, table
                    )
                    for metric in ("setup_s", "sim_cycles_per_s", "scenario_ms.p50"):
                        self.assertGreater(result.metrics[metric], 0.0)


class PlantedFailureTest(unittest.TestCase):
    def test_a_failing_scenario_fails_the_run(self):
        from repro.scenarios.scoreboard import FaultPlan
        from workloads import SIZES, WORKLOADS as defined

        workload = defined["regress_plain"]()
        workload.setup(11, SIZES["tiny"])
        workload.specs[0] = dataclasses.replace(
            workload.specs[0], fault=FaultPlan("drop", unit=0, nth=1)
        )
        result = tiny_run("regress_plain", False, workload)
        self.assertFalse(result.correct)
        self.assertTrue(any("scenario failed" in p for p in result.problems), result.problems)
        self.assertGreater(result.failed / result.attempted, 0.0)
        self.assertFalse(result.line()["correct"])

    def test_a_sharded_digest_mismatch_fails_the_run(self):
        from workloads import SIZES, WORKLOADS as defined

        workload = defined["regress_sharded"]()
        workload.setup(11, SIZES["tiny"])
        workload.reference_digest = lambda: "0" * 16
        result = tiny_run("regress_sharded", False, workload)
        self.assertFalse(result.correct)
        self.assertTrue(any("digest" in p for p in result.problems), result.problems)
        self.assertGreater(result.failed / result.attempted, 0.0)


class HostSpeedTest(unittest.TestCase):
    def test_the_helper_answers_and_stops(self):
        with hostspeed.HostSpeed() as host:
            seconds = host.sample()
            helper = host._helper
        self.assertGreater(seconds, 0.0)
        self.assertEqual(host.samples, [seconds])
        self.assertIsNotNone(helper.poll())

    def test_a_host_slowdown_cancels_and_a_program_slowdown_shows(self):
        from workloads import PassResult

        def passes(wall: float, kernel_s: float):
            scale = hostspeed.ref_scale(kernel_s, kernel_s)
            return [
                PassResult(
                    wall, [wall / 8] * 4, 1000, 100, 4, 0, {},
                    segments=[wall / 2, wall / 2], ref_scales=[scale, scale],
                )
                for _ in range(3)
            ]

        probes = [{"wall_s": 0.5, "ref_s": 0.5}]
        # a host phase that doubles the kernel time slows the work 2 ** s
        slower = 2.0 ** hostspeed.HOST_SENSITIVITY
        base = run.end_to_end_metrics(passes(1.0, 0.04), probes, 1.0)
        slow_host = run.end_to_end_metrics(passes(slower, 0.08), probes, 1.0)
        slow_program = run.end_to_end_metrics(passes(2.0, 0.04), probes, 1.0)
        for name in ("sim_cycles_per_s", "checked_txn_per_s", "scenario_ms.p50"):
            self.assertAlmostEqual(slow_host[name], base[name])
        self.assertAlmostEqual(slow_program["sim_cycles_per_s"], base["sim_cycles_per_s"] / 2)
        self.assertAlmostEqual(slow_program["scenario_ms.p90"], base["scenario_ms.p90"] * 2)


class NoProgramTest(unittest.TestCase):
    def test_without_the_program_it_fails_and_prints_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench")
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "regress_plain",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


class CompareTest(unittest.TestCase):
    def test_a_planted_slowdown_is_reported_worse(self):
        def write(directory: Path, scale: float) -> None:
            directory.mkdir()
            lines = [
                json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
                    "sim_cycles_per_s": {"value": 1000.0 * scale + i, "unit": "1/ref_s"},
                    "psl.step_s": {"value": 1.0 / scale + i / 1000, "unit": "s"},
                }})
                for i in range(5)
            ]
            (directory / "regress_plain.jsonl").write_text("\n".join(lines))

        with tempfile.TemporaryDirectory() as tmp:
            write(Path(tmp) / "parent", 1.0)
            write(Path(tmp) / "change", 0.5)
            text = compare.render(Path(tmp) / "parent", Path(tmp) / "change")
        self.assertIn("== regress_plain", text)
        self.assertIn("WORSE", text)
        self.assertIn("self-time delta +1.0", text)


if __name__ == "__main__":
    unittest.main(verbosity=2)
