#!/usr/bin/env python3
"""Tests of tools/check_bench.py over fixture documents.

    python3 tools/test_check_bench.py

Each test writes a gates file, committed BENCH files and run documents into
a temporary directory and runs the checker on them as a subprocess.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "check_bench.py")

GATES = {"schema": "peppher-gates v1", "gates": [
    {"bench": "demo", "metric": "ratio", "labels": {"case": "a"}, "min": 1.15},
    {"bench": "demo", "metric": "wall_ms", "drift": 0.5},
]}


def record(metric, value, clock="virtual", unit="x", **labels):
    return {"metric": metric, "labels": labels, "value": value, "unit": unit,
            "clock": clock}


def document(records, smoke=False, host_id=None, bench="demo"):
    doc = {"schema": "peppher-bench v1", "bench": bench, "smoke": smoke,
           "records": records}
    if host_id is not None:
        doc["host"] = {"host_id": host_id}
    return doc


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = self.tmp.name
        self.baselines = os.path.join(self.dir, "committed")
        self.run_dir = os.path.join(self.dir, "run")
        os.makedirs(self.baselines)
        os.makedirs(self.run_dir)
        self.write(os.path.join(self.dir, "gates.json"), GATES)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, path, content):
        with open(path, "w", encoding="utf-8") as f:
            if isinstance(content, str):
                f.write(content)
            else:
                json.dump(content, f)
        return path

    def commit(self, doc):
        self.write(os.path.join(self.baselines, f"BENCH_{doc['bench']}.json"), doc)

    def check(self, *docs):
        paths = [self.write(os.path.join(self.run_dir, f"BENCH_{d.get('bench', 'demo')}.json"), d)
                 for d in docs]
        proc = subprocess.run(
            [sys.executable, CHECKER, "--gates", os.path.join(self.dir, "gates.json"),
             "--baselines", self.baselines, "--build-dir", self.dir, *paths],
            capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout + proc.stderr

    def test_passing_document_is_stamped_with_host_context(self):
        code, out = self.check(document([record("ratio", 1.2, case="a")]))
        self.assertEqual(code, 0, out)
        self.assertIn("ok   gate demo ratio{case=a} min 1.15", out)
        with open(os.path.join(self.run_dir, "BENCH_demo.json"), encoding="utf-8") as f:
            stamped = json.load(f)
        self.assertRegex(stamped["host"]["host_id"], r"^[0-9a-f]{12}$")

    def test_record_below_a_floor_fails_naming_the_gate(self):
        code, out = self.check(document([record("ratio", 1.1, case="a")]))
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL gate demo ratio{case=a} min 1.15: ratio{case=a} = 1.1", out)

    def test_gate_that_matches_no_record_fails(self):
        code, out = self.check(document([record("ratio", 1.2, case="b")]))
        self.assertEqual(code, 1, out)
        self.assertIn("matched no record", out)

    def test_gates_do_not_bind_on_smoke_runs(self):
        code, out = self.check(document([record("ratio", 0.5, case="a")], smoke=True))
        self.assertEqual(code, 0, out)

    def test_record_without_unit_is_malformed(self):
        bad = record("ratio", 1.2, case="a")
        del bad["unit"]
        code, out = self.check(document([record("other", 1.0), bad]))
        self.assertEqual(code, 2, out)
        self.assertIn("BENCH_demo.json: record 1 (ratio{case=a}): missing 'unit'", out)

    def test_wall_record_from_another_host_is_not_compared(self):
        self.commit(document([record("ratio", 1.2, case="a"),
                              record("wall_ms", 10.0, clock="wall", unit="ms")],
                             host_id="000000000000"))
        code, out = self.check(document([record("ratio", 1.2, case="a"),
                                         record("wall_ms", 99.0, clock="wall", unit="ms")]))
        self.assertEqual(code, 0, out)
        self.assertIn("1 wall record(s) not compared", out)
        self.assertNotIn("wall_ms = 99", out)

    def test_wall_record_from_the_same_host_is_compared_and_drifts(self):
        self.check(document([record("ratio", 1.2, case="a")]))
        with open(os.path.join(self.run_dir, "BENCH_demo.json"), encoding="utf-8") as f:
            host_id = json.load(f)["host"]["host_id"]
        self.commit(document([record("ratio", 1.2, case="a"),
                              record("wall_ms", 10.0, clock="wall", unit="ms")],
                             host_id=host_id))
        code, out = self.check(document([record("ratio", 1.2, case="a"),
                                         record("wall_ms", 99.0, clock="wall", unit="ms")]))
        self.assertEqual(code, 0, out)
        self.assertIn("differs: wall_ms = 99 (committed 10)  <-- drift above 0.5", out)

    def test_google_benchmark_output_is_converted(self):
        gbench = {
            "context": {"executable": "build/bench/bench_task_overhead", "smoke": "true"},
            "benchmarks": [{"name": "BM_Sync", "run_type": "iteration", "real_time": 3.5,
                            "cpu_time": 3.0, "time_unit": "us",
                            "items_per_second": 1.0e6}],
        }
        path = self.write(os.path.join(self.run_dir, "BENCH_task_overhead.json"), gbench)
        proc = subprocess.run(
            [sys.executable, CHECKER, "--gates", os.path.join(self.dir, "gates.json"),
             "--baselines", self.baselines, "--build-dir", self.dir, path],
            capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        self.assertEqual(doc["schema"], "peppher-bench v1")
        self.assertEqual(doc["bench"], "task_overhead")
        self.assertTrue(doc["smoke"])
        self.assertIn({"metric": "real_time", "labels": {"benchmark": "BM_Sync"},
                       "value": 3.5, "unit": "us", "clock": "wall"}, doc["records"])
        self.assertIn({"metric": "items_per_second", "labels": {"benchmark": "BM_Sync"},
                       "value": 1.0e6, "unit": "items/s", "clock": "wall"}, doc["records"])

    def test_google_benchmark_repetitions_fold_into_median_and_spread(self):
        reps = [{"name": "BM_Chain/256", "run_name": "BM_Chain/256", "run_type": "iteration",
                 "repetitions": 5, "repetition_index": i, "real_time": t,
                 "cpu_time": t / 2, "time_unit": "us", "items_per_second": 256e6 / t}
                for i, t in enumerate([5.0, 1.0, 3.0, 4.0, 2.0])]
        mean = dict(reps[0], name="BM_Chain/256_mean", run_type="aggregate",
                    aggregate_name="mean", real_time=3.0)
        gbench = {"context": {"executable": "build/bench/bench_task_overhead"},
                  "benchmarks": reps + [mean]}
        path = self.write(os.path.join(self.run_dir, "BENCH_task_overhead.json"), gbench)
        proc = subprocess.run(
            [sys.executable, CHECKER, "--gates", os.path.join(self.dir, "gates.json"),
             "--baselines", self.baselines, "--build-dir", self.dir, path],
            capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        values = {r["metric"]: r["value"] for r in doc["records"]}
        self.assertEqual(values, {"real_time": 3.0, "cpu_time": 1.5, "real_time_min": 1.0,
                                  "real_time_max": 5.0, "items_per_second": 256e6 / 3.0})
        self.assertTrue(all(r["labels"] == {"benchmark": "BM_Chain/256"}
                            for r in doc["records"]))

    def test_experiments_tables_must_agree_with_the_committed_records(self):
        self.commit(document([record("ratio", 1.234, case="a"),
                              record("ratio", 1.5, case="b")], host_id="000000000000"))
        table = ("<!-- records: demo | case | -, ratio -->\n"
                 "| Case | Paper | Measured |\n"
                 "|---|---|---|\n"
                 "| a | 2 | {a} |\n"
                 "| **b** | 2 | {b} |\n")
        experiments = os.path.join(self.baselines, "EXPERIMENTS.md")
        self.write(experiments, table.format(a="1.23×", b="1.40–1.60×"))
        code, out = self.check()
        self.assertEqual(code, 0, out)
        self.assertIn("1 table(s) checked", out)

        self.write(experiments, table.format(a="1.24×", b="1.40–1.60×"))
        code, out = self.check()
        self.assertEqual(code, 1, out)
        self.assertIn("EXPERIMENTS.md:4: demo ratio{case=a} is 1.234, the table says 1.24", out)

        self.write(experiments, table.format(a="1.23×", b="1.6–1.7×"))
        code, out = self.check()
        self.assertEqual(code, 1, out)
        self.assertIn("the table says 1.6–1.7", out)


if __name__ == "__main__":
    unittest.main()
