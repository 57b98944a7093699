#!/usr/bin/env python3
"""Unit tests for the bench_compare.py perf-regression gate.

Exercises the google-benchmark schema with synthetic inputs: identical runs
must pass, a 20%-slower run must fail at the default 15% tolerance (the
contract CI relies on), and --update must refresh the baseline in place.
"""

import copy
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402


GBENCH = {
    "context": {"executable": "micro_ml_kernels"},
    "benchmarks": [
        {"name": "BM_FlatForestPredictRF/flat:0", "run_type": "iteration",
         "real_time": 14000000.0, "cpu_time": 13900000.0},
        {"name": "BM_FlatForestPredictRF/flat:1", "run_type": "iteration",
         "real_time": 7000000.0, "cpu_time": 6900000.0},
        {"name": "BM_FlatForestPredictRF/flat:1_mean", "run_type": "aggregate",
         "real_time": 7100000.0},
    ],
}

class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def run_main(self, baseline, current, *extra):
        return bench_compare.main(
            ["--baseline", baseline, "--current", current, *extra])

    def test_identical_gbench_passes(self):
        base = self.write("base.json", GBENCH)
        cur = self.write("cur.json", GBENCH)
        self.assertEqual(self.run_main(base, cur), 0)

    def test_twenty_percent_slower_fails_default_tolerance(self):
        base = self.write("base.json", GBENCH)
        slower = copy.deepcopy(GBENCH)
        for entry in slower["benchmarks"]:
            entry["real_time"] *= 1.20
        cur = self.write("cur.json", slower)
        self.assertEqual(self.run_main(base, cur), 1)

    def test_twenty_percent_slower_passes_loose_tolerance(self):
        base = self.write("base.json", GBENCH)
        slower = copy.deepcopy(GBENCH)
        for entry in slower["benchmarks"]:
            entry["real_time"] *= 1.20
        cur = self.write("cur.json", slower)
        self.assertEqual(self.run_main(base, cur, "--tolerance", "0.5"), 0)

    def test_faster_run_passes(self):
        base = self.write("base.json", GBENCH)
        faster = copy.deepcopy(GBENCH)
        for entry in faster["benchmarks"]:
            entry["real_time"] *= 0.5
        cur = self.write("cur.json", faster)
        self.assertEqual(self.run_main(base, cur), 0)

    def test_aggregate_rows_are_ignored(self):
        base = self.write("base.json", GBENCH)
        doc = copy.deepcopy(GBENCH)
        doc["benchmarks"][2]["real_time"] *= 10  # aggregate: must not gate
        cur = self.write("cur.json", doc)
        self.assertEqual(self.run_main(base, cur), 0)

    def test_missing_benchmark_is_skipped_not_failed(self):
        base = self.write("base.json", GBENCH)
        subset = copy.deepcopy(GBENCH)
        subset["benchmarks"] = subset["benchmarks"][:1]
        cur = self.write("cur.json", subset)
        self.assertEqual(self.run_main(base, cur), 0)

    def test_update_overwrites_baseline(self):
        base = self.write("base.json", GBENCH)
        faster = copy.deepcopy(GBENCH)
        for entry in faster["benchmarks"]:
            entry["real_time"] *= 0.5
        cur = self.write("cur.json", faster)
        self.assertEqual(self.run_main(base, cur, "--update"), 0)
        with open(base, encoding="utf-8") as fh:
            self.assertEqual(json.load(fh), faster)

    def test_update_preserves_benchmarks_missing_from_partial_run(self):
        # A filtered re-run covering one benchmark must not drop the other
        # committed entries from the baseline.
        base = self.write("base.json", GBENCH)
        partial = copy.deepcopy(GBENCH)
        partial["benchmarks"] = [dict(partial["benchmarks"][0],
                                      real_time=10000000.0)]
        cur = self.write("cur.json", partial)
        self.assertEqual(self.run_main(base, cur, "--update"), 0)
        with open(base, encoding="utf-8") as fh:
            merged = json.load(fh)
        by_name = {e["name"]: e for e in merged["benchmarks"]
                   if e.get("run_type", "iteration") == "iteration"}
        self.assertEqual(
            by_name["BM_FlatForestPredictRF/flat:0"]["real_time"], 10000000.0)
        self.assertEqual(  # carried over from the old baseline
            by_name["BM_FlatForestPredictRF/flat:1"]["real_time"], 7000000.0)

    def test_update_without_existing_baseline_takes_current(self):
        cur = self.write("cur.json", GBENCH)
        base = os.path.join(self.dir.name, "new_base.json")
        self.assertEqual(self.run_main(base, cur, "--update"), 0)
        with open(base, encoding="utf-8") as fh:
            self.assertEqual(json.load(fh), GBENCH)

    def test_unreadable_input_is_a_usage_error(self):
        base = self.write("base.json", GBENCH)
        with self.assertRaises(SystemExit):
            self.run_main(base, os.path.join(self.dir.name, "missing.json"))

    def test_unrecognized_schema_is_rejected(self):
        base = self.write("base.json", {"something": "else"})
        cur = self.write("cur.json", GBENCH)
        with self.assertRaises(SystemExit):
            self.run_main(base, cur)


if __name__ == "__main__":
    unittest.main()
