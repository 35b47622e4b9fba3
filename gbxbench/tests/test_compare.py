"""Tests of the A/B compare tool's rules (gbxbench/compare.py)."""
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import compare  # noqa: E402

PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


class GainRuleTest(unittest.TestCase):
    def test_ten_of_ten_wins_beyond_the_spread_is_a_gain(self):
        change = [v - 1.0 for v in PARENT]
        is_gain, wins, pairs = compare.gain(PARENT, change, "lower")
        self.assertTrue(is_gain)
        self.assertEqual((wins, pairs), (10, 10))

    def test_nine_of_ten_wins_is_enough(self):
        change = [v - 1.0 for v in PARENT]
        change[3] = PARENT[3] + 0.5
        is_gain, wins, _ = compare.gain(PARENT, change, "lower")
        self.assertEqual(wins, 9)
        self.assertTrue(is_gain)

    def test_eight_of_ten_wins_is_not(self):
        change = [v - 1.0 for v in PARENT]
        change[3] = PARENT[3] + 0.5
        change[7] = PARENT[7] + 0.5
        is_gain, wins, _ = compare.gain(PARENT, change, "lower")
        self.assertEqual(wins, 8)
        self.assertFalse(is_gain)

    def test_ties_count_for_neither_side(self):
        change = [v - 1.0 for v in PARENT]
        change[0] = PARENT[0]
        change[1] = PARENT[1]
        is_gain, wins, _ = compare.gain(PARENT, change, "lower")
        self.assertEqual(wins, 8)
        self.assertFalse(is_gain)

    def test_a_gap_inside_the_parent_spread_is_not_a_gain(self):
        # Every pair wins, but by less than the parent's quartile range.
        change = [v - 0.01 for v in PARENT]
        is_gain, wins, _ = compare.gain(PARENT, change, "lower")
        self.assertEqual(wins, 10)
        self.assertFalse(is_gain)

    def test_higher_is_better_metrics(self):
        change = [v + 1.0 for v in PARENT]
        self.assertTrue(compare.gain(PARENT, change, "higher")[0])
        self.assertFalse(compare.gain(PARENT, change, "lower")[0])


class VerdictTest(unittest.TestCase):
    def test_within_bound_is_ok(self):
        change = [v * 1.05 for v in PARENT]
        self.assertEqual(compare.verdict(PARENT, change, "lower", 0.1)[0], "ok")

    def test_beyond_bound_regresses(self):
        change = [v * 1.2 for v in PARENT]
        self.assertEqual(compare.verdict(PARENT, change, "lower", 0.1)[0],
                         "regressed")
        self.assertEqual(compare.verdict(PARENT, [v / 1.2 for v in PARENT],
                                         "higher", 0.1)[0], "regressed")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        change = [v * 1.3 for v in noisy]
        self.assertEqual(compare.verdict(noisy, change, "lower", 0.1)[0],
                         "unresolved")

    def test_noisy_but_every_change_run_better_is_ok(self):
        # The gap is inside the parent's wide quartile range, so no gain,
        # but no change run is worse than any parent run.
        noisy = [5.0, 5.1, 20.0, 20.0, 20.0, 21.0, 21.0, 40.0, 40.0, 40.0]
        change = [4.9] * 10
        self.assertFalse(compare.gain(noisy, change, "lower")[0])
        self.assertEqual(compare.verdict(noisy, change, "lower", 0.1)[0], "ok")


class CompareDirectoriesTest(unittest.TestCase):
    METRICS = [{"name": "p50_ms", "unit": "ms", "better": "lower",
                "bound": 0.1}]

    def write(self, directory, workload, seed, value, failed=0, correct=True):
        result = {"correct": correct, "attempted": 10, "failed": failed,
                  "metrics": {"p50_ms": {"value": value, "unit": "ms"}}}
        with open(os.path.join(directory, f"{workload}-seed{seed}.json"), "w") as f:
            f.write("progress line\n" + json.dumps(result) + "\n")

    def test_rows_per_workload_and_failed_operations_void_a_gain(self):
        metrics = [{"name": "p50_ms", "unit": "ms", "better": "lower",
                    "bound": 0.1}]
        with tempfile.TemporaryDirectory() as p, tempfile.TemporaryDirectory() as c:
            for seed, v in enumerate(PARENT, start=1):
                self.write(p, "serve-small", seed, v)
                self.write(c, "serve-small", seed, v - 1.0, failed=1)
                self.write(p, "gbabs-suite", seed, v)
                self.write(c, "gbabs-suite", seed, v * 1.5)
            rows, problems = compare.compare(compare.load_runs(p),
                                             compare.load_runs(c), metrics)
        verdicts = {(w, m): v for w, m, v, _ in rows}
        self.assertEqual(verdicts[("serve-small", "p50_ms")], "ok")
        self.assertEqual(verdicts[("gbabs-suite", "p50_ms")], "regressed")
        # More failed operations are a problem of their own, whatever the
        # metrics say.
        self.assertEqual(len(problems), 1)
        self.assertIn("serve-small: change failed 10 operations", problems[0])

    def test_more_failures_fail_the_comparison(self):
        with tempfile.TemporaryDirectory() as p, tempfile.TemporaryDirectory() as c:
            for seed, v in enumerate(PARENT, start=1):
                self.write(p, "serve-small", seed, v)
                self.write(c, "serve-small", seed, v, failed=1 if seed == 3 else 0)
            with open(os.devnull, "w") as null, redirect_stdout(null):
                status = compare.main([p, c, "--benchmark",
                                       self.benchmark_file(p)])
        self.assertEqual(status, 1)

    def test_a_metric_without_a_value_is_a_problem(self):
        with tempfile.TemporaryDirectory() as p, tempfile.TemporaryDirectory() as c:
            self.write(p, "serve-large", 1, 1.0)
            self.write(c, "serve-large", 1, None)
            rows, problems = compare.compare(compare.load_runs(p),
                                             compare.load_runs(c), self.METRICS)
        self.assertEqual(rows, [])
        self.assertEqual(problems,
                         ["serve-large: metric p50_ms has no value in some run"])

    def benchmark_file(self, directory):
        path = os.path.join(directory, "BENCHMARK.json")
        with open(path, "w") as f:
            json.dump({"end_to_end": self.METRICS}, f)
        return path

    def test_incorrect_runs_and_missing_pairs_are_problems(self):
        metrics = [{"name": "p50_ms", "unit": "ms", "better": "lower",
                    "bound": 0.1}]
        with tempfile.TemporaryDirectory() as p, tempfile.TemporaryDirectory() as c:
            self.write(p, "serve-small", 1, 1.0)
            self.write(c, "serve-small", 1, 1.0, correct=False)
            self.write(p, "serve-large", 1, 1.0)
            self.write(c, "serve-large", 2, 1.0)
            _, problems = compare.compare(compare.load_runs(p),
                                          compare.load_runs(c), metrics)
        self.assertEqual(len(problems), 2)


if __name__ == "__main__":
    unittest.main()
