#!/usr/bin/env python3
"""Unit tests for tools/perf_ab.py's summary arithmetic: quartiles, pair
wins with ties, the 9-of-10-plus-IQR claim rule in both directions, and
the report built from perfbench results."""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(REPO, "tools"))

import perf_ab  # noqa: E402


def result(correct=True, failed=0, attempted=5, **metrics):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}


SPEC = {"end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
                       {"name": "hits", "unit": "count", "better": "higher", "bound": 0.2}]}


class DescribeTest(unittest.TestCase):
    def test_one_value_is_its_own_quartiles(self):
        self.assertEqual(perf_ab.describe([2.5]), (2.5, 2.5, 2.5))

    def test_matches_perfbench_exclusive_quartiles(self):
        # statistics.quantiles' default (exclusive) method on 1..9.
        self.assertEqual(perf_ab.describe([9, 1, 8, 2, 7, 3, 6, 4, 5]), (2.5, 5, 7.5))

    def test_even_count_median_is_the_midpoint(self):
        self.assertEqual(perf_ab.describe([1, 2, 3, 4])[1], 2.5)


class PairWinsTest(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertEqual(perf_ab.pair_wins([3, 3, 3], [2, 4, 1], "lower"), (2, 1))

    def test_higher_is_better(self):
        self.assertEqual(perf_ab.pair_wins([3, 3, 3], [2, 4, 1], "higher"), (1, 2))

    def test_ties_count_for_neither_side(self):
        self.assertEqual(perf_ab.pair_wins([1, 2, 3], [1, 2, 3], "lower"), (0, 0))
        self.assertEqual(perf_ab.pair_wins([1, 2, 3], [1, 1, 3], "lower"), (1, 0))


class ClaimTest(unittest.TestCase):
    BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]

    def test_clear_gain_holds(self):
        change = [b - 0.2 for b in self.BASE]
        self.assertTrue(perf_ab.claim_holds(self.BASE, change, "lower"))

    def test_eight_of_ten_wins_is_not_enough(self):
        change = [b - 0.2 for b in self.BASE]
        change[0] = change[1] = 2.0
        self.assertEqual(perf_ab.pair_wins(self.BASE, change, "lower"), (8, 2))
        self.assertFalse(perf_ab.claim_holds(self.BASE, change, "lower"))

    def test_nine_of_ten_wins_is_enough(self):
        change = [b - 0.2 for b in self.BASE]
        change[0] = 2.0
        self.assertTrue(perf_ab.claim_holds(self.BASE, change, "lower"))

    def test_a_tie_is_not_a_win(self):
        change = [b - 0.2 for b in self.BASE]
        change[0] = self.BASE[0]
        change[1] = self.BASE[1]
        self.assertFalse(perf_ab.claim_holds(self.BASE, change, "lower"))

    def test_gap_within_the_base_iqr_does_not_hold(self):
        q1, _, q3 = perf_ab.describe(self.BASE)
        # Every pair won, but by less than the base's own spread.
        change = [b - (q3 - q1) / 4 for b in self.BASE]
        self.assertEqual(perf_ab.pair_wins(self.BASE, change, "lower")[0], 10)
        self.assertFalse(perf_ab.claim_holds(self.BASE, change, "lower"))

    def test_direction_follows_better(self):
        change = [b + 0.2 for b in self.BASE]
        self.assertTrue(perf_ab.claim_holds(self.BASE, change, "higher"))
        self.assertFalse(perf_ab.claim_holds(self.BASE, change, "lower"))

    def test_short_runs_need_every_pair_but_one_in_ten(self):
        # ceil(0.9 * 3) = 3: three pairs must all be won.
        self.assertFalse(perf_ab.claim_holds([1.0, 1.1, 0.9], [0.5, 0.5, 1.0], "lower"))
        self.assertTrue(perf_ab.claim_holds([1.0, 1.1, 0.9], [0.5, 0.5, 0.5], "lower"))


class ReportTest(unittest.TestCase):
    def test_parse_result_takes_the_last_line(self):
        out = "# workload=x\n# run_s [s]: value=1\n" + json.dumps(result(run_s=1.5)) + "\n\n"
        self.assertEqual(perf_ab.parse_result(out)["metrics"]["run_s"]["value"], 1.5)

    def test_parse_result_rejects_empty_output(self):
        with self.assertRaises(ValueError):
            perf_ab.parse_result("\n")

    def test_summary_lines(self):
        runs = {"base": [result(run_s=2.0, hits=5), result(run_s=2.0, hits=5, failed=1,
                                                           correct=False)],
                "change": [result(run_s=1.0, hits=5), result(run_s=3.0, hits=6)]}
        lines = perf_ab.summarize(SPEC, runs)
        self.assertIn("run_s [s] base  : median=2 q1=2 q3=2 n=2", lines)
        self.assertIn("run_s [s] change: median=2 q1=0.5 q3=3.5 n=2", lines)
        self.assertIn("run_s pairs: change better in 1, worse in 1, tied in 0 of 2; "
                      "base IQR=0 (lower is better)", lines)
        self.assertIn("hits pairs: change better in 1, worse in 0, tied in 1 of 2; "
                      "base IQR=0 (higher is better)", lines)
        self.assertIn("base: 1/10 attempts failed; 1/2 runs correct", lines)
        self.assertIn("change: 0/10 attempts failed; 2/2 runs correct", lines)


if __name__ == "__main__":
    unittest.main()
