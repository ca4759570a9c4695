"""Tests of the benchmark's own arithmetic and gate.

Run from the root of a checkout:

    python3 -m unittest discover -s bench/tests
"""

import os
import random
import sys
import unittest
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import spans  # noqa: E402


def _trace(names, span_list, **counters):
    base = {
        "fixedpoints.candidates": 0,
        "fixedpoints.kept": 0,
        "fixedpoints.chains": 0,
        "exact.max_factor_bits": 0,
        "contributions.distinct_args": 0,
    }
    base.update(counters)
    return names, span_list, base


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
        span_list = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1), (1, 5.0, 9.0, 0)]
        self.assertEqual(spans.self_times(span_list), [3.0, 2.0, 1.0, 4.0])

    def test_layers_and_other_add_up_to_wall(self):
        names = ["localize.multiple_cover_invariant", "fixedpoints.enumerate_chains",
                 "contributions.node_smoothing"]
        span_list = [(0, 1.0, 9.0, -1), (1, 2.0, 5.0, 0), (2, 6.0, 6.5, 0), (2, 7.0, 7.5, 0)]
        trace = _trace(names, span_list, **{
            "fixedpoints.candidates": 8, "fixedpoints.kept": 6,
            "contributions.distinct_args": 1,
        })
        report = spans.layer_report([trace], wall_s=10.0)
        self.assertAlmostEqual(report["localize.busy_s"], 4.0)
        self.assertAlmostEqual(report["fixedpoints.busy_s"], 3.0)
        self.assertAlmostEqual(report["contributions.busy_s"], 1.0)
        self.assertAlmostEqual(report["other.busy_s"], 2.0)
        busy = sum(v for k, v in report.items() if k.endswith(".busy_s"))
        self.assertAlmostEqual(busy, report["trace.wall_s"])
        self.assertEqual(report["contributions.calls"], 2)
        self.assertEqual(report["contributions.reuse_x"], 2.0)
        self.assertEqual(report["fixedpoints.kept_ratio"], 0.75)

    def test_ratios_merge_counts_across_processes(self):
        one = _trace(["exact.factorize"], [(0, 0.0, 1.0, -1)], **{
            "fixedpoints.candidates": 10, "fixedpoints.kept": 9, "exact.max_factor_bits": 40})
        two = _trace(["exact.factorize"], [(0, 0.0, 2.0, -1)], **{
            "fixedpoints.candidates": 30, "fixedpoints.kept": 21, "exact.max_factor_bits": 12})
        report = spans.layer_report([one, two], wall_s=4.0)
        self.assertEqual(report["fixedpoints.kept_ratio"], 0.75)
        self.assertEqual(report["exact.max_factor_bits"], 40)
        self.assertEqual(report["exact.factorize_calls"], 2)
        self.assertAlmostEqual(report["exact.factorize_busy_s"], 3.0)
        self.assertAlmostEqual(report["other.busy_s"], 1.0)


class AggregationTest(unittest.TestCase):
    def test_op_means_and_wall(self):
        passes = [run.Pass(ops={"a": 1.0, "b": 4.0}), run.Pass(ops={"a": 3.0, "b": 6.0})]
        self.assertEqual(run.op_means(passes), {"a": 2.0, "b": 5.0})

    def test_iqm_drops_the_outer_quarters(self):
        self.assertEqual(run.iqm([9.0, 1.0, 2.0, 3.0]), 2.5)
        self.assertEqual(run.iqm([4.0, 2.0]), 3.0)

    def test_growth_is_the_mean_ratio_within_one_pass(self):
        ops = {"d=2": 0.1, "d=8": 1.0, "d=9": 2.0, "d=10": 8.0}
        self.assertEqual(run.growth_x(ops), 3.0)
        # a pass that runs twice as slow throughout has the same growth
        self.assertEqual(run.growth_x({k: 2 * v for k, v in ops.items()}), 3.0)

    def test_end_to_end_has_every_metric(self):
        passes = [run.Pass(ops={"d=8": 1.0, "d=9": 3.0}, rss_mb=20.0),
                  run.Pass(ops={"d=8": 2.0, "d=9": 5.0}, rss_mb=22.0)]
        set_up = run.Pass(ops={"setup 1": 0.3, "setup 2": 0.1, "setup 3": 0.2})
        metrics = run.end_to_end(passes, set_up)
        self.assertEqual(set(metrics), set(run.END_TO_END_UNITS))
        self.assertEqual(metrics["setup_s"], 0.2)
        self.assertEqual(metrics["wall_s"], 5.5)
        self.assertEqual(metrics["peak_rss_mb"], 21.0)


class InputTest(unittest.TestCase):
    def test_random_rationals_carry_their_canonical_text(self):
        rng = random.Random(7)
        for _ in range(500):
            value, text = run.random_rational(rng)
            self.assertEqual(run.factored_value(text), value)
            self.assertLess(abs(value.numerator), 1 << 256)
            self.assertLess(value.denominator, 1 << 256)

    def test_random_rationals_are_drawn_as_in_criterion_7(self):
        paths = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
        sys.path[:0] = paths
        try:
            from test_acceptance import _random_tractable_rational
        finally:
            del sys.path[:len(paths)]
        ours, theirs = random.Random(11), random.Random(11)
        for _ in range(500):
            self.assertEqual(run.random_rational(ours)[0], _random_tractable_rational(theirs))

    def test_inputs_follow_the_seed(self):
        expected = run.load_expected(ROOT)
        self.assertEqual(run.factor_inputs(3, expected), run.factor_inputs(3, expected))
        self.assertNotEqual(run.factor_inputs(3, expected), run.factor_inputs(4, expected))

    def test_expected_values(self):
        expected = run.load_expected(ROOT)
        self.assertEqual(sorted(expected), list(range(2, 14)))
        self.assertEqual(expected[2], (Fraction(-1, 200), "-1/(2^3*5^2)"))


class GateTest(unittest.TestCase):
    def setUp(self):
        self.expected = run.load_expected(ROOT)

    def _proc(self, out, code=0, err=""):
        return run.Proc(code, out.encode(), err, 0.1, 10.0)

    def test_cli_outputs_pass(self):
        self.assertIsNone(run._check_cli("compute 2", self._proc("-1/200\n"), self.expected))
        text = self.expected[10][1] + "\n"
        self.assertIsNone(run._check_cli("compute 10 --factored", self._proc(text), self.expected))
        usage = self._proc("", 2, "degree must be at least 2 and at most 12\n")
        self.assertIsNone(run._check_cli("compute 1", usage, self.expected))

    def test_cli_gate_rejects_wrong_output(self):
        self.assertIsNotNone(run._check_cli("compute 2", self._proc("-1/201\n"), self.expected))
        self.assertIsNotNone(run._check_cli("verify", self._proc("d=2 FAIL\n", 1), self.expected))
        self.assertIsNotNone(run._check_cli("compute 1", self._proc("", 0), self.expected))

    def test_self_check_corrupts_what_every_workload_checks(self):
        run.corrupt(self.expected)
        self.assertIsNotNone(run._check_cli("compute 2", self._proc("-1/200\n"), self.expected))

    def test_self_check_run_reports_a_failure(self):
        report = run.run("compute", seed=1, seconds=0.0, trace=False, self_check=True, root=ROOT)
        result = report["result"]
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["attempted"], 1 + run.SETUPS_PER_PASS + len(run.COMPUTE_DEGREES))
        self.assertIn("compute d=2", report["failures"][0])

    def test_set_up_failure_is_reported_not_raised(self):
        ctx = run.Context(ROOT, self.expected, [], "")
        real_spawn = run.spawn
        run.spawn = lambda root, make_cmd, stdin=b"": run.Proc(1, b"", "boom", 0.1, 10.0)
        set_up = run.Pass()
        try:
            run.setup(ctx, set_up, 5)
        finally:
            run.spawn = real_spawn
        self.assertEqual((set_up.attempted, set_up.failed), (1, 1))
        self.assertIn("boom", set_up.failures[0])


class TraceCheckTest(unittest.TestCase):
    def _pass(self, span_end, wall_s):
        trace = _trace(["localize.multiple_cover_invariant"], [(0, 0.0, span_end, -1)])
        return run.Pass(attempted=1, layers=spans.layer_report([trace], wall_s))

    def test_spans_inside_the_wall_time_pass(self):
        p = self._pass(span_end=1.5, wall_s=2.0)
        run.check_trace(p)
        self.assertEqual(p.failed, 0)

    def test_spans_longer_than_the_wall_time_fail(self):
        # a span of 3 s charged to a traced wall time of 2 s cannot fit
        p = self._pass(span_end=3.0, wall_s=2.0)
        run.check_trace(p)
        self.assertEqual(p.failed, 1)
        self.assertIn("exceed", p.failures[0])


if __name__ == "__main__":
    unittest.main()
