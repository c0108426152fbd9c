"""Self-test of the benchmark's derivations.

Run: python3 perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])


class TailTest(unittest.TestCase):
    def test_exactly_ten_samples_beyond(self):
        values = [float(v) for v in range(1, 21)]  # 1..20, shuffled below
        values.reverse()
        value, percentile, n = stats.tail(values)
        self.assertEqual(value, 10.0)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertEqual(percentile, 50.0)
        self.assertEqual(n, 20)

    def test_hundred_samples_give_p90(self):
        value, percentile, n = stats.tail([float(v) for v in range(100)])
        self.assertEqual((value, percentile, n), (89.0, 90.0, 100))

    def test_smallest_sample_count(self):
        value, percentile, _ = stats.tail([float(v) for v in range(11)])
        self.assertEqual(value, 0.0)
        self.assertAlmostEqual(percentile, 100.0 / 11)

    def test_too_few_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail([1.0] * 10)

    def test_outlier_does_not_become_the_tail(self):
        values = [1.0] * 19 + [50.0]
        self.assertEqual(stats.tail(values)[0], 1.0)


class RatioTest(unittest.TestCase):
    def test_rate(self):
        self.assertEqual(stats.rate(20, 10.0), 2.0)
        with self.assertRaises(ValueError):
            stats.rate(1, 0.0)

    def test_ratio(self):
        self.assertEqual(stats.ratio(1, 4), 0.25)
        self.assertEqual(stats.ratio(0, 4), 0.0)
        with self.assertRaises(ValueError):
            stats.ratio(1, 0)

    def test_worsening_follows_the_direction(self):
        self.assertAlmostEqual(stats.worsening(2.0, 2.5, "lower"), 0.25)
        self.assertAlmostEqual(stats.worsening(2.0, 2.5, "higher"), -0.25)
        self.assertAlmostEqual(stats.worsening(2.0, 1.5, "higher"), 0.25)

    def test_spread_matches_quartiles(self):
        # quantiles([1..9], n=4) = [2.5, 5, 7.5]; (7.5 - 2.5) / 5 = 1.
        self.assertEqual(stats.spread([float(v) for v in range(1, 10)]), 1.0)
        self.assertEqual(stats.spread([2.0] * 5), 0.0)


class LayerMetricsTest(unittest.TestCase):
    def raw(self):
        stages = ("layout.region_prep", "density.wire_map", "density.bounds",
                  "fill.plan", "fill.candidates", "fill.replan",
                  "fill.sizing", "fill.output")
        raw = {"rounds": 3, "engine.threads": 4, "gds.read_mib": 9.0,
               "gds.write_mib": 17.0, "gds.read_s": [0.2, 0.1, 0.3],
               "gds.write_s": [0.5, 0.5, 0.5], "mcf.solves": 200,
               "mcf.warm_starts": 50, "service.jobs": 3,
               "service.cache_hits": 0, "engine.run_s": [1.0, 1.1, 0.9],
               "engine.eco_s": [0.4, 0.4, 0.4],
               "service.job_s": [0.5, 0.45, 0.55],
               "trace.traced_s": [1.5, 1.4, 1.6],
               "trace.untraced_s": [1.4, 1.4, 1.4]}
        for k, stage in enumerate(stages):
            raw[f"stage.{stage}.N"] = [0.1 * (k + 1)] * 3
            raw[f"stage.{stage}.1"] = [0.3 * (k + 1)] * 3
        raw["staged.N"] = [3.6] * 3  # 0.1 * (1 + ... + 8)
        raw["staged.1"] = [10.8] * 3
        return raw

    def test_walls_ratios_and_differences(self):
        m = stats.layer_metrics(self.raw())
        self.assertAlmostEqual(m["gds.read_s"], 0.2)
        self.assertAlmostEqual(m["gds.read_mib_per_s"], 45.0)
        self.assertAlmostEqual(m["gds.write_mib_per_s"], 34.0)
        self.assertAlmostEqual(m["density.bounds_s"], 0.3)
        self.assertAlmostEqual(m["density.bounds.speedup"], 3.0)
        self.assertAlmostEqual(m["fill.plan_s"], 0.4 + 0.6)
        self.assertAlmostEqual(m["engine.parallel_efficiency"], 0.75)
        self.assertAlmostEqual(m["engine.unaccounted_s"], 1.0 - 3.6)
        self.assertAlmostEqual(m["mcf.warm_start_ratio"], 0.25)
        self.assertAlmostEqual(m["service.overhead_s"], 0.1)
        self.assertEqual(m["service.cache_hit_ratio"], 0.0)
        self.assertAlmostEqual(m["trace.overhead_s"], 0.1)
        self.assertNotIn("stage.fill.plan.N", m)

    def test_zero_base_is_an_error(self):
        raw = self.raw()
        raw["mcf.solves"] = 0
        with self.assertRaises(ValueError):
            stats.layer_metrics(raw)


if __name__ == "__main__":
    unittest.main()
