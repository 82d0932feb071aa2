"""Tests of the benchmark's own helpers (perfbench/stats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402


def span(id, parent, start, end, name="x"):
    return {"id": id, "parent": parent, "start": start, "end": end, "name": name}


class TailTest(unittest.TestCase):
    def test_leaves_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        p, v = stats.tail(values)
        self.assertEqual((p, v), (90, 90))
        self.assertEqual(sum(x > v for x in values), 10)

    def test_highest_qualifying_percentile(self):
        # 57 samples: p82 has rank 47 and 10 beyond; p83 has rank 48 and 9
        values = list(range(57))
        p, v = stats.tail(values)
        self.assertEqual(p, 82)
        self.assertEqual(sum(x > v for x in values), 10)

    def test_too_few_samples(self):
        self.assertIsNone(stats.tail(list(range(10))))
        self.assertEqual(stats.tail(list(range(11)))[1], 0)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.tail([5, 1, 4] * 10), stats.tail(sorted([5, 1, 4] * 10)))


class MedianOfMediansTest(unittest.TestCase):
    def test_even_number_of_clusters(self):
        pairs = [("a", 1), ("a", 2), ("a", 3), ("b", 10), ("b", 20), ("b", 30)]
        self.assertEqual(stats.median_of_medians(pairs), 11)
        self.assertEqual(statistics.median([v for _, v in pairs]), 6.5)

    def test_one_sample_per_key_is_the_plain_median(self):
        pairs = [(k, v) for k, v in enumerate([5, 1, 4, 2, 3])]
        self.assertEqual(stats.median_of_medians(pairs), 3)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 90),
                 span(4, 3, 60, 70)]
        self.assertEqual(stats.self_times(spans), {1: 40, 2: 20, 3: 30, 4: 10})

    def test_self_times_add_up_to_the_root(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 5, 50), span(3, 2, 6, 7), span(4, 1, 50, 99)]
        self.assertEqual(sum(stats.self_times(spans).values()), 100)

    def test_overlapping_children_count_once(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 40, 80)]
        self.assertEqual(stats.self_times(spans)[1], 30)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 90, 130)]
        self.assertEqual(stats.self_times(spans)[1], 90)

    def test_layer_totals_exclude_roots(self):
        spans = [span(1, 0, 0, 100, "op"), span(2, 1, 0, 40, "parse"),
                 span(3, 0, 100, 150, "op"), span(4, 3, 100, 110, "parse")]
        self.assertEqual(stats.layer_self(spans), {"parse": 50})


class UnattributedTest(unittest.TestCase):
    def test_remainder_of_the_op_wall(self):
        self.assertAlmostEqual(stats.unattributed(1.0, {"parse": 0.25, "inject": 0.5}), 0.25)

    def test_remainder_is_not_clamped(self):
        self.assertAlmostEqual(stats.unattributed(1.0, {"inject": 1.5}), -0.5)

    def test_layers_plus_remainder_is_the_wall(self):
        layers = {"a": 0.125, "b": 0.5}
        self.assertAlmostEqual(sum(layers.values()) + stats.unattributed(2.0, layers), 2.0)

    def test_accounted_within_the_bound(self):
        self.assertTrue(stats.accounted(2.0, {"a": 1.0, "b": 0.75}, 0.25))
        self.assertTrue(stats.accounted(2.0, {"a": 2.5}, 0.25))

    def test_missing_layer_is_not_accounted(self):
        self.assertFalse(stats.accounted(2.0, {"a": 1.0}, 0.25))

    def test_too_much_layer_time_is_not_accounted(self):
        self.assertFalse(stats.accounted(2.0, {"a": 2.0, "b": 0.75}, 0.25))


class CompareTest(unittest.TestCase):
    metrics = [{"name": "latency", "unit": "ms", "better": "lower", "bound": 0.1},
               {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]

    def runs(self, latency, rate):
        return [{"latency": latency + d, "rate": rate + d} for d in (-1, 0, 1)]

    def test_within_bound(self):
        rows = stats.compare(self.runs(100, 100), self.runs(105, 95), self.metrics)
        self.assertTrue(all(r["within"] for r in rows))
        self.assertAlmostEqual(rows[0]["worse_by"], 0.05)
        self.assertAlmostEqual(rows[1]["worse_by"], 0.05)

    def test_worse_than_bound(self):
        rows = stats.compare(self.runs(100, 100), self.runs(120, 80), self.metrics)
        self.assertEqual([r["within"] for r in rows], [False, False])

    def test_better_is_within(self):
        rows = stats.compare(self.runs(100, 100), self.runs(50, 200), self.metrics)
        self.assertTrue(all(r["within"] for r in rows))
        self.assertLess(rows[0]["worse_by"], 0)

    def test_spread_is_quartile_distance_over_median(self):
        self.assertAlmostEqual(stats.spread([1, 2, 3, 4, 5]), 1.0)


if __name__ == "__main__":
    unittest.main()
