"""Tests of the benchmark's metric helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import sys
import unittest

sys.dont_write_bytecode = True

import metrics as m  # noqa: E402


class TailTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        self.assertEqual(m.tail(range(1, 101)), (90, 90))

    def test_one_more_sample_keeps_p90(self):
        # 109 samples: p95 sits at rank 104 with 5 beyond; p90 at rank 99.
        self.assertEqual(m.tail(range(1, 110)), (90, 99))

    def test_thousand_samples_reach_p99(self):
        self.assertEqual(m.tail(range(1, 1001)), (99, 990))

    def test_too_few_samples_fall_back_to_median(self):
        # 19 samples: even p50 (rank 10) leaves only 9 beyond.
        self.assertEqual(m.tail(range(1, 20)), (50, 10))

    def test_twenty_samples_qualify_p50(self):
        self.assertEqual(m.tail(range(1, 21)), (50, 10))

    def test_order_does_not_matter(self):
        self.assertEqual(m.tail([5, 1, 4, 2, 3] * 8), m.tail(sorted([5, 1, 4, 2, 3] * 8)))

    def test_nearest_rank_percentile(self):
        self.assertEqual(m.percentile([3, 1, 2], 50), 2)
        self.assertEqual(m.percentile([1, 2, 3, 4], 75), 3)
        self.assertEqual(m.percentile([7], 99.9), 7)


class UnionTest(unittest.TestCase):
    def test_disjoint_intervals_add(self):
        self.assertAlmostEqual(m.union_length([(0, 1), (2, 4)]), 3)

    def test_overlapping_threads_count_once(self):
        # Three concurrent refits on different threads cover [0, 5).
        self.assertAlmostEqual(m.union_length([(0, 3), (1, 4), (2, 5)]), 5)

    def test_nested_and_touching(self):
        self.assertAlmostEqual(m.union_length([(0, 10), (2, 3), (10, 12)]), 12)

    def test_clipped_to_window(self):
        self.assertAlmostEqual(m.union_length([(-5, 2), (8, 20)], 0, 10), 4)

    def test_empty_and_degenerate(self):
        self.assertEqual(m.union_length([]), 0)
        self.assertEqual(m.union_length([(3, 3), (5, 4)]), 0)

    def test_self_time_subtracts_child_union(self):
        # Parent [0, 10); children overlap each other and spill past its end.
        children = [(1, 4), (2, 6), (8, 12)]
        self.assertAlmostEqual(m.self_time(0, 10, children), 10 - 5 - 2)

    def test_self_time_without_children(self):
        self.assertAlmostEqual(m.self_time(1.5, 4.0, []), 2.5)


class SpansTest(unittest.TestCase):
    def test_filters_by_prefix_and_start(self):
        spans = [["surrogate.fit", 1.0, 2.0, 1, 0],
                 ["surrogate.refit", 3.0, 9.0, 2, 0],
                 ["eval.batch", 2.0, 3.0, 3, 0],
                 ["surrogate.predict", 11.0, 12.0, 4, 0]]
        self.assertEqual(m.spans_in(spans, 0, 10, "surrogate."),
                         [(1.0, 2.0), (3.0, 9.0)])


if __name__ == "__main__":
    unittest.main()
