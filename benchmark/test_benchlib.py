"""Tests of the benchmark's statistics, trace analysis, and names.

  python3 benchmark/run.py --self-test      # these + test_closed_loop
  python3 -m unittest -v test_benchlib      # from benchmark/
"""

import json
import os
import unittest

import benchlib as bl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def span(cat, name, tid, ts, dur):
    return {"ph": "X", "cat": cat, "name": name, "tid": tid, "ts": ts,
            "dur": dur}


class PercentileRule(unittest.TestCase):
    def test_caps_at_p99_with_enough_samples(self):
        q, value, beyond = bl.tail(list(range(1, 1001)))
        self.assertEqual(q, 0.99)
        self.assertAlmostEqual(value, 990.01)
        self.assertEqual(beyond, 10)

    def test_leaves_ten_samples_beyond(self):
        values = list(range(80))
        q, value, beyond = bl.tail(values)
        self.assertEqual(q, 0.875)
        self.assertEqual(beyond, 10)
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_too_few_samples_have_no_tail(self):
        self.assertEqual(bl.tail([5, 1, 3]), (None, None, 0))
        self.assertIsNone(bl.tail(list(range(10)))[0])
        self.assertEqual(bl.tail(list(range(11)))[2], 10)

    def test_interpolates(self):
        self.assertEqual(bl.percentile([10, 20], 0.5), 15)
        self.assertEqual(bl.percentile([3, 1, 2], 0.5), 2)
        with self.assertRaises(ValueError):
            bl.percentile([], 0.5)

    def test_misses_sort_above_every_latency(self):
        lat = bl.with_misses([5, -1, 7, -1], ceiling=1000)
        self.assertEqual(lat, [5, 1000, 7, 1000])
        # Two misses in twenty: the tail lands on a miss.
        lat = bl.with_misses(list(range(18)) + [-1, -1], ceiling=1000)
        self.assertEqual(bl.tail(lat, beyond=1)[1], 1000)


class SelfTime(unittest.TestCase):
    def test_hand_built_trace(self):
        events = [
            span("experiment", "e", 1, 0, 100),
            span("sweep", "s1", 1, 10, 20),   # child of e
            span("phase", "p1", 1, 12, 8),    # child of s1
            span("sweep", "s2", 1, 40, 10),   # child of e
            span("burst", "b", 2, 15, 50),    # another thread: no parent
            {"ph": "i", "cat": "sched", "name": "x", "tid": 1, "ts": 5},
        ]
        got = {ev["name"]: s for ev, s in bl.self_times(events)}
        self.assertEqual(got, {"e": 70, "s1": 12, "p1": 8, "s2": 10,
                               "b": 50})
        cats = bl.self_by_category(events)
        self.assertAlmostEqual(cats["experiment"], 70e-6)
        self.assertAlmostEqual(cats["sweep"], 22e-6)
        self.assertNotIn("sched", cats)

    def test_child_overrunning_its_parent_is_clipped(self):
        events = [span("phase", "p", 1, 0, 10),
                  span("burst", "b", 1, 5, 5.001)]
        got = {ev["name"]: s for ev, s in bl.self_times(events)}
        self.assertAlmostEqual(got["p"], 5)

    def test_back_to_back_spans_are_siblings(self):
        events = [span("phase", "a", 1, 0, 10), span("phase", "b", 1, 10, 5)]
        got = {ev["name"]: s for ev, s in bl.self_times(events)}
        self.assertEqual(got, {"a": 10, "b": 5})

    def test_bursts_attribute_to_their_phase(self):
        events = [
            span("experiment", "fig11", 1, 0, 1000),
            span("phase", "conv2:AxW", 1, 0, 100),
            span("burst", "conv2:b0", 1, 10, 40),   # same thread
            span("burst", "conv2:b1", 2, 10, 60),   # sharded
            span("phase", "fc:AxG", 3, 200, 30),
        ]
        top = bl.top_phases(events)
        self.assertEqual(top[0][:2], ("fig11", "conv2:AxW"))
        self.assertAlmostEqual(top[0][2], 160e-6)
        self.assertAlmostEqual(top[1][2], 30e-6)


class Names(unittest.TestCase):
    def test_rules(self):
        for good in ("wall_s", "sim.memo.hit_ratio", "fig17_train",
                     "obs.trace-overhead", "1st", "a" * 64):
            self.assertTrue(bl.valid_name(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "µs", "a" * 65, None):
            self.assertFalse(bl.valid_name(bad), bad)
        self.assertTrue(bl.valid_unit("1/s"))
        self.assertTrue(bl.valid_unit("%"))
        self.assertFalse(bl.valid_unit("per second"))

    def test_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [e["name"] for key in ("workloads", "end_to_end",
                                       "per_layer") for e in spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(bl.valid_name(name), name)
        for e in spec["end_to_end"] + spec["per_layer"]:
            self.assertTrue(bl.valid_unit(e["unit"]), e["unit"])
            self.assertIn(e["better"], ("lower", "higher"))
        for e in spec["end_to_end"]:
            self.assertLessEqual(e["bound"], 0.25)
        setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"],
                         max(e["bound"] for e in spec["end_to_end"]))


class Helpers(unittest.TestCase):
    def test_round_walls(self):
        self.assertEqual(bl.round_walls([1, 2, 3, 5, 6, 9, 10], 2),
                         [2, 3, 4])
        self.assertEqual(bl.round_walls([4], 2), [])

    def test_hist_quantile(self):
        hist = {"bounds": [1, 4, 16], "counts": [0, 4, 4, 0], "count": 8}
        self.assertAlmostEqual(bl.hist_quantile(hist, 0.5), 4)
        self.assertAlmostEqual(bl.hist_quantile(hist, 0.25), 2.5)
        self.assertIsNone(bl.hist_quantile({"count": 0}, 0.5))


if __name__ == "__main__":
    unittest.main()
