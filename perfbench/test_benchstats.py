"""Unit tests of the benchmark's helpers: python3 -m unittest discover perfbench"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats as bs  # noqa: E402


def span(name, start, dur, sid, parent=bs.NO_SPAN, tid=0):
    return [name, tid, start, dur, sid, parent]


class PercentileTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(bs.percentile(list(range(1, 101)), 90), 90)
        self.assertIsNone(bs.percentile(list(range(1, 100)), 90))

    def test_p50_of_twenty(self):
        self.assertEqual(bs.percentile(list(range(20, 0, -1)), 50), 10)
        self.assertIsNone(bs.percentile(list(range(19)), 50))

    def test_min_beyond_is_adjustable(self):
        self.assertEqual(bs.percentile([5, 1, 3], 50, min_beyond=1), 3)

    def test_empty_or_out_of_range(self):
        self.assertIsNone(bs.percentile([], 50))
        self.assertIsNone(bs.percentile([1] * 50, 0))
        self.assertIsNone(bs.percentile([1] * 50, 101))


class SelfTimeTest(unittest.TestCase):
    def test_overlapping_children_are_counted_once(self):
        events = [span("a:root", 0, 100, "p"),
                  span("b", 10, 20, "c1", "p"),
                  span("b", 20, 30, "c2", "p")]
        self.assertEqual([s for _, s in bs.self_times(events)], [60, 20, 30])

    def test_children_on_other_threads_cover_wall_time(self):
        events = [span("x", 0, 10, "p", tid=0),
                  span("campaign.chunk", 0, 8, "c1", "p", tid=1),
                  span("campaign.chunk", 0, 8, "c2", "p", tid=2)]
        self.assertEqual(bs.self_times(events)[0][1], 2)

    def test_children_are_clipped_to_the_parent(self):
        events = [span("x", 10, 10, "p"), span("y", 15, 100, "c", "p")]
        self.assertEqual(bs.self_times(events)[0][1], 5)

    def test_only_direct_children_count(self):
        events = [span("x", 0, 10, "p"), span("y", 0, 6, "c", "p"),
                  span("z", 0, 6, "g", "c")]
        self.assertEqual([s for _, s in bs.self_times(events)], [4, 0, 6])

    def test_layer_self_seconds(self):
        events = [span("scenario:run_scenario", 0, 4e6, "r"),
                  span("scenario.run", 0, 4e6, "s", "r"),
                  span("scenario.stage/os", 0, 1e6, "o", "s"),
                  span("scenario.stage/rollback", 1e6, 2e6, "b", "s")]
        totals = bs.layer_self_seconds(events)
        self.assertAlmostEqual(totals["scenario"], 1.0)
        self.assertAlmostEqual(totals["os"], 1.0)
        self.assertAlmostEqual(totals["rollback"], 2.0)
        self.assertEqual(set(totals), set(bs.LAYERS))


class LayerTest(unittest.TestCase):
    def test_mapping(self):
        cases = {"arch:campaign_run": "arch", "campaign.chunk": "common",
                 "campaign.pipeline": "arch", "scenario.stage/fault.1": "arch",
                 "scenario.stage/device": "device", "scenario.stage/crosslayer": "core",
                 "scenario.run": "scenario", "rollback.experiment": "rollback",
                 "circuit.sta.run": "circuit", "fabric.shard/3": "fabric",
                 "os.governor.episode": "os", "something": "other"}
        for name, layer in cases.items():
            self.assertEqual(bs.layer_of(name), layer, name)


class RatioTest(unittest.TestCase):
    def test_ratio_and_empty_base(self):
        self.assertEqual(bs.ratio(3, 4), 0.75)
        self.assertEqual(bs.ratio(3, 0), 0.0)

    def test_best_parts(self):
        rounds = [{"parts": [3, 1, 5]}, {"parts": [2, 4, 5]}]
        self.assertEqual(bs.best_parts(rounds), [2, 1, 5])

    def _raw(self, workload, rounds, **extra):
        raw = {"workload": workload, "setup_s": [0.2, 0.1, 0.3], "peak_rss_mb": 10.0,
               "host": {"nproc": 4, "parallelism": 1.0, "scalar_score": 500.0},
               "summary": {"fingerprint": "0x0"}, "rounds": rounds, "best_of": 2}
        raw.update(extra)
        return raw

    def _round(self, parts, traced=False, **extra):
        r = {"traced": traced, "ops": 10, "attempted": 10, "failed": 0,
             "wall_s": sum(parts), "parts": parts}
        r.update(extra)
        return r

    def test_end_to_end_uses_best_parts_and_op_parts(self):
        rounds = [self._round([1.0, 2.0, 3.0], ops_parts_from=1),
                  self._round([2.0, 1.0, 1.0], ops_parts_from=1)]
        m = bs.end_to_end(self._raw("crosslayer", rounds))
        self.assertEqual(m["job_s"][0], 3.0)
        self.assertEqual(m["ops_per_s"][0], 5.0)  # 10 scenarios / (1 + 1) s
        self.assertEqual(m["setup_s"][0], 0.1)    # fastest set-up
        self.assertEqual(set(m), {"setup_s", "ops_per_s", "job_s", "peak_rss_mb"})

    def test_best_parts_take_a_fixed_number_of_untraced_rounds(self):
        # Only the first best_of untraced rounds count: a run that fits more
        # rounds in its seconds does not get a lower minimum from them.
        rounds = [self._round([2.0]), self._round([0.1], traced=True),
                  self._round([3.0]), self._round([1.0])]
        self.assertEqual(bs.end_to_end(self._raw("fi_plain", rounds))["job_s"][0], 2.0)

    def test_throughput_has_one_definition(self):
        rounds = [self._round([1.0, 4.0], ops_parts_from=1),
                  self._round([2.0, 5.0], ops_parts_from=1)]
        raw = self._raw("crosslayer", rounds)
        m = bs.per_layer(raw, [], 0.0)
        self.assertEqual(m["scenarios_per_s"][0], bs.end_to_end(raw)["ops_per_s"][0])
        self.assertEqual(m["signoff_s"][0], 1.0)
        self.assertEqual(m["trials_per_s"][0], 0.0)
        raw = self._raw("fi_plain", rounds)
        self.assertEqual(bs.per_layer(raw, [], 0.0)["trials_per_s"][0],
                         bs.end_to_end(raw)["ops_per_s"][0])

    def test_fabric_setup_rss_and_efficiency(self):
        fabric = {"fabric_ops": 100, "fabric_s": 2.0, "inproc_ops": 100, "inproc_s": 1.0}
        rounds = [self._round([2.0], spawn_s=0.05, children_peak_rss_mb=4.0, **fabric),
                  self._round([2.0], spawn_s=0.02, children_peak_rss_mb=5.0, **fabric),
                  self._round([2.0], spawn_s=0.01, children_peak_rss_mb=9.0, **fabric)]
        raw = self._raw("fi_resilient", rounds)
        self.assertAlmostEqual(bs.end_to_end(raw)["setup_s"][0], 0.12)
        self.assertEqual(bs.end_to_end(raw)["peak_rss_mb"][0], 10.0)  # harness only
        m = bs.per_layer(raw, [], 0.0)
        self.assertEqual(m["fabric.workers_peak_rss_mb"][0], 5.0)  # best_of rounds
        self.assertEqual(m["fabric_efficiency"][0], 0.5)  # base: in-process trials/s

    def test_failure_and_prune_ratios(self):
        rounds = [{"traced": False, "ops": 90, "attempted": 100, "failed": 10,
                   "wall_s": 1.0, "parts": [1.0], "audits": 20, "false_benign": 1,
                   "pruned": 60, "prune_trials": 80},
                  {"traced": True, "ops": 90, "attempted": 100, "failed": 0,
                   "wall_s": 1.5, "parts": [1.5], "audits": 20, "false_benign": 3,
                   "pruned": 60, "prune_trials": 80}]
        m = bs.per_layer(self._raw("fi_resilient", rounds), [], 0.0)
        self.assertEqual(m["failed_ratio"][0], 0.05)       # base: attempted
        self.assertEqual(m["false_benign_rate"][0], 0.1)   # base: audits
        self.assertEqual(m["ml.prune.useful_ratio"][0], 0.75)  # base: trials
        self.assertEqual(m["obs.trace_overhead"][0], 1.5)  # base: untraced wall


if __name__ == "__main__":
    unittest.main()
