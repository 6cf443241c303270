"""Span and percentile arithmetic of the ledger, against hand-computed cases.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import ledger  # noqa: E402
import run  # noqa: E402


def span(index, name, start, end, parent=-1, id_=-1):
    return {"span": index, "name": name, "start": start, "end": end,
            "parent": parent, "id": id_}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
        self.assertEqual(ledger.percentile(values, 50), 5)
        self.assertEqual(ledger.percentile(values, 90), 9)
        self.assertEqual(ledger.percentile(values, 99), 10)
        self.assertEqual(ledger.percentile(values, 100), 10)
        self.assertEqual(ledger.percentile(values, 0), 1)
        self.assertEqual(ledger.percentile(values, 11), 2)

    def test_small_and_empty(self):
        self.assertEqual(ledger.percentile([], 99), 0.0)
        self.assertEqual(ledger.percentile([7.5], 50), 7.5)
        self.assertEqual(ledger.percentile([1, 2], 50), 1)
        self.assertEqual(ledger.percentile([1, 2], 51), 2)

    def test_p999_needs_a_thousand_samples(self):
        values = list(range(1, 2001))
        self.assertEqual(ledger.percentile(values, 99.9), 1998)


class SpanArithmeticTest(unittest.TestCase):
    def test_union_length(self):
        self.assertAlmostEqual(
            ledger.union_length([(0, 1), (0.5, 2), (3, 4)]), 3.0)
        self.assertAlmostEqual(ledger.union_length([(2, 3), (0, 5)]), 5.0)
        self.assertEqual(ledger.union_length([]), 0.0)

    def test_self_time_subtracts_covered_children(self):
        spans = [
            span(0, "campaign.task", 0, 10),
            span(1, "campaign.run_task", 1, 3, parent=0),
            span(2, "store.append", 2, 4, parent=0),   # overlaps run_task
            span(3, "store.commit", 6, 7, parent=0),
            span(4, "store.commit", 9, 12, parent=0),  # clipped to 9..10
        ]
        own = ledger.self_times(spans)
        # Children cover 1..4, 6..7 and 9..10: 5 of the parent's 10 s.
        self.assertAlmostEqual(own[0], 5.0)
        self.assertAlmostEqual(own[1], 2.0)
        self.assertAlmostEqual(own[4], 3.0)

    def test_layer_self_times(self):
        spans = [
            span(0, "campaign.task", 0, 4),
            span(1, "campaign.run_task", 0, 3, parent=0),
            span(2, "store.commit", 3, 4, parent=0),
            span(3, "campaign.expand", 5, 6),
        ]
        layers = ledger.layer_self_times(spans)
        self.assertAlmostEqual(layers["campaign"], 0 + 3 + 1)
        self.assertAlmostEqual(layers["store"], 1)

    def test_coverage_counts_top_level_spans_once(self):
        spans = [
            span(0, "client.request", 0, 2),
            span(1, "client.request", 1, 3),
            span(2, "serve.roundtrip", 1, 3, parent=1),
            span(3, "client.request", 5, 6),
        ]
        self.assertAlmostEqual(ledger.coverage(spans, 0, 10), 0.4)
        self.assertAlmostEqual(ledger.coverage(spans, 1, 6), 3 / 5)

    def test_campaign_shares(self):
        counters = {"world_pool_hits": 0, "world_pool_misses": 0,
                    "cert_cache_hits": 0, "cert_cache_misses": 0}
        traced = {
            "tasks": 2, "loop_s": 4.0, "traced_s": 5.0, "steal_share": 0.01,
            "totals": {"attempts": 3, "moves": 10, "steps": 30},
            "counters_expanded": counters,
            "counters_loop": dict(counters, world_pool_hits=3,
                                  world_pool_misses=1, cert_cache_hits=1,
                                  cert_cache_misses=4),
        }
        spans = [
            span(0, "campaign.expand", 0, 0.5),
            span(1, "store.open", 0.5, 1.0),
            span(2, "campaign.task", 1.0, 3.0, id_=0),
            span(3, "campaign.run_task", 1.0, 2.5, parent=2, id_=0),
            span(4, "store.commit", 2.5, 3.0, parent=2, id_=0),
            span(5, "campaign.task", 3.0, 5.0, id_=1),
            span(6, "campaign.run_task", 3.0, 4.5, parent=5, id_=1),
        ]
        zero = {"batch_slabs": 0, "syncs": 0}
        shard1 = {"executed": 2, "run_s": 2.0, "tasks": 2}
        shard4 = {"executed": 2, "run_s": 0.5, "tasks": 2, "store_bytes": 200,
                  "counters_before": zero,
                  "counters_after": dict(zero, syncs=4)}
        kernels = {"protocol_plan_s": 1, "recognize_s": 2,
                   "labeling_search_s": 3}
        m = ledger.campaign_metrics(traced, spans, shard1, shard4, kernels)
        self.assertAlmostEqual(m["campaign.run_task_share"], 3.0 / 4.0)
        self.assertAlmostEqual(m["campaign.throughput_per_s"], 4.0)
        self.assertAlmostEqual(m["campaign.shard_speedup"], 4.0)
        self.assertAlmostEqual(m["campaign.attempts_per_task"], 1.5)
        self.assertAlmostEqual(m["campaign.world_pool_hit_share"], 0.75)
        self.assertAlmostEqual(m["iso.cert_cache_hit_share"], 0.2)
        self.assertAlmostEqual(m["store.commit_us"], 0.25e6)
        self.assertAlmostEqual(m["store.syncs_per_task"], 2.0)
        self.assertAlmostEqual(m["store.bytes_per_task"], 100.0)
        self.assertAlmostEqual(m["sim.steps_per_busy_s"], 10.0)
        self.assertAlmostEqual(m["ledger.span_coverage"], 1.0)
        # Untraced 1 task/s vs traced 2 tasks / 4 s = 0.5 task/s.
        self.assertAlmostEqual(m["ledger.tracing_overhead"], 1.0)
        self.assertAlmostEqual(m["ledger.self_s.campaign"], 0.5 + 0 + 1.5 + 0.5 + 1.5)


class ResultTest(unittest.TestCase):
    PER_LAYER = [("a.x", "s"), ("b.y", "count")]

    def test_unloaded_layers_read_zero(self):
        self.assertEqual(run.per_layer_values({"b.y": 3}, self.PER_LAYER),
                         {"a.x": 0.0, "b.y": 3})

    def test_unnamed_metric_fails(self):
        with self.assertRaises(run.CheckFailed):
            run.per_layer_values({"a.x": 1, "c.z": 2}, self.PER_LAYER)


def serve_rep(requests, answered, cpu_s):
    return {"requests": requests, "answered": answered, "cpu_s": cpu_s,
            "phase_s": 1.0, "setup_cpu_s": 0.5, "setup_wall_s": 0.7,
            "peak_rss_mib": 40.0, "steal_share": 0.01,
            "latency": {"read_us": [100.0], "elect_us": [300.0],
                        "late_us": [5.0]}}


class ServeResultTest(unittest.TestCase):
    def test_unanswered_requests_lower_ok_share(self):
        report = {"reps": [serve_rep(1000, 1000, 0.05),
                           serve_rep(1000, 990, 0.0495),
                           serve_rep(2000, 2000, 0.2)],
                  "attempted": 5000, "unanswered": 10, "failed": 0,
                  "first_failure": ""}
        metrics, info, attempted, failed = run.serve_end_to_end(report)
        # Pooled: 3,990 answered of 4,000 requests.
        self.assertAlmostEqual(metrics["ok_share"], 3990 / 4000)
        self.assertAlmostEqual(metrics["cpu_us_per_op"], 50.0)
        self.assertAlmostEqual(metrics["setup_s"], 0.5)
        self.assertEqual((attempted, failed), (5000, 10))

    def test_wrong_answers_fail(self):
        report = {"reps": [serve_rep(10, 10, 0.001)], "attempted": 10,
                  "unanswered": 0, "failed": 1,
                  "first_failure": "sigma answered bad-request"}
        with self.assertRaises(run.CheckFailed):
            run.serve_end_to_end(report)


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        self.pins = run.load_pins()

    def totals(self, workload, size, seed):
        want = run.expected_totals(self.pins, workload, size, seed)
        return dict(want, oracle_mismatches=0, attempts=want["tasks"])

    def test_pinned_totals_pass(self):
        for workload in ("landscape", "elect-sweep", "fault-sweep"):
            run.check_totals(workload, "full", 3, self.totals(workload, "full", 3),
                             self.pins)

    def test_wrong_answers_fail(self):
        t = self.totals("elect-sweep", "full", 3)
        t["moves"] += 1
        with self.assertRaises(run.CheckFailed):
            run.check_totals("elect-sweep", "full", 3, t, self.pins)
        t = self.totals("elect-sweep", "full", 3)
        t["oracle_mismatches"] = 1
        with self.assertRaises(run.CheckFailed):
            run.check_totals("elect-sweep", "full", 3, t, self.pins)
        t = self.totals("landscape", "full", 0)
        t["classes"] = dict(t["classes"], open=187, elect=7350)
        with self.assertRaises(run.CheckFailed):
            run.check_totals("landscape", "full", 0, t, self.pins)
        t = self.totals("fault-sweep", "full", 5)
        t["ok"], t["not_ok"] = t["ok"] + 1, t["not_ok"] - 1
        with self.assertRaises(run.CheckFailed):
            run.check_totals("fault-sweep", "full", 5, t, self.pins)


if __name__ == "__main__":
    unittest.main()
