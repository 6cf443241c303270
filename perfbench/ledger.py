#!/usr/bin/env python3
"""The per-layer ledger: span arithmetic and the traced run's metrics.

A span file is JSONL, one object per span, with the keys `span` (its
index), `name`, `start` and `end` (seconds), `parent` (index of the
enclosing span, or -1), `id` (the task or request it belongs to) and an
optional `class`.  The layer of a span is its name up to the first dot.

Run it on a span file to print the per-layer self time and the share of
the traced wall time the spans cover:

    python3 perfbench/ledger.py .bench_build/perfbench-traces/landscape-1.spans.jsonl
"""

import json
import math
import sys

# ---- arithmetic -------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it.  0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    # The epsilon keeps q * n / 100 from rounding up past an exact rank
    # (99.9 * 2000 / 100 is 1998.0000000000002 in binary floating point).
    rank = max(1, math.ceil(q * len(ordered) / 100.0 - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def ratio(num, den):
    return num / den if den else 0.0


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    its child spans cover.  Returns a list parallel to `spans`."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    out = []
    for i, s in enumerate(spans):
        index = s.get("span", i)
        clipped = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(index, [])
            if c["end"] > s["start"] and c["start"] < s["end"]
        ]
        out.append((s["end"] - s["start"]) - union_length(clipped))
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def layer_self_times(spans):
    """Self time summed per layer."""
    totals = {}
    for s, own in zip(spans, self_times(spans)):
        layer = layer_of(s["name"])
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def coverage(spans, wall_start, wall_end):
    """Share of [wall_start, wall_end] covered by top-level spans."""
    top = [(max(s["start"], wall_start), min(s["end"], wall_end))
           for s in spans if s["parent"] < 0]
    top = [(a, b) for a, b in top if b > a]
    return ratio(union_length(top), wall_end - wall_start)


def durations(spans, name):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


# ---- the traced run's metrics -------------------------------------------------

def _delta(after, before, key):
    if key not in after:
        return 0.0
    return after[key] - before.get(key, 0.0)


def campaign_metrics(traced, spans, shard1, shard4, kernels):
    """Per-layer metrics of a campaign workload, by BENCHMARK.json name.
    `traced` is the traced loop's report, `spans` its spans,
    `shard1`/`shard4` untraced engine runs in fresh processes, `kernels`
    the kernel pass."""
    m = {}
    tasks = traced["tasks"]
    totals = traced["totals"]
    expanded, looped = traced["counters_expanded"], traced["counters_loop"]
    run_task = durations(spans, "campaign.run_task")
    m["campaign.expand_s"] = sum(durations(spans, "campaign.expand"))
    m["store.open_s"] = sum(durations(spans, "store.open"))
    m["campaign.run_task_share"] = ratio(sum(run_task), traced["loop_s"])
    tps1 = ratio(shard1["executed"], shard1["run_s"])
    tps4 = ratio(shard4["executed"], shard4["run_s"])
    m["campaign.throughput_per_s"] = tps4
    m["campaign.shard_speedup"] = ratio(tps4, tps1)
    m["campaign.attempts_per_task"] = ratio(totals["attempts"], tasks)
    hits = _delta(looped, expanded, "world_pool_hits")
    misses = _delta(looped, expanded, "world_pool_misses")
    m["campaign.world_pool_hit_share"] = ratio(hits, hits + misses)
    before4, after4 = shard4["counters_before"], shard4["counters_after"]
    slabs = _delta(after4, before4, "batch_slabs")
    m["campaign.batch_slabs"] = slabs
    m["campaign.batch_replicas_per_slab"] = ratio(
        _delta(after4, before4, "batch_replicas"), slabs)
    m["campaign.batch_scalar_fallbacks"] = _delta(
        after4, before4, "batch_scalar_fallbacks")
    m["store.append_us"] = ratio(sum(durations(spans, "store.append")), tasks) * 1e6
    m["store.commit_us"] = ratio(sum(durations(spans, "store.commit")), tasks) * 1e6
    m["store.syncs_per_task"] = ratio(_delta(after4, before4, "syncs"),
                                      shard4["executed"])
    m["store.bytes_per_task"] = ratio(shard4["store_bytes"], shard4["executed"])
    hits = _delta(looped, expanded, "cert_cache_hits")
    misses = _delta(looped, expanded, "cert_cache_misses")
    m["iso.cert_cache_hit_share"] = ratio(hits, hits + misses)
    m["iso.cert_cache_misses"] = misses
    m["iso.cert_cache_evictions"] = _delta(looped, expanded, "cert_cache_evictions")
    hits = _delta(after4, before4, "plan_cache_hits")
    misses = _delta(after4, before4, "plan_cache_misses")
    m["core.batch_plan_hit_share"] = ratio(hits, hits + misses)
    m["core.batch_plan_compiles"] = _delta(after4, before4, "plan_cache_compiles")
    m["sim.moves_per_task"] = ratio(totals["moves"], tasks)
    m["sim.steps_per_task"] = ratio(totals["steps"], tasks)
    m["sim.steps_per_busy_s"] = ratio(totals["steps"], sum(run_task))
    m["fault.events_per_task"] = ratio(
        _delta(looped, expanded, "fault_events"), tasks)
    _kernel_metrics(m, kernels)
    m["host.steal_share"] = traced["steal_share"]
    m["ledger.span_coverage"] = coverage(spans, 0.0, traced["traced_s"])
    traced_tps = ratio(tasks, traced["loop_s"])
    m["ledger.tracing_overhead"] = ratio(tps1, traced_tps) - 1.0
    add_self_times(m, spans)
    return m


def add_self_times(m, spans):
    """Adds the spans' per-layer self time to the ledger.self_s metrics."""
    for layer, own in layer_self_times(spans).items():
        name = f"ledger.self_s.{layer}"
        m[name] = m.get(name, 0.0) + own


def _kernel_metrics(m, kernels):
    m["core.protocol_plan_s"] = kernels["protocol_plan_s"]
    m["cayley.recognize_s"] = kernels["recognize_s"]
    m["views.labeling_search_s"] = kernels["labeling_search_s"]


def serve_metrics(report, spans, kernels):
    """Per-layer metrics of serve-mix from its traced report, by
    BENCHMARK.json name."""
    m = {}
    rep = report["reps"][0]
    stats, lat = rep["stats"], rep["latency"]
    m["serve.achieved_rps"] = ratio(rep["answered"], rep["phase_s"])
    hits = stats.get("response_cache_hits", 0.0)
    misses = stats.get("response_cache_misses", 0.0)
    m["serve.response_cache_hit_share"] = ratio(hits, hits + misses)
    slabs = stats.get("coalesce_slabs", 0.0)
    m["serve.coalesce_requests_per_slab"] = ratio(
        stats.get("coalesce_requests", 0.0), slabs)
    full = stats.get("coalesce_full_flushes", 0.0)
    m["serve.coalesce_full_flush_share"] = ratio(
        full, full + stats.get("coalesce_window_flushes", 0.0))
    for key, value in report["handle"].items():
        if key.endswith(".us"):
            m["serve.handle_us." + key[:-3]] = value
    m["serve.errors"] = stats.get("errors", 0.0)
    read_ms = [v / 1000.0 for v in lat["read_us"]]
    elect_ms = [v / 1000.0 for v in lat["elect_us"]]
    m["serve.read_p50_ms"] = percentile(read_ms, 50)
    m["serve.read_p99_ms"] = percentile(read_ms, 99)
    m["serve.read_samples"] = len(read_ms)
    m["serve.elect_p50_ms"] = percentile(elect_ms, 50)
    m["serve.elect_p99_ms"] = percentile(elect_ms, 99)
    m["serve.elect_samples"] = len(elect_ms)
    m["serve.p999_ms"] = percentile(read_ms + elect_ms, 99.9)
    m["serve.p999_samples"] = len(read_ms) + len(elect_ms)
    for point in report["curve"]:
        both = [v / 1000.0 for v in point["latency"]["read_us"]
                + point["latency"]["elect_us"]]
        name = f"serve.curve.r{int(point['rate'])}"
        m[name + ".p50_ms"] = percentile(both, 50)
        m[name + ".p99_ms"] = percentile(both, 99)
    m["serve.saturation_rps.w1"] = report["saturation"].get("w1", 0.0)
    m["serve.saturation_rps.w2"] = report["saturation"].get("w2", 0.0)
    m["serve.generator_late_ms_p99"] = percentile(lat["late_us"], 99) / 1000.0
    hits = stats.get("cert_cache_hits", 0.0)
    misses = stats.get("cert_cache_misses", 0.0)
    m["iso.cert_cache_hit_share"] = ratio(hits, hits + misses)
    m["iso.cert_cache_misses"] = misses
    m["iso.cert_cache_evictions"] = stats.get("cert_cache_evictions", 0.0)
    hits = stats.get("plan_cache_hits", 0.0)
    misses = stats.get("plan_cache_misses", 0.0)
    m["core.batch_plan_hit_share"] = ratio(hits, hits + misses)
    m["core.batch_plan_compiles"] = stats.get("plan_cache_compiles", 0.0)
    slabs = stats.get("batch_slabs_run", 0.0)
    m["campaign.batch_slabs"] = slabs
    m["campaign.batch_replicas_per_slab"] = ratio(
        stats.get("batch_replicas_run", 0.0), slabs)
    m["campaign.batch_scalar_fallbacks"] = stats.get("batch_scalar_fallbacks", 0.0)
    hits = stats.get("world_pool_hits", 0.0)
    misses = stats.get("world_pool_misses", 0.0)
    m["campaign.world_pool_hit_share"] = ratio(hits, hits + misses)
    elections = rep.get("elect_answers", 0)
    m["sim.moves_per_task"] = ratio(rep.get("elect_moves", 0.0), elections)
    m["sim.steps_per_task"] = ratio(rep.get("elect_steps", 0.0), elections)
    _kernel_metrics(m, kernels)
    m["host.steal_share"] = rep["steal_share"]
    requests = [s for s in spans if s["name"] == "client.request"]
    if requests:
        start = min(s["start"] for s in requests)
        end = max(s["end"] for s in requests)
        m["ledger.span_coverage"] = coverage(spans, start, end)
    # The generator stamps these times whether or not it traces: the spans
    # are assembled after the phase, so tracing adds no work to it.
    m["ledger.tracing_overhead"] = 0.0
    add_self_times(m, spans)
    return m


def print_ledger(spans, wall_start, wall_end, out=sys.stdout):
    """Prints per-layer self time and span coverage of one span file.  The
    share column is each layer's part of the summed self time (concurrent
    spans, as serve-mix's requests are, can sum to more than the wall)."""
    wall = wall_end - wall_start
    print(f"ledger: {len(spans)} spans over {wall:.3f} s traced wall time, "
          f"covering {100 * coverage(spans, wall_start, wall_end):.1f}%",
          file=out)
    layers = layer_self_times(spans)
    total = sum(layers.values())
    print(f"  {'layer':<10} {'self_s':>10} {'share':>7}", file=out)
    for layer, own in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<10} {own:10.4f} {100 * ratio(own, total):6.1f}%",
              file=out)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans = read_spans(argv[1])
    if not spans:
        print("no spans", file=sys.stderr)
        return 1
    start = min(s["start"] for s in spans)
    end = max(s["end"] for s in spans)
    print_ledger(spans, start, end)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
