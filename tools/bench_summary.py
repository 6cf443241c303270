#!/usr/bin/env python3
"""Aggregate BENCH_<name>.json files into one BENCH_summary.json.

Usage:
    tools/bench_summary.py [--dir DIR] [--out BENCH_summary.json]

Collects every BENCH_*.json produced by the bench_* binaries (schema in
bench/bench_json.hpp), merges them into a single machine-readable summary,
and prints a compact table.  Mixing results from different builds is a
measurement bug, so the script warns -- and marks the summary -- when the
per-file config hashes disagree, and when any file was produced in smoke
mode (QELECT_BENCH_SMOKE=1), whose timings are single uncalibrated runs.

Exit status is 0 even on warnings by default: CI archives smoke-mode
artifacts for schema checks, and gating on wall times of shared runners
would flake.  Pass --strict to exit non-zero when a >15% regression
against a committed baseline is detected (the CI bench-smoke job does;
smoke-mode timings never count as regressions).  Serving cases with a
p99_latency_us counter additionally land in a `serve` section; a p99 more
than 25% over its committed baseline_p99_latency_us is a soft warning that
never fails --strict (tail latency on shared runners is too noisy to gate
on), while a coalesce_vs_sequential ratio below 3.0 is a fatal regression
under --strict (the micro-batching acceptance bar).
"""

import argparse
import glob
import json
import os
import sys


def load(path):
    with open(path) as f:
        data = json.load(f)
    for key in ("bench", "smoke", "config_hash", "cases"):
        if key not in data:
            raise ValueError(f"{path}: missing key {key!r}")
    return data


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dir", default=".", help="directory with BENCH_*.json")
    ap.add_argument("--out", default="BENCH_summary.json")
    ap.add_argument("--strict", action="store_true",
                    help="exit non-zero when a >15%% regression against a "
                         "committed baseline is detected")
    args = ap.parse_args()

    paths = sorted(glob.glob(os.path.join(args.dir, "BENCH_*.json")))
    paths = [p for p in paths if os.path.basename(p) != "BENCH_summary.json"]
    if not paths:
        print(f"bench_summary: no BENCH_*.json under {args.dir}",
              file=sys.stderr)
        return 1

    benches, warnings = [], []
    for path in paths:
        try:
            benches.append(load(path))
        except (ValueError, json.JSONDecodeError) as e:
            warnings.append(f"skipping {path}: {e}")
    hashes = sorted({b["config_hash"] for b in benches})
    if len(hashes) > 1:
        warnings.append(
            "mixed config hashes (results from different builds): "
            + ", ".join(hashes))
    smoke = [b["bench"] for b in benches if b["smoke"]]
    if smoke:
        warnings.append("smoke-mode files (timings not calibrated): "
                        + ", ".join(smoke))

    total_cases = sum(len(b["cases"]) for b in benches)
    speedups = {}
    baseline_speedups = {}
    batch_speedups = {}
    wal_speedups = {}
    fault_overheads = {}
    serve_cases = {}
    coalesce_ratios = {}
    regressions = []
    # Throughput counters paired with their committed baselines: simulator
    # moves/sec (BENCH_sim.json) and serving QPS (BENCH_serve.json).  The
    # baselines are from a quiet Release box (see docs/PERFORMANCE.md and
    # docs/SERVING.md); a >15% dip below one is a regression.  When the
    # bench recorded a best (min-time) sample, the regression check keys on
    # it: the minimum is the least-contended observation, so it does not
    # flag runs that were merely unlucky with scheduler noise.  Regressions
    # are soft warnings by default and fatal under --strict; smoke-mode
    # timings never count.
    BASELINE_PAIRS = [
        ("moves_per_second", "best_moves_per_second",
         "baseline_moves_per_second", "moves/s"),
        ("qps", "best_qps", "baseline_qps", "QPS"),
        ("records_per_second", "best_records_per_second",
         "baseline_records_per_second", "rec/s"),
    ]
    for b in benches:
        for c in b["cases"]:
            counters = c.get("counters", {})
            name = f"{b['bench']}/{c['name']}"
            s = counters.get("speedup_vs_seed")
            if s is not None:
                speedups[name] = s
            for value_key, best_key, base_key, unit in BASELINE_PAIRS:
                base = counters.get(base_key)
                value = counters.get(value_key)
                if base and value:
                    baseline_speedups[name] = value / base
                    gate = counters.get(best_key) or value
                    if not b["smoke"] and gate < 0.85 * base:
                        regressions.append(
                            f"{name}: {gate:.3g} {unit} is "
                            f"{gate / base:.2f}x the committed baseline "
                            f"({base:.3g}) -- >15% regression")
            # Batch-vs-scalar pairs from bench_sim_batch: the batch backend
            # exists to beat the scalar engine on replica bursts, so a
            # non-smoke ratio below 1.0 is a regression, and a verdict
            # mismatch (batch and scalar runs disagreeing on any replica) is
            # a correctness failure regardless of timing mode.
            ratio = counters.get("batch_vs_scalar")
            if ratio is not None:
                batch_speedups[name] = ratio
                if not b["smoke"] and ratio < 1.0:
                    regressions.append(
                        f"{name}: batch backend is {ratio:.2f}x the scalar "
                        f"engine -- slower than what it replaces")
            identical = counters.get("verdicts_identical")
            if identical is not None and identical != 1:
                regressions.append(
                    f"{name}: batch and scalar verdicts DIVERGE")
            # The WAL store's acceptance bar (bench_store): group-committed
            # WAL appends must run >= 10x the per-record-durable JSONL
            # writer it replaced, at matched durability.
            wal_ratio = counters.get("wal_vs_jsonl")
            if wal_ratio is not None:
                wal_speedups[name] = wal_ratio
                if not b["smoke"] and wal_ratio < 10.0:
                    regressions.append(
                        f"{name}: WAL commit is only {wal_ratio:.1f}x the "
                        f"durable JSONL writer -- below the 10x bar")
            # Fault-hook overhead (bench_fault): an attached-but-disabled
            # FaultPlan must route to the fault-free engine, so its
            # moves/sec must stay within 2% of running with no plan at all.
            fault_ratio = counters.get("zero_fault_overhead")
            if fault_ratio is not None:
                fault_overheads[name] = fault_ratio
                if not b["smoke"] and fault_ratio < 0.98:
                    regressions.append(
                        f"{name}: zero-fault plan runs at "
                        f"{fault_ratio:.3f}x the plan-free engine -- the "
                        f"disabled fault hooks cost more than 2%")
            # Serving table: every case carrying a p99 latency lands in a
            # dedicated section.  Tail latency on a shared runner is far
            # noisier than the min-time throughput samples, so a p99 more
            # than 25% over its committed baseline is a soft warning only --
            # it never fails --strict.
            p99 = counters.get("p99_latency_us")
            if p99 is not None:
                serve_cases[name] = {
                    "qps": counters.get("qps"),
                    "p50_latency_us": counters.get("p50_latency_us"),
                    "p99_latency_us": p99,
                }
                base_p99 = counters.get("baseline_p99_latency_us")
                if base_p99 and not b["smoke"] and p99 > 1.25 * base_p99:
                    warnings.append(
                        f"{name}: p99 latency {p99:.0f}us is "
                        f"{p99 / base_p99:.2f}x the committed baseline "
                        f"({base_p99:.0f}us) -- >25% tail regression "
                        f"(non-fatal)")
            # The micro-batching acceptance bar (bench_serve): a coalesced
            # single-seed RUN_ELECT burst must sustain >= 3x the QPS of the
            # same burst with the coalescing window disabled (32
            # connections, one worker).
            coalesce = counters.get("coalesce_vs_sequential")
            if coalesce is not None:
                coalesce_ratios[name] = coalesce
                if not b["smoke"] and coalesce < 3.0:
                    regressions.append(
                        f"{name}: coalesced burst is only {coalesce:.2f}x "
                        f"the uncoalesced QPS -- below the 3x bar")
    warnings.extend(regressions)

    summary = {
        "config_hashes": hashes,
        "benches": len(benches),
        "cases": total_cases,
        "warnings": warnings,
        "speedups_vs_seed": speedups,
        "speedups_vs_baseline": baseline_speedups,
        "batch_vs_scalar": batch_speedups,
        "wal_vs_jsonl": wal_speedups,
        "zero_fault_overhead": fault_overheads,
        "serve": serve_cases,
        "coalesce_vs_sequential": coalesce_ratios,
        "files": benches,
    }
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")

    print(f"bench_summary: {len(benches)} files, {total_cases} cases "
          f"-> {args.out}")
    for w in warnings:
        print(f"  WARNING: {w}")
    if speedups:
        print("  speedup_vs_seed:")
        for k, v in sorted(speedups.items()):
            print(f"    {k:48s} {v:7.2f}x")
    if baseline_speedups:
        print("  speedup_vs_baseline (committed baselines):")
        for k, v in sorted(baseline_speedups.items()):
            print(f"    {k:48s} {v:7.2f}x")
    if batch_speedups:
        print("  batch_vs_scalar (lockstep backend vs scalar engine):")
        for k, v in sorted(batch_speedups.items()):
            print(f"    {k:48s} {v:7.2f}x")
    if wal_speedups:
        print("  wal_vs_jsonl (group-committed WAL vs durable JSONL):")
        for k, v in sorted(wal_speedups.items()):
            print(f"    {k:48s} {v:7.2f}x")
    if fault_overheads:
        print("  zero_fault_overhead (disabled FaultPlan vs no plan):")
        for k, v in sorted(fault_overheads.items()):
            print(f"    {k:48s} {v:7.2f}x")
    if serve_cases:
        print("  serve (throughput and tail latency):")
        for k, v in sorted(serve_cases.items()):
            qps = f"{v['qps']:10.0f}" if v["qps"] is not None else "         -"
            p50 = (f"{v['p50_latency_us']:8.1f}"
                   if v["p50_latency_us"] is not None else "       -")
            print(f"    {k:48s} {qps} QPS  p50 {p50}us  "
                  f"p99 {v['p99_latency_us']:8.1f}us")
    if coalesce_ratios:
        print("  coalesce_vs_sequential (micro-batched vs per-request):")
        for k, v in sorted(coalesce_ratios.items()):
            print(f"    {k:48s} {v:7.2f}x")
    if args.strict and regressions:
        print(f"bench_summary: --strict: {len(regressions)} regression(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
