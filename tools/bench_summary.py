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

Campaign result stores -- binary WAL stores (*.results.qws and
campaign_*/results.qws, snapshot + frame log; format in docs/STORAGE.md)
-- are folded into a `campaigns` section: per-store task/outcome/retry
counts, with warnings for failed or timed-out tasks and torn tails.  A
file there that is not a WAL store is skipped with a warning.

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
import struct
import sys
import zlib


def load(path):
    with open(path) as f:
        data = json.load(f)
    for key in ("bench", "smoke", "config_hash", "cases"):
        if key not in data:
            raise ValueError(f"{path}: missing key {key!r}")
    return data


def _empty_campaign_summary(path):
    return {
        "store": path,
        "campaign": None,
        "spec_hash": None,
        "tasks": 0,
        "ok": 0,
        "failed": 0,
        "timeout": 0,
        "retries": 0,
        "torn_tail": False,
    }


def _wal_str(buf, off):
    if off + 4 > len(buf):
        raise ValueError("truncated string")
    (n,) = struct.unpack_from("<I", buf, off)
    off += 4
    if off + n > len(buf):
        raise ValueError("truncated string")
    return buf[off:off + n].decode("utf-8", "replace"), off + n


def _wal_task(payload):
    """Decode a type-2 (task) frame payload into a record dict."""
    idx, = struct.unpack_from("<Q", payload, 1)
    key, off = _wal_str(payload, 9)
    outcome, off = _wal_str(payload, off)
    attempts, = struct.unpack_from("<I", payload, off)
    off += 12  # u32 attempts + f64 duration_seconds
    error, off = _wal_str(payload, off)
    return {"task_index": idx, "key": key, "outcome": outcome,
            "attempts": attempts, "error": error}


def _wal_bytes(buf, off):
    (n,) = struct.unpack_from("<I", buf, off)
    off += 4
    if off + n > len(buf):
        raise ValueError("truncated entry")
    return buf[off:off + n], off + n


def _load_snapshot_tasks(snap_path):
    """Records from a <store>.snap file ("QSNP" | body | crc32(body))."""
    with open(snap_path, "rb") as f:
        raw = f.read()
    if raw[:4] != b"QSNP" or len(raw) < 8:
        raise ValueError(f"{snap_path}: not a snapshot")
    body, crc = raw[4:-4], struct.unpack("<I", raw[-4:])[0]
    if zlib.crc32(body) != crc:
        raise ValueError(f"{snap_path}: checksum mismatch")
    off = 4 + 8 + 8  # u32 version, u64 generation, u64 spec_hash
    _name, off = _wal_str(body, off)
    _spec, off = _wal_str(body, off)
    count, = struct.unpack_from("<Q", body, off)
    off += 8
    tasks = []
    for _ in range(count):
        entry, off = _wal_bytes(body, off)
        tasks.append(_wal_task(b"\x02" + entry))
    return tasks


def load_campaign(path):
    """Parse one binary WAL store (docs/STORAGE.md) into a summary dict.

    Mirrors campaign::load_store: a file that does not start with the WAL
    magic is an error, and a bare magic prefix is an empty store; the log's
    valid prefix ends at the first frame with a bad length or checksum
    (torn tail); a compacted store's records come from <path>.snap plus the
    replayed tail; later records for a key win.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != b"QWAL"[:len(raw)]:
        raise ValueError("not a WAL store")
    summary = _empty_campaign_summary(path)
    summary["torn_tail"] = 0 < len(raw) < 4
    by_key = {}
    off, header_seen, base_records = 4, False, 0
    while off < len(raw):
        if off + 8 > len(raw):
            summary["torn_tail"] = True
            break
        length, crc = struct.unpack_from("<II", raw, off)
        payload = raw[off + 8:off + 8 + length]
        if length == 0 or len(payload) < length or zlib.crc32(payload) != crc:
            summary["torn_tail"] = True
            break
        off += 8 + length
        if payload[0] == 1 and not header_seen:
            header_seen = True
            _ver, _gen, base_records, spec_hash = struct.unpack_from(
                "<IQQQ", payload, 1)
            summary["campaign"], _ = _wal_str(payload, 29)
            summary["spec_hash"] = f"{spec_hash:016x}"
        elif payload[0] == 2:
            rec = _wal_task(payload)
            by_key[rec["key"]] = rec
    if base_records > 0:
        snap_tasks = _load_snapshot_tasks(path + ".snap")
        merged = {rec["key"]: rec for rec in snap_tasks}
        merged.update(by_key)
        by_key = merged
    for rec in by_key.values():
        summary["tasks"] += 1
        outcome = rec["outcome"]
        key = outcome if outcome in ("ok", "failed", "timeout") else "failed"
        summary[key] += 1
        summary["retries"] += max(0, rec["attempts"] - 1)
    return summary


def collect_campaigns(root):
    paths = sorted(
        glob.glob(os.path.join(root, "*.results.qws"))
        + glob.glob(os.path.join(root, "campaign_*", "results.qws")))
    summaries, warnings = [], []
    for path in paths:
        try:
            summaries.append(load_campaign(path))
        except (ValueError, OSError, struct.error) as e:
            warnings.append(f"skipping campaign store {path}: {e}")
            continue
        s = summaries[-1]
        if s["failed"] or s["timeout"]:
            warnings.append(
                f"{path}: {s['failed']} failed, {s['timeout']} timed-out "
                f"task(s)")
        if s["torn_tail"]:
            warnings.append(f"{path}: torn tail (killed mid-append)")
    return summaries, warnings


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
    campaigns, campaign_warnings = collect_campaigns(args.dir)
    if not paths and not campaigns:
        print(f"bench_summary: no BENCH_*.json under {args.dir}",
              file=sys.stderr)
        return 1

    benches, warnings = [], list(campaign_warnings)
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
        "campaigns": campaigns,
        "campaign_tasks": {
            "tasks": sum(c["tasks"] for c in campaigns),
            "ok": sum(c["ok"] for c in campaigns),
            "failed": sum(c["failed"] for c in campaigns),
            "timeout": sum(c["timeout"] for c in campaigns),
            "retries": sum(c["retries"] for c in campaigns),
        },
        "files": benches,
    }
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")

    print(f"bench_summary: {len(benches)} files, {total_cases} cases, "
          f"{len(campaigns)} campaign store(s) -> {args.out}")
    for c in campaigns:
        print(f"  campaign {c['campaign'] or '?'}: {c['tasks']} tasks "
              f"({c['ok']} ok, {c['failed']} failed, {c['timeout']} timeout, "
              f"{c['retries']} retries)")
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
