#!/usr/bin/env python3
"""qelect's end-to-end benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a qelect checkout.  The first run builds the qelect
libraries, qelectd and the probe from source (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench without it.

Workloads:
  landscape    the built-in landscape campaign at 4 shards
  elect-sweep  ELECT on rings 6-14 and Q3, many counter seeds, 4 shards
  fault-sweep  the built-in degradation spec with more color seeds, 4 shards
  serve-mix    qelectd --workers 2 under an open-loop generator

--trace 0 repeats the workload in fresh processes for --seconds and prints
the end-to-end metrics (medians over the repetitions).  --trace 1 runs the
traced ledger instead and prints every per-layer metric.  Either way the
outputs are checked first; a wrong answer exits 1 without printing a
result.  The last line of stdout is the result as one JSON object.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave the checkout as it was

import ledger  # noqa: E402

SERVE = "serve-mix"  # every other workload is a campaign
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")

# serve-mix offered load: below what two workers sustain.  Each
# repetition costs about SERVE_REP_OVERHEAD_S besides its timed phase
# (daemon start, warm pass, drain, response checks).
SERVE_RATE = 8000
SERVE_REPS = 4
SERVE_REP_OVERHEAD_S = 1.7

PINS_PATH = os.path.join(HERE, "pins.json")
PROBE_TIMEOUT_S = 150


class CheckFailed(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    """BENCHMARK.json's workload names and its end-to-end and per-layer
    metrics as (name, unit) lists."""
    with open(BENCHMARK_PATH) as f:
        bench = json.load(f)
    return {
        "workloads": [w["name"] for w in bench["workloads"]],
        "end_to_end": [(m["name"], m["unit"]) for m in bench["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in bench["per_layer"]],
    }


# ---- build -------------------------------------------------------------------

def target_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or os.path.join(ROOT, ".bench_build"))


def build():
    """Configures and builds the probe and qelectd; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise CheckFailed(f"no qelect sources under {ROOT}: run from a checkout")
    bdir = os.path.join(target_root(), "perfbench")
    os.makedirs(bdir, exist_ok=True)
    logfile = os.path.join(bdir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "-j", jobs,
              "--target", "perfbench_probe", "qelectd"]]
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                with open(logfile) as f:
                    log(f.read()[-4000:])
                raise CheckFailed("build failed: " + " ".join(cmd))
    return bdir


# ---- probe calls --------------------------------------------------------------

class Probe:
    def __init__(self, bdir, scratch, size):
        self.exe = os.path.join(bdir, "perfbench_probe")
        self.qelectd = os.path.join(bdir, "tools", "qelectd")
        self.scratch = scratch
        self.size = size
        self.calls = 0

    def run(self, cmd, *flags):
        """Runs one subcommand in a fresh process; returns its JSON.  The
        probe gets a process group of its own, so a timeout also stops
        the qelectd it may have started."""
        self.calls += 1
        argv = [self.exe, cmd, "--size", self.size] + [str(f) for f in flags]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise CheckFailed(f"{cmd} did not finish in {PROBE_TIMEOUT_S} s")
        if proc.returncode != 0:
            raise CheckFailed(f"{cmd} exited {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def scratch_dir(self, name):
        return os.path.join(self.scratch, f"{name}-{self.calls}")


# ---- output checks ------------------------------------------------------------

def load_pins():
    with open(PINS_PATH) as f:
        return json.load(f)


def expected_totals(pins, workload, size, variant):
    """The pinned totals of a workload's input variant.  The landscape has
    one input; its full-size class histogram is EXPERIMENTS.md § LAND."""
    key = "any" if workload == "landscape" else str(variant)
    return pins[workload][size][key]


def check_totals(workload, size, variant, totals, pins):
    """Compares a campaign run's output totals with the pinned ones."""
    want = expected_totals(pins, workload, size, variant)
    fields = ["tasks", "ok", "not_ok", "outcomes"]
    if workload == "landscape":
        fields.append("classes")
    if workload == "elect-sweep":
        fields += ["moves", "steps"]
        if totals["oracle_mismatches"] != 0:
            raise CheckFailed(f"{totals['oracle_mismatches']} elect-sweep "
                              "records do not match the oracle")
    for field in fields:
        if totals[field] != want[field]:
            raise CheckFailed(f"{workload} {field} = {totals[field]}, "
                              f"pinned {want[field]}")


def pin_of(totals):
    return {k: totals[k] for k in
            ("tasks", "ok", "not_ok", "outcomes", "moves", "steps", "classes")}


# ---- untraced runs -------------------------------------------------------------

def run_campaign_reps(probe, workload, seed, seconds, pins):
    """Repeats the 4-shard engine run in fresh processes for `seconds`."""
    min_reps = 1 if probe.size == "small" else 3
    reps = []
    deadline = time.monotonic() + seconds
    while len(reps) < min_reps or time.monotonic() < deadline:
        rep = probe.run("campaign", "--workload", workload, "--seed", seed,
                      "--shards", 4, "--dir", probe.scratch_dir(workload))
        check_totals(workload, probe.size, rep["variant"], rep["totals"], pins)
        reps.append(rep)
    metrics = {
        "setup_s": median([r["setup_s"] for r in reps]),
        "cpu_us_per_op": median([r["cpu_s"] / r["executed"] * 1e6 for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mib"] for r in reps]),
        "ok_share": median([r["totals"]["ok"] / r["totals"]["tasks"] for r in reps]),
    }
    info = {
        "reps": len(reps),
        "host.steal_share": median([r["steal_share"] for r in reps]),
        "campaign.throughput_per_s": median([r["executed"] / r["run_s"]
                                             for r in reps]),
        "store_syncs_elided": any(r["syncs_elided"] for r in reps),
    }
    attempted = sum(r["totals"]["tasks"] for r in reps)
    return metrics, info, attempted, 0


def serve_phase_seconds(seconds, size):
    """The timed phase of one serve-mix repetition, so that SERVE_REPS
    repetitions fill `seconds`."""
    if size == "small":
        return 0.5
    return max(1.0, seconds / SERVE_REPS - SERVE_REP_OVERHEAD_S)


def check_serve(report):
    """A wrong answer fails the run.  A request the drain deadline cut off
    is not wrong; it counts against ok_share and in `failed`."""
    if report["failed"]:
        raise CheckFailed(f"serve-mix: {report['failed']} wrong answers; "
                          f"first: {report['first_failure']}")


def serve_end_to_end(report):
    """The end-to-end metrics of an untraced serve-mix report, the info
    line's values, and the attempted and failed counts."""
    check_serve(report)
    rs = report["reps"]
    metrics = {
        # qelectd's CPU from exec to the end of the warm pass.
        "setup_s": median([r["setup_cpu_s"] for r in rs]),
        "cpu_us_per_op": median([r["cpu_s"] / r["answered"] * 1e6 for r in rs]),
        "peak_rss_mb": median([r["peak_rss_mib"] for r in rs]),
        "ok_share": (sum(r["answered"] for r in rs)
                     / sum(r["requests"] for r in rs)),
    }
    read = [v for r in rs for v in r["latency"]["read_us"]]
    elect = [v for r in rs for v in r["latency"]["elect_us"]]
    late = [v for r in rs for v in r["latency"]["late_us"]]
    info = {
        "reps": len(rs),
        "host.steal_share": median([r["steal_share"] for r in rs]),
        "serve.setup_wall_s": median([r["setup_wall_s"] for r in rs]),
        "serve.achieved_rps": median([r["answered"] / r["phase_s"] for r in rs]),
        "serve.generator_late_ms_p99": ledger.percentile(late, 99) / 1000,
        "serve.read_p50_ms": ledger.percentile(read, 50) / 1000,
        "serve.read_p99_ms": ledger.percentile(read, 99) / 1000,
        "serve.elect_p50_ms": ledger.percentile(elect, 50) / 1000,
        "serve.elect_p99_ms": ledger.percentile(elect, 99) / 1000,
    }
    return metrics, info, report["attempted"], report["unanswered"]


def run_serve(probe, seed, seconds):
    reps = SERVE_REPS if probe.size == "full" else 1
    report = probe.run("serve", "--qelectd", probe.qelectd, "--seed", seed,
                     "--rate", SERVE_RATE, "--reps", reps,
                     "--phase", serve_phase_seconds(seconds, probe.size),
                     "--dir", probe.scratch_dir("serve"))
    return serve_end_to_end(report)


# ---- traced runs ----------------------------------------------------------------

def trace_dir():
    path = os.path.join(target_root(), "perfbench-traces")
    os.makedirs(path, exist_ok=True)
    return path


def traced_campaign(probe, workload, seed, pins):
    spans_path = os.path.join(trace_dir(), f"{workload}-{seed}.spans.jsonl")
    kernel_path = os.path.join(trace_dir(), f"{workload}-{seed}.kernels.jsonl")
    traced = probe.run("trace-campaign", "--workload", workload, "--seed", seed,
                     "--dir", probe.scratch_dir(workload), "--spans", spans_path)
    if not traced["records_match"]:
        raise CheckFailed(f"traced loop disagrees with run_campaign: "
                          f"{traced['mismatch']}")
    check_totals(workload, probe.size, traced["variant"], traced["totals"], pins)
    shard1 = probe.run("campaign", "--workload", workload, "--seed", seed,
                     "--shards", 1, "--dir", probe.scratch_dir(workload))
    shard4 = probe.run("campaign", "--workload", workload, "--seed", seed,
                     "--shards", 4, "--dir", probe.scratch_dir(workload))
    for rep in (shard1, shard4):
        check_totals(workload, probe.size, rep["variant"], rep["totals"], pins)
    kernels = probe.run("kernels", "--workload", workload, "--seed", seed,
                      "--spans", kernel_path)
    spans = ledger.read_spans(spans_path)
    kernel_spans = ledger.read_spans(kernel_path)
    metrics = ledger.campaign_metrics(traced, spans, shard1, shard4, kernels)
    ledger.add_self_times(metrics, kernel_spans)
    ledger.print_ledger(spans, 0.0, traced["traced_s"])
    tps1 = shard1["executed"] / shard1["run_s"]
    print(f"tracing overhead {100 * metrics['ledger.tracing_overhead']:+.1f}%: "
          f"untraced 1-shard engine {tps1:.0f} tasks/s, traced loop "
          f"{traced['tasks'] / traced['loop_s']:.0f} tasks/s")
    print(f"kernel pass: {kernels['instances']} instances in "
          f"{kernels['pass_s']:.3f} s; spans in {kernel_path}")
    attempted = traced["tasks"] + shard1["tasks"] + shard4["tasks"]
    return metrics, attempted, 0


def traced_serve(probe, seed, seconds):
    spans_path = os.path.join(trace_dir(), f"serve-mix-{seed}.spans.jsonl")
    kernel_path = os.path.join(trace_dir(), f"serve-mix-{seed}.kernels.jsonl")
    report = probe.run("serve", "--qelectd", probe.qelectd, "--seed", seed,
                     "--rate", SERVE_RATE, "--reps", 1, "--trace", 1,
                     "--phase", serve_phase_seconds(seconds, probe.size),
                     "--dir", probe.scratch_dir("serve"), "--spans", spans_path)
    check_serve(report)
    kernels = probe.run("kernels", "--workload", "serve-mix", "--seed", seed,
                      "--spans", kernel_path)
    spans = ledger.read_spans(spans_path)
    metrics = ledger.serve_metrics(report, spans, kernels)
    ledger.add_self_times(metrics, ledger.read_spans(kernel_path))
    requests = [s for s in spans if s["name"] == "client.request"]
    if requests:
        ledger.print_ledger(spans, min(s["start"] for s in requests),
                            max(s["end"] for s in requests))
    print("tracing overhead +0.0%: request spans are assembled from the "
          "generator's own timestamps after the phase")
    return metrics, report["attempted"], report["unanswered"]


# ---- main -------------------------------------------------------------------------

def per_layer_values(computed, per_layer):
    """Every per-layer metric of BENCHMARK.json, in its order.  One the run
    did not compute reads 0 (its layer is not loaded by the workload); a
    computed one BENCHMARK.json does not name is a mistake in this code."""
    unknown = sorted(set(computed) - {name for name, _ in per_layer})
    if unknown:
        raise CheckFailed(f"metrics missing from BENCHMARK.json: {unknown}")
    return {name: computed.get(name, 0.0) for name, _ in per_layer}


def result_line(metrics, units, attempted, failed):
    return json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    })


def write_pins(probe, workloads):
    """Regenerates pins.json from the current program (development aid)."""
    pins = {}
    for workload in workloads:
        if workload == SERVE:
            continue
        pins[workload] = {}
        seed, variants = 0, 1
        while seed < variants:
            rep = probe.run("campaign", "--workload", workload, "--seed", seed,
                          "--shards", 4, "--dir", probe.scratch_dir(workload))
            key = "any" if workload == "landscape" else str(rep["variant"])
            pins[workload].setdefault(probe.size, {})[key] = pin_of(rep["totals"])
            variants = 1 if workload == "landscape" else rep["variants"]
            seed += 1
    old = load_pins() if os.path.exists(PINS_PATH) else {}
    for workload, sizes in pins.items():
        old.setdefault(workload, {}).update(sizes)
    with open(PINS_PATH, "w") as f:
        json.dump(old, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv):
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=bench["workloads"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small runs the smallest inputs (self-tests)")
    parser.add_argument("--write-pins", action="store_true",
                        help="regenerate pins.json for --size and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_pins:
        parser.error("--workload is required")

    scratch = os.path.join(target_root(), "perfbench-run", str(os.getpid()))
    try:
        bdir = build()
        probe = Probe(bdir, scratch, args.size)
        if args.write_pins:
            write_pins(probe, bench["workloads"])
            return 0
        pins = load_pins()
        if args.trace:
            if args.workload == SERVE:
                computed, attempted, failed = traced_serve(
                    probe, args.seed, args.seconds)
            else:
                computed, attempted, failed = traced_campaign(
                    probe, args.workload, args.seed, pins)
            metrics = per_layer_values(computed, bench["per_layer"])
            for name, unit in bench["per_layer"]:
                print(f"{name} {metrics[name]:.6g} {unit}")
            print(result_line(metrics, bench["per_layer"], attempted, failed))
            return 0
        if args.workload == SERVE:
            metrics, info, attempted, failed = run_serve(
                probe, args.seed, args.seconds)
        else:
            metrics, info, attempted, failed = run_campaign_reps(
                probe, args.workload, args.seed, args.seconds, pins)
        print("info: " + " ".join(f"{k}={v:.6g}" if isinstance(v, float)
                                  else f"{k}={v}" for k, v in info.items()))
        print(result_line(metrics, bench["end_to_end"], attempted, failed))
        return 0
    except CheckFailed as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
