"""End-to-end checks of the benchmark: the open-loop schedule and a
smallest-size run of every workload.  These build the probe on first use
(about a minute), exactly as run.py does.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

_BUILD = []


def probe():
    if not _BUILD:
        _BUILD.append(run.build())
    return os.path.join(_BUILD[0], "perfbench_probe")


def schedule(seed, rate, seconds):
    out = subprocess.run(
        [probe(), "schedule", "--seed", str(seed), "--rate", str(rate),
         "--seconds", str(seconds)],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


class ScheduleTest(unittest.TestCase):
    def test_pure_function_of_seed_rate_and_duration(self):
        a = schedule(7, 3000, 2)
        self.assertEqual(a, schedule(7, 3000, 2))
        self.assertNotEqual(a["digest"], schedule(8, 3000, 2)["digest"])
        self.assertNotEqual(a["digest"], schedule(7, 3001, 2)["digest"])
        self.assertNotEqual(a["digest"], schedule(7, 3000, 2.5)["digest"])

    def test_poisson_rate_and_window(self):
        s = schedule(11, 4000, 3)
        # 12,000 expected requests; bursts of 8 make the count lumpier than
        # Poisson, so allow six standard deviations of the burst process.
        self.assertLess(abs(s["requests"] - 12000), 6 * (12000 * 8) ** 0.5)
        self.assertGreater(s["bursts"], 0)
        self.assertLess(s["last_due_s"], 3)
        self.assertGreaterEqual(s["first_due_s"], 0)


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--size", "small"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


class SmallRunTest(unittest.TestCase):
    """Every workload, at its smallest size, prints every metric name with
    its unit on the result line."""

    def check(self, workload, trace, units):
        probe()
        code, lines = run_bench(workload, trace)
        self.assertEqual(code, 0, lines[-5:])
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            dict(units))
        return result

    def setUp(self):
        self.bench = run.load_benchmark()

    def test_untraced(self):
        for workload in self.bench["workloads"]:
            with self.subTest(workload=workload):
                result = self.check(workload, 0, self.bench["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced(self):
        for workload in self.bench["workloads"]:
            with self.subTest(workload=workload):
                self.check(workload, 1, self.bench["per_layer"])


if __name__ == "__main__":
    unittest.main()
