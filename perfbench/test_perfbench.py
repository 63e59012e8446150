#!/usr/bin/env python3
"""The benchmark's own tests, at tiny scale (about two minutes with a warm build).

    python3 perfbench/test_perfbench.py

1. Every workload, untraced and traced, emits every metric BENCHMARK.json
   names, with its unit, prints it by name, and passes its output checks.
2. A perturbed expected digest for the default seed makes the run fail.
3. The pinned outputs do not depend on the number of worker threads.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(*args):
    done = subprocess.run(RUN + ["--scale", "tiny", "--seconds", "1", *args],
                          cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, (json.loads(lines[-1]) if lines else None)


class MetricsEmitted(unittest.TestCase):
    def check_all(self, trace, key):
        code, lines, result = run("--workload", "all", "--trace", str(trace))
        self.assertEqual(code, 0, "\n".join(lines[-40:]))
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        text = "\n".join(lines)
        for workload in WORKLOADS:
            for metric in BENCH[key]:
                name = f"{workload}.{metric['name']}"
                self.assertIn(name, result["metrics"])
                self.assertEqual(result["metrics"][name]["unit"], metric["unit"])
                self.assertIsInstance(result["metrics"][name]["value"], float | int)
                self.assertRegex(text, rf"\n  {metric['name']} +\S+ {metric['unit']}\n")
        return text

    def test_untraced_runs_emit_end_to_end_metrics(self):
        self.check_all(0, "end_to_end")

    def test_traced_runs_emit_per_layer_metrics_and_spans(self):
        text = self.check_all(1, "per_layer")
        self.assertIn("self time by span", text)
        for workload in WORKLOADS:
            spans = ROOT / ".bench_build" / "perfbench-out" / f"{workload}-seed42-trace1-spans.json"
            records = json.loads(spans.read_text())
            self.assertTrue(records)
            self.assertTrue(all(s["end_us"] >= s["start_us"] for s in records))


class PinsBite(unittest.TestCase):
    def test_pins_do_not_depend_on_thread_count(self):
        code, lines, _ = run("--workload", "search")  # builds the harness
        self.assertEqual(code, 0, "\n".join(lines[-20:]))
        harness = ROOT / ".bench_build" / "perfbench" / "perfbench_harness"
        expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
        for workload in WORKLOADS:
            done = subprocess.run(
                [str(harness), "--workload", workload, "--seed", str(expected["seed"]),
                 "--seconds", "1", "--trace", "0", "--scale", "tiny", "--threads", "1",
                 "--work-dir", ".bench_build/perfbench-work/threads1"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
            record = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertTrue(record["correct"], workload)
            self.assertEqual(record["pins"], expected["pins"]["tiny"][workload])

    def test_perturbed_expected_digest_fails_the_run(self):
        expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
        pins = expected["pins"]["tiny"]["campaign"]
        pins["cycle_digest"] = format(int(pins["cycle_digest"], 16) ^ 1, "016x")
        path = ROOT / ".bench_build" / "perfbench-test-expected.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(expected))
        code, lines, result = run("--workload", "campaign", "--expected", str(path))
        path.unlink()
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertIn("[check] FAIL: default-seed cycle_digest matches expected",
                      "\n".join(lines))


if __name__ == "__main__":
    unittest.main()
