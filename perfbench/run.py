#!/usr/bin/env python3
"""Repository benchmark: builds the harness from source and runs one workload.

    python3 perfbench/run.py --workload campaign|search|serve|fused_campaign|all
                             [--seed N] [--seconds S] [--trace 0|1]

Untraced runs (--trace 0) report the end-to-end metrics BENCHMARK.json
lists; traced runs (--trace 1) report its per-layer metrics, write every span
to .bench_build/perfbench-out/ and print per-layer self time. Every metric is
printed by name and unit; the last stdout line is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is non-zero when
the build fails or any output check fails.

Output checks live in the harness (bit-identity against sim::simulate, the
store, and across rounds); this script adds the pinned outputs for the
default seed (expected.json) and the check that every metric BENCHMARK.json
names was emitted with its unit.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
WORK = ROOT / ".bench_build" / "perfbench-work"
WORKLOADS = ["campaign", "search", "serve", "fused_campaign"]
DEFAULT_SEED = 42


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; returns its path or None."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build failed: " + " ".join(step))
            return None
    return BUILD / "perfbench_harness"


def self_times(spans):
    """Per-span-name self time (ms): duration minus its children's union."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    totals = {}
    for s in spans:
        start, end = s["start_us"], s["end_us"]
        covered, reach = 0.0, start
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_us"]):
            lo, hi = max(c["start_us"], reach), min(c["end_us"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        entry = totals.setdefault(s["name"], [0.0, 0])
        entry[0] += (end - start - covered) / 1e3
        entry[1] += 1
    return totals


def check_pins(record, expected):
    """Compares the default seed's deterministic outputs to expected.json."""
    if record["seed"] != expected.get("seed"):
        return
    want = expected.get("pins", {}).get(record["scale"], {}).get(record["workload"])
    if want is None:
        record["checks"].append({"name": "expected outputs pinned for the default seed",
                                 "ok": False, "detail": "no entry in expected file"})
        return
    for key, value in sorted(want.items()):
        got = record["pins"].get(key)
        record["checks"].append({"name": f"default-seed {key} matches expected",
                                 "ok": got == value,
                                 "detail": f"got {got}, expected {value}"})


def check_metric_names(record, names):
    """Every metric BENCHMARK.json names is emitted, with its unit, and no other."""
    emitted = record["metrics"]
    missing = [n for n in names if n not in emitted]
    wrong_unit = [n for n in names if n in emitted and emitted[n]["unit"] != names[n]]
    unknown = sorted(set(emitted) - set(names))
    nonfinite = [n for n, m in emitted.items() if m["value"] is None]
    record["checks"].append({
        "name": "every BENCHMARK.json metric emitted with its unit",
        "ok": not (missing or wrong_unit or unknown or nonfinite),
        "detail": f"missing {missing}, wrong unit {wrong_unit}, "
                  f"unlisted {unknown}, non-finite {nonfinite}"})


def print_report(record, self_ms):
    print(f"== perfbench {record['workload']} (seed {record['seed']}, "
          f"scale {record['scale']}, trace {record['trace']})")
    print(f"why: {record['why']}")
    fp = record["fingerprint"]
    print(f"machine: {fp['cpu']}, nproc {fp['nproc']}, {fp['compiler']}, "
          f"{fp['build_type']}")
    print("settings: " + ", ".join(f"{k}={v}" for k, v in record["settings"].items()))
    for name, m in sorted(record["metrics"].items()):
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    for name, m in sorted(record["extras"].items()):
        print(f"  + {name:<26} {m['value']:>16.6g} {m['unit']}")
    if self_ms:
        print("self time by span (ms, count):")
        for name, (ms, count) in sorted(self_ms.items(), key=lambda kv: -kv[1][0]):
            print(f"  {name:<28} {ms:>12.3f} {count:>8}")
    failed_pct = 100.0 * record["failed"] / max(1, record["attempted"])
    print(f"ops: {record['attempted']} attempted, {record['failed']} failed "
          f"(failed_ops_pct {failed_pct:.4f} %)")
    for c in record["checks"]:
        print(f"[check] {'PASS' if c['ok'] else 'FAIL'}: {c['name']}"
              + (f" ({c['detail']})" if c["detail"] else ""))
    if record["error"]:
        print(f"[check] FAIL: workload raised: {record['error']}")


def run_workload(harness, workload, args, bench, expected):
    """Runs one workload; returns its record (None when the harness died)."""
    WORK.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT / f"{stem}-spans.json"
    cmd = [str(harness), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale,
           "--work-dir", os.path.relpath(WORK / workload, ROOT),
           "--spans", str(spans_path)]
    env = {k: v for k, v in os.environ.items() if not k.startswith("ADSE_")}
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(170, 3 * args.seconds + 60))
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} timed out")
        return None
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"perfbench: {workload} produced no record (exit {done.returncode})")
        return None

    check_pins(record, expected)
    key = "per_layer" if args.trace else "end_to_end"
    check_metric_names(record, {m["name"]: m["unit"] for m in bench[key]})
    self_ms = {}
    if args.trace and spans_path.exists():
        self_ms = self_times(json.loads(spans_path.read_text()))
        record["self_ms"] = {k: v[0] for k, v in self_ms.items()}
    record["correct"] = (done.returncode == 0 and not record["error"]
                         and all(c["ok"] for c in record["checks"]))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print_report(record, self_ms)
    return record


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny: seconds-scale sizes for the benchmark's own tests")
    parser.add_argument("--expected", default=str(HERE / "expected.json"),
                        help="pinned default-seed outputs")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    expected = json.loads(Path(args.expected).read_text())

    started = time.time()
    harness = build()
    if harness is None or not harness.exists():
        return 1
    log(f"perfbench: build ready in {time.time() - started:.1f}s")

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    records = [run_workload(harness, w, args, bench, expected) for w in workloads]
    if any(r is None for r in records):
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in r["metrics"].items()}
    result = {"correct": all(r["correct"] for r in records),
              "attempted": sum(r["attempted"] for r in records),
              "failed": sum(r["failed"] for r in records),
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
