#!/usr/bin/env python3
"""Self-test of the perfbench harness. Run from the repository root:

    python3 perfbench/selftest.py

Runs every workload at the tiny shape, untraced and traced, and checks that
each run passes its output checks, that every metric BENCHMARK.json names is
printed with its unit and a finite value, and that the traced run's output
digest equals the untraced one's (tracing is byte-invisible).
"""

import json
import math
import subprocess
import sys

SEED = 7


def run(workload, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
            str(SEED), "--seconds", "1", "--trace", str(trace), "--shape", "tiny"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    digests = [line.split()[1] for line in lines if line.startswith("digest ")]
    return json.loads(lines[-1]), digests


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result, digests[trace] = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            names = {m["name"]: m["unit"] for m in spec[kind]}
            if set(result["metrics"]) != set(names):
                problems.append(f"{where}: metrics {sorted(set(result['metrics']) ^ set(names))} "
                                "differ from BENCHMARK.json")
            for name, unit in names.items():
                metric = result["metrics"].get(name)
                if metric is None:
                    continue
                value = metric.get("value")
                if metric.get("unit") != unit or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    problems.append(f"{where}: {name} = {metric}")
        if not digests[0] or digests[0] != digests[1]:
            problems.append(f"{workload}: digests {digests[0]} untraced vs {digests[1]} traced")
        print(f"{workload}: ok" if not problems else f"{workload}: {len(problems)} problems so far")
    for problem in problems:
        print(f"FAIL {problem}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
