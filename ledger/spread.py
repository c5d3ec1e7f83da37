#!/usr/bin/env python3
"""Steadiness check of the ledger, the way the benchmark driver makes it.

Runs BENCHMARK.json's command once per seed on every workload with
`--trace 0` and prints, for each end-to-end metric, the median and the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, beside the metric's bound.  A spread should stay
below a third of the bound (`setup_s` is exempt from the spread rule).

    python3 ledger/spread.py [--runs 10] [--first-seed 1] [--workload NAME]...

Run from the repository root.  Exits 1 if a run fails or a spread exceeds
its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    arguments = parser.parse_args()

    with open("BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    workloads = arguments.workload or [w["name"] for w in benchmark["workloads"]]
    ok = True
    for workload in workloads:
        values = {}
        started = time.monotonic()
        for seed in range(arguments.first_seed, arguments.first_seed + arguments.runs):
            command = benchmark["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(benchmark["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit code {done.returncode}")
                ok = False
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            ok &= result["correct"] and result["failed"] == 0
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {(time.monotonic() - started) / arguments.runs:.1f} s a run", flush=True)
        for metric in benchmark["end_to_end"]:
            samples = values.get(metric["name"], [])
            if len(samples) < 2:
                continue
            q1, median, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / median
            verdict = "ok"
            if metric["name"] != "setup_s":
                if spread > metric["bound"]:
                    verdict, ok = "OVER THE BOUND", False
                elif spread > metric["bound"] / 3:
                    verdict = "over a third of the bound"
            print(
                f"{workload:<16} {metric['name']:<24} median {median:>12.4f} {metric['unit']:<6}"
                f" spread {spread:7.2%}  bound {metric['bound']:.0%}  {verdict}",
                flush=True,
            )
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
