#!/usr/bin/env python3
"""CPU time and page faults of the ledger's timed child process.

    python3 bench/rusage_child.py <ledger binary> <workload> <files dir> [seconds]

Runs `ledger --child <workload> --dir <files dir> --seconds <seconds>` (the
timed phase of one ledger run: two checked warm-ups, then rounds of two
passes at P threads and one at one thread) and prints, beside the child's own
figures, its user and system seconds and minor faults (`getrusage` of the
child), per whole-file pass.

<files dir> holds a workload's prepared inputs (data.gz, data.idx,
manifest.json).  The ledger deletes them when a run ends, so copy them while
one is in its timed phase:

    target/release/ledger --workload silesia_seq --seed 22 --seconds 10 --trace 0 &
    # ... once `pgrep -f -- --child` finds the child:
    cp -r <target dir>/ledger/run-<pid of the ledger>-silesia_seq files
"""
import json
import resource
import subprocess
import sys

exe, workload, directory = sys.argv[1:4]
seconds = sys.argv[4] if len(sys.argv) > 4 else "10"
done = subprocess.run(
    [exe, "--child", workload, "--dir", directory, "--seconds", seconds],
    capture_output=True, text=True, check=True)
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
result = json.loads(done.stdout.strip().splitlines()[-1])
timed = [line for line in done.stderr.splitlines() if "threads=" in line]
passes = sum(int(line.split("n=")[1].split()[0]) for line in timed) + 2  # + the warm-ups
cpu = usage.ru_utime + usage.ru_stime
print(done.stderr.strip())
print(f"{workload}: {result['throughput_mb_s']:.1f} MB/s at P, {result['throughput_p1_mb_s']:.1f} at one thread, "
      f"peak heap {result['peak_heap_mb']:.1f} MB, {result['failed']} failed | "
      f"user {usage.ru_utime:.2f} s, system {usage.ru_stime:.2f} s ({100 * usage.ru_stime / cpu:.1f} % of CPU), "
      f"{usage.ru_minflt} minor faults = {usage.ru_minflt / passes / 1000:.1f} k per pass over {passes} passes")
