#!/usr/bin/env python3
"""CPU time and page faults of a process: the ledger's timed child, or any
command run N times.

    python3 bench/rusage_child.py <ledger binary> <workload> <files dir> [seconds]
    python3 bench/rusage_child.py --repeat N -- <command> [arguments...]

The first form runs `ledger --child <workload> --dir <files dir> --seconds
<seconds>` (the timed phase of one ledger run: two checked warm-ups, then
rounds of two passes at P threads and one at one thread) and prints, beside
the child's own figures, its user and system seconds and minor faults
(`getrusage` of the child), per whole-file pass.

<files dir> holds a workload's prepared inputs (data.gz, data.idx,
manifest.json).  The ledger deletes them when a run ends, so copy them while
one is in its timed phase:

    target/release/ledger --workload silesia_seq --seed 22 --seconds 10 --trace 0 &
    # ... once `pgrep -f -- --child` finds the child:
    cp -r <target dir>/ledger/run-<pid of the ledger>-silesia_seq files

The second form needs no ledger run: it runs the command N times, one after
another, with its output thrown away, and prints the median of each run's
wall seconds, user and system seconds, minor faults (`wait4` of each run) and
peak resident set, and the quartiles of the wall time.  The peak is the
`VmHWM` of `/proc/<pid>/status`, read every 10 ms until the run ends, not
`wait4`'s `ru_maxrss`: a child inherits the high-water mark of the process
that forked it, this script's Python interpreter, some 14 MiB.

    python3 bench/rusage_child.py --repeat 9 -- target/release/rgz -d -P 2 -o /dev/null file.gz
"""
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time


def quartiles(values):
    """The first quartile, the median and the third quartile of `values`."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def high_water_kib(pid):
    """The peak resident set of a running process so far, in KiB; 0 once it
    has exited."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_once(command):
    """Runs `command` once: its wall, user and system seconds, minor faults
    and peak resident set in MiB."""
    start = time.perf_counter()
    # Popen returns once the command has been exec'd.
    child = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    ended = {}

    def reap():
        ended["wait4"] = os.wait4(child.pid, 0)
        ended["wall"] = time.perf_counter() - start

    reaper = threading.Thread(target=reap)
    reaper.start()
    peak_kib = 0
    while reaper.is_alive():
        peak_kib = max(peak_kib, high_water_kib(child.pid))
        reaper.join(0.01)
    _, status, usage = ended["wait4"]
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        sys.exit(f"{' '.join(command)} exited with {child.returncode}")
    return ended["wall"], usage.ru_utime, usage.ru_stime, usage.ru_minflt, peak_kib / 1024


def repeat(count, command):
    runs = [run_once(command) for _ in range(count)]
    wall, user, system, faults, rss = (statistics.median(column) for column in zip(*runs))
    low, _, high = quartiles([run[0] for run in runs])
    print(f"{' '.join(command)}: median of {count} runs: wall {wall:.3f} s "
          f"(quartiles {low:.3f}-{high:.3f}), user {user:.3f} s, system {system:.3f} s, "
          f"{faults / 1000:.1f} k minor faults, peak RSS {rss:.1f} MiB")


def ledger_child(exe, workload, directory, seconds):
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


if len(sys.argv) > 3 and sys.argv[1] == "--repeat" and sys.argv[3] == "--":
    repeat(int(sys.argv[2]), sys.argv[4:])
elif len(sys.argv) in (4, 5):
    ledger_child(*sys.argv[1:4], sys.argv[4] if len(sys.argv) > 4 else "10")
else:
    sys.exit(__doc__)
