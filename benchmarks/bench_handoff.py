"""Scheduler handoff cost, with and without ``SCHED_BATCH``, pinned and not.

Each simulated thread is a real OS thread, and ``Scheduler.yield_point``
hands the processor to the next one by releasing its lock and parking on
its own. This microbenchmark times that handoff alone: four threads
under round robin, so every yield is a switch, and nothing else runs.

Four arms, each in a fresh interpreter:

* ``pinned`` — the process is restricted to one CPU, so the releasing
  and the woken thread share it (what ``taskset -c N`` and the
  ``perfbench`` workloads do);
* ``unpinned`` — the process may use every CPU it is allowed;
* ``batch`` — the simulated threads run under ``SCHED_BATCH`` (what the
  scheduler does on Linux);
* ``default`` — the same run with the policy call replaced by a no-op.

The arms are interleaved round by round, so a slow spell of the host
hits all of them alike. Reported per arm: the median microseconds per
handoff, and the spread (min, max, interquartile range) over the rounds.

Run standalone: ``cd benchmarks && PYTHONPATH=../src python
bench_handoff.py`` (writes ``results/handoff.txt``).
"""

import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time

from conftest import emit

THREADS = 4
YIELDS_PER_THREAD = 5000
ROUNDS = 9
QUICK_ROUNDS = 3
ARMS = (("pinned", "batch"), ("pinned", "default"),
        ("unpinned", "batch"), ("unpinned", "default"))


def time_handoffs(batch):
    """Microseconds per handoff for one run in this process."""
    from repro.runtime import RoundRobinPolicy, Scheduler
    from repro.runtime import thread as thread_module

    if not batch:
        thread_module._batch_scheduling = lambda: None
    scheduler = Scheduler(RoundRobinPolicy(),
                          max_steps=THREADS * YIELDS_PER_THREAD + 1)

    def worker():
        for _ in range(YIELDS_PER_THREAD):
            scheduler.yield_point()

    for _ in range(THREADS):
        scheduler.spawn(worker)
    start = time.perf_counter()
    outcome = scheduler.run()
    elapsed = time.perf_counter() - start
    assert outcome.ok, outcome
    return 1e6 * elapsed / outcome.steps


def child(placement, policy):
    if placement == "pinned":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(json.dumps(time_handoffs(policy == "batch")))


def run_arm(placement, policy):
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ,
               PYTHONPATH=os.path.normpath(os.path.join(here, "..", "src")))
    out = subprocess.run([sys.executable, os.path.abspath(__file__),
                          "--child", placement, policy],
                         env=env, capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def host_record():
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"cores": multiprocessing.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "commit": commit}


def run_handoff(rounds=ROUNDS):
    samples = {arm: [] for arm in ARMS}
    for _ in range(rounds):
        for arm in ARMS:
            samples[arm].append(run_arm(*arm))
    rows = []
    for (placement, policy), values in samples.items():
        quartiles = statistics.quantiles(values, n=4)
        rows.append({"placement": placement, "policy": policy,
                     "median_us": statistics.median(values),
                     "min_us": min(values), "max_us": max(values),
                     "iqr_us": quartiles[2] - quartiles[0]})
    return rows


def render(rows, rounds):
    host = host_record()
    lines = ["Scheduler handoff cost (%d threads x %d yields, round robin; "
             "median and spread over %d interleaved rounds)"
             % (THREADS, YIELDS_PER_THREAD, rounds),
             "host: %d cores, affinity %s, Python %s, commit %s"
             % (host["cores"], host["affinity"], host["python"],
                host["commit"]),
             "placement | policy  | median_us | min_us | max_us | iqr_us",
             "----------+---------+-----------+--------+--------+-------"]
    for row in rows:
        lines.append("%-9s | %-7s | %9.2f | %6.2f | %6.2f | %6.2f"
                     % (row["placement"], row["policy"], row["median_us"],
                        row["min_us"], row["max_us"], row["iqr_us"]))
    return "\n".join(lines)


def test_handoff(benchmark):
    rows = benchmark.pedantic(run_handoff, args=(QUICK_ROUNDS,),
                              rounds=1, iterations=1)
    emit("handoff", render(rows, QUICK_ROUNDS))
    assert all(row["median_us"] > 0 for row in rows)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(*sys.argv[2:4])
    else:
        emit("handoff", render(run_handoff(), ROUNDS))
