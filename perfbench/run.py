"""The repository benchmark: one command per workload run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fuzz-matrix --seed 0 \
        --seconds 45 --trace 0

Each run pins its workload processes to one CPU of the allowed set and
starts every one of them as a fresh interpreter (``workloads.py``):

1. the main process, one closed-loop client calling the program through
   its public entry points and waiting for each call;
2. with ``--trace 0``, before it: ``SETUP_PROBES`` set-up probes, each
   stopping when its first campaign or replay begins (``setup_s`` is
   the median of their set-up times and the main process's own), and a
   recheck process that repeats the workload's cheap slices and must
   reproduce their fingerprints. The main process then measures for
   the rest of ``--seconds``;
3. with ``--trace 1``: a traced copy of the main process's first round,
   which must reproduce every fingerprint of the untraced one and gives
   the per-layer split (``spans.py``) and the tracing overhead. The
   untraced result comes from an earlier run of the same program,
   benchmark and seed in this checkout when there is one.

It prints the host record, every metric with its unit, the correctness
checks, and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every workload works on pinned inputs, so that two commits are measured
on identical work; ``--seed`` is the workload processes' hash seed
(``README.md``, "Seeds"). ``triage`` and ``durable`` repeat their rounds
for ``--seconds``; ``fuzz-matrix`` is fixed work that takes 45-70 s.
The whole run is cut, and fails, after ``RUN_BUDGET_S``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, ".out")

SETUP_PROBES = 6
RUN_BUDGET_S = 170

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "campaigns_per_s": "1/s",
    "detect_s": "s",
    "bugs_detected": "count",
    "triage_s": "s",
    "replay_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run (missing program, child failure)."""


def tree_digest(top):
    """SHA-1 over the files under ``top`` (the checkout under test is
    not always a git repository, so this stands in for the commit)."""
    digest = hashlib.sha1()
    for directory, dirs, files in os.walk(top):
        dirs[:] = sorted(d for d in dirs if d not in ("__pycache__", ".out"))
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, top).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def host_record(args, cpu):
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "cpu_count": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)), "pinned_cpu": cpu,
            "python": platform.python_version(), "commit": git_commit(),
            "source_sha1": tree_digest(os.path.join(SRC, "repro")),
            "benchmark_sha1": tree_digest(BENCH)}


def spawn(args, cpu, mode, deadline, trace=False, measure_s=0.0):
    """Run one workload process to completion; ``(spawned_at, result)``."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run budget of %d s exhausted before the %s "
                         "process" % (RUN_BUDGET_S, mode))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # The seed is the interpreter's hash seed; the recheck runs with
    # another one, so equal fingerprints also show hash independence.
    env["PYTHONHASHSEED"] = str((args.seed + (mode == "recheck"))
                                % 2 ** 32)
    command = [sys.executable, os.path.join(BENCH, "workloads.py"),
               "--workload", args.workload,
               "--cpu", str(cpu), "--mode", mode,
               "--workdir", os.path.join(OUT, "work-%d" % os.getpid()),
               "--measure-s", "%.3f" % measure_s]
    if trace:
        command += ["--rounds", "1", "--trace-out", os.path.join(
            OUT, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    spawned_at = time.time()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("%s process exceeded the time budget" % mode)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s process exited with %d" % (mode,
                                                        proc.returncode))
    result = json.loads(lines[-1])
    if result["affinity"] != [cpu]:
        raise BenchError("%s process ran on CPUs %s, not pinned to %d"
                         % (mode, result["affinity"], cpu))
    return spawned_at, result


def setup_seconds(spawned_at, result):
    if result["first_begin"] is None:
        raise BenchError("a workload process never began a campaign")
    return result["first_begin"] - spawned_at


def run(args):
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError("no program to measure: %s/repro is missing"
                         % SRC)
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    os.makedirs(OUT, exist_ok=True)
    cpu = sorted(os.sched_getaffinity(0))[-1]
    host = host_record(args, cpu)
    print("host: %s" % json.dumps(host, sort_keys=True), flush=True)

    # The untraced main result of this program, benchmark and seed is
    # kept, so a traced run compares against it instead of repeating it.
    cached = os.path.join(OUT, "untraced-%s.json" % hashlib.sha1(
        json.dumps([host["source_sha1"], host["benchmark_sha1"],
                    args.workload, args.seed]).encode()).hexdigest())
    setups, recheck = [], None
    if not args.trace:
        setups = [setup_seconds(*spawn(args, cpu, "probe", deadline))
                  for _ in range(SETUP_PROBES)]
        _, recheck = spawn(args, cpu, "recheck", deadline)
    if args.trace and os.path.exists(cached):
        with open(cached) as handle:
            untraced = json.load(handle)
    else:
        spawned_at, untraced = spawn(
            args, cpu, "main", deadline,
            measure_s=args.seconds - (time.monotonic() - started))
        with open(cached, "w") as handle:
            json.dump(untraced, handle)
    checks = [tuple(check) for check in untraced["checks"]]
    if args.trace:
        _, traced = spawn(args, cpu, "main", deadline, trace=True)
        same = traced["fingerprints"] == untraced["fingerprints"]
        checks.append(("traced run reproduces the untraced fingerprints",
                       same, "%d fingerprints"
                       % len(untraced["fingerprints"])))
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in traced["layers"].items()}
        # The tail of the replay times is mostly the host's slow spells,
        # so it is reported here, beside the layers, and not gated.
        metrics["replay.p90_s"] = {
            "value": traced["metrics"]["replay_p90_s"], "unit": "s"}
        metrics["trace.overhead_ratio"] = {
            "value": traced["round_s"] / untraced["round_s"] - 1.0,
            "unit": "ratio"}
    else:
        setups.append(setup_seconds(spawned_at, untraced))
        for key, fingerprint in sorted(recheck["fingerprints"].items()):
            same = untraced["fingerprints"].get(key) == fingerprint
            checks.append(("same seed, same fingerprint: %s" % key, same,
                           "equal" if same else "differs"))
        values = dict(untraced["metrics"],
                      setup_s=statistics.median(setups),
                      peak_rss_mb=untraced["peak_rss_mb"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    for name in sorted(metrics):
        print("%-40s %14.6g %s" % (name, metrics[name]["value"],
                                   metrics[name]["unit"]))
    attempted, failed = untraced["attempted"], untraced["failed"]
    print("%-40s %14.6g ratio (%d of %d operations)"
          % ("failed_share", failed / attempted if attempted else 0.0,
             failed, attempted))
    for failure in untraced["failures"]:
        print("failed: %s" % failure)
    for name, ok, detail in checks:
        print("check %s: %s (%s)" % ("ok" if ok else "FAILED", name,
                                     detail))
    summary = {"correct": all(ok for _, ok, _ in checks),
               "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, "runs.jsonl"), "a") as handle:
        handle.write(json.dumps(dict(summary, host=host,
                                     trace=bool(args.trace)),
                                sort_keys=True) + "\n")
    print(json.dumps(summary, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run(args)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
