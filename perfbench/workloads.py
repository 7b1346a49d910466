"""One workload, run in the fresh interpreter that ``run.py`` spawns.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/workloads.py --workload fuzz-matrix --cpu 1 \
        --mode main --workdir perfbench/.out/work [--trace-out FILE]

The process pins itself to ``--cpu`` before importing ``repro`` (the
simulated threads it starts later inherit the pin), runs the workload
through the public entry points users call, and prints one JSON object
as the last line of its standard output. ``run.py`` turns these into
the benchmark's metrics; ``README.md`` says what each workload measures
and why.

Modes:

* ``main``    -- the whole workload;
* ``probe``   -- stop when the first campaign or replay begins (the end
  of set-up), so ``run.py`` can sample set-up several times per run;
* ``recheck`` -- only the workload's cheap slices, whose fingerprints
  must equal the ``main`` run's (``run.py`` starts it with another hash
  seed).

``triage`` and ``durable`` repeat their work in rounds until
``--measure-s`` seconds have passed (``--rounds`` caps the rounds; the
traced run does one); their timings are means and medians over the
whole run. ``fuzz-matrix`` is fixed work and runs once.
"""

import argparse
import copy
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time

from spans import Spans, percentile

WORKLOADS = ("fuzz-matrix", "triage", "durable")

#: Durable sessions: target -> work units (one engine session each).
DURABLE_UNITS = {"pmring": 16, "memcached-pmem": 6}
DURABLE_CAMPAIGNS_PER_UNIT = 20

#: Replays from which ``replay_p90_s`` is taken: the p90 then has at
#: least ten samples beyond it.
MIN_REPLAY_SAMPLES = 100

#: Replay passes over the batch at each break of a fuzzing workload (after
#: each target or session), and replays after each triage shrink.
BREAK_PASSES = 2
REPLAYS_PER_SHRINK = 4

HERE = os.path.dirname(os.path.abspath(__file__))
TRIAGE_INPUTS = os.path.join(HERE, "inputs", "triage")


class SetupDone(Exception):
    """Raised in probe mode when the first campaign or replay begins."""


def durable_seeds(name):
    """Base seeds of the durable session on ``name``: one unit each."""
    return tuple(range(7, 7 + DURABLE_UNITS[name]))


def peak_rss_mb():
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CampaignClock:
    """The per-campaign boundary of every fuzzing run, and nothing more.

    Wraps ``PMRace.run`` (to learn which target and base seed runs),
    the engine's ``run_campaign`` (to stamp each campaign's begin and
    end) and ``Session.record_unit`` (to stamp each durable work unit's
    end). All run on the main thread, never inside a simulated thread's stack,
    so call-site interning cannot see them. Candidate and hang bugs
    carry no repro bundle naming their campaign, so their first
    campaign is found here, by the engine's own matching rules.
    """

    def __init__(self, probe=False):
        self.probe = probe
        self.first_begin = None
        self.reset()

    def reset(self):
        """Forget the stamps, before a workload repeats its runs."""
        self.marks = []       # perf_counter stamps, in order
        self.ends = {}        # (target, base_seed) -> [campaign end mark]
        self.hits = {}        # (target, base_seed, bug_id) -> campaign
        self._run = None
        self._watch = ()

    def mark(self):
        """Stamp now; the stamp's index in ``marks``."""
        self.marks.append(time.perf_counter())
        return len(self.marks) - 1

    def mark_begin(self):
        """The first campaign or replay begins: set-up is over."""
        if self.first_begin is None:
            self.first_begin = time.time()
            if self.probe:
                raise SetupDone()

    def install(self):
        from repro.core import engine
        from repro.core.results import expected_bugs_for
        from repro.core.session import Session

        clock = self
        original_run = engine.PMRace.run
        original_campaign = engine.run_campaign
        original_record_unit = Session.record_unit

        def run(pmrace):
            name = pmrace.target.NAME
            clock._run = (name, pmrace.config.base_seed)
            clock.ends.setdefault(clock._run, [])
            clock._watch = [bug for bug in expected_bugs_for(name)
                            if bug.kind in ("candidate", "hang")]
            return original_run(pmrace)

        def run_campaign(*args, **kwargs):
            clock.mark_begin()
            clock.mark()
            campaign = original_campaign(*args, **kwargs)
            ends = clock.ends[clock._run]
            ends.append(clock.mark())
            for bug in clock._watch:
                key = clock._run + (bug.bug_id,)
                if key not in clock.hits and _shows(bug, campaign):
                    clock.hits[key] = len(ends) - 1
            return campaign

        def record_unit(session, *args, **kwargs):
            recorded = original_record_unit(session, *args, **kwargs)
            clock.mark()
            return recorded

        engine.PMRace.run = run
        engine.run_campaign = run_campaign
        Session.record_unit = record_unit

    def detected_at(self, name, record):
        """Mark of the end of the campaign that kept ``record``."""
        bundle = record.bundle
        ends = self.ends.get((name, bundle.base_seed), ())
        if bundle.campaign_index < len(ends):
            return ends[bundle.campaign_index]
        return None

    def first_hit(self, name, seeds, bug_id):
        """Mark of the end of the first campaign that showed ``bug_id``."""
        stamps = [self.ends[(name, base_seed)][self.hits[key]]
                  for base_seed in seeds
                  for key in [(name, base_seed, bug_id)]
                  if key in self.hits]
        return min(stamps) if stamps else None


def _shows(bug, campaign):
    """Whether ``campaign`` produced the candidate or hang ``bug``, by
    the rules of ``PMRace._harvest`` and ``match_expected``."""
    def hit(text):
        return any(needle in text for needle in bug.matcher)

    if bug.kind == "candidate":
        return any(hit(c.read_instr or "")
                   for c in campaign.checker.candidates)
    if campaign.outcome.status != "hang":
        return False
    from repro.core.engine import HangRecord

    signature = HangRecord(campaign.outcome.blocked, None).signature()
    sync_stall = all(reason is not None and reason.startswith("cond_wait:")
                     for reason in signature)
    return bool(signature) and not sync_stall and any(
        hit(reason) for reason in signature if reason)


class Tally:
    """Attempted and failed operations: the base of ``failed_share``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def fingerprint_text(result):
    from repro.core.session import result_fingerprint

    return json.dumps(result_fingerprint(result), sort_keys=True)


def count_fuzz_outcomes(result, tally):
    """Campaigns and kept records; a record left PENDING by a replay
    fault or budget abort fails. (A campaign with status ``error`` never
    gets here: the engine raises it, which fails the whole run; ``hang``
    and ``budget`` outcomes are findings.)"""
    from repro.detect.records import Verdict

    tally.attempted += result.campaigns
    for record in list(result.inconsistencies) \
            + list(result.sync_inconsistencies):
        stuck = record.verdict is Verdict.PENDING \
            and (record.note or "").startswith("replay budget")
        tally.add(not stuck, "pending record %s" % (record.dedup_key(),))


# ----------------------------------------------------------------------
# replay: the triage pass every workload runs on its bugs


class ReplaySampler:
    """Replay+validate a batch of bundles at breaks spread over the run,
    each replay through a fresh validation queue (``repro replay
    --validate``).

    A bundle's first replay decides whether it replays faithfully to
    BUG; every replay is an attempted operation, and one that does not
    reproduce fails. Samples are taken all through the run, not in one
    stretch at its end, so that a slow spell of the host hits a few
    samples of every bundle instead of all samples of some.
    """

    def __init__(self, tally, clock=None):
        self.tally = tally
        self.clock = clock
        self.bundles = []
        self.convicted = []
        self.samples = []   # per bundle: seconds of each replay
        self._next = 0

    def _replay(self, index):
        from repro.detect.records import Verdict
        from repro.detect.validation_service import make_validation_queue
        from repro.replay import replay_bundle

        bundle = self.bundles[index]
        if self.clock is not None:
            self.clock.mark_begin()
        began = time.perf_counter()
        outcome = replay_bundle(
            bundle, validation=make_validation_queue(bundle.target))
        self.samples[index].append(time.perf_counter() - began)
        ok = outcome.ok and outcome.verdict is Verdict.BUG
        return self.tally.add(ok, "replay %s %s" % (bundle.target,
                                                     bundle.kind))

    def add(self, bundles):
        """Add ``bundles`` to the batch and replay each of them once."""
        for bundle in bundles:
            self.bundles.append(bundle)
            self.samples.append([])
            self.convicted.append(self._replay(len(self.bundles) - 1))

    def replay_pass(self, passes=1):
        for _ in range(passes):
            for index in range(len(self.bundles)):
                self._replay(index)

    def replay_next(self, count):
        """Replay the next ``count`` bundles of the batch, round robin."""
        for _ in range(count if self.bundles else 0):
            self._replay(self._next % len(self.bundles))
            self._next += 1

    def top_up(self):
        """Replay the batch until at least MIN_REPLAY_SAMPLES replays ran."""
        while self.bundles and sum(map(len, self.samples)) \
                < MIN_REPLAY_SAMPLES:
            self.replay_pass()

    def medians(self):
        """Each bundle's median replay seconds."""
        return [statistics.median(samples) for samples in self.samples]

    def metrics(self):
        """``replay_s``: the mean over bundles of each bundle's median
        replay (a batch mixes fast and slow bundles, and the median of
        such a mixture jumps between them); ``triage_s``: their sum, the
        time to re-confirm every bug once; ``replay_p90_s``: the 90th
        percentile of all replays."""
        medians = self.medians()
        return {"replay_s": statistics.mean(medians) if medians else 0.0,
                "triage_s": sum(medians),
                "replay_p90_s": percentile(
                    [took for samples in self.samples for took in samples],
                    0.9)}


# ----------------------------------------------------------------------
# fuzzing workloads: catalogued bugs, their detection time and replay


def catalogued_bugs(name, result, clock, seeds):
    """Per catalogued bug of ``name``: ``(expected, detected, records,
    mark)``, where ``mark`` is the clock's mark of the end of the
    campaign that first produced the bug (None when undetected)."""
    from repro.core.bugmatrix import RECORD_KINDS, bug_records
    from repro.core.results import expected_bugs_for, match_expected

    rows = []
    for expected in expected_bugs_for(name):
        detected = match_expected(expected, result)
        records = []
        if expected.kind in RECORD_KINDS:
            records = [r for r in bug_records(result, expected)
                       if r.bundle is not None]
            stamps = [s for s in (clock.detected_at(name, r)
                                  for r in records) if s is not None]
            when = min(stamps) if stamps else None
        else:
            when = clock.first_hit(name, seeds, expected.bug_id)
        rows.append((expected, detected, records,
                     when if detected else None))
    return rows


def bug_bundles(rows):
    """``(bug ids, bundles)``: one repro bundle per detected record-backed
    catalogued bug."""
    from repro.core.bugmatrix import RECORD_KINDS

    owners, bundles = [], []
    for expected, detected, records, _seconds in rows:
        if expected.kind in RECORD_KINDS and detected and records:
            owners.append(expected.bug_id)
            bundles.append(bug_bundle(records[0]))
    return owners, bundles


def bug_bundle(record):
    """The record's repro bundle, stamped with the record's verdict
    (bundles are captured before deferred validation runs)."""
    bundle = record.bundle
    if bundle.verdict != record.verdict.value:
        bundle = bundle.with_updates(verdict=record.verdict.value)
    return bundle


def bugs_detected(rows, owners, convicted):
    """Catalogued bugs that are detected and, for record-backed kinds,
    convicted BUG and replayed to BUG."""
    from repro.core.bugmatrix import RECORD_KINDS

    replayed = {bug for bug, ok in zip(owners, convicted) if ok}
    return sum(1 for expected, found, _records, _seconds in rows
               if found and (expected.kind not in RECORD_KINDS
                             or expected.bug_id in replayed))


def run_fuzz_matrix(mode, clock, tally, workdir, deadline, max_rounds):
    """Capture-mode serial fuzzing of every matrix target, one
    ``PMRace(...).run()`` per base seed, merged like ``fuzz_target``.
    The matrix is fixed work: it runs once, whatever ``deadline``."""
    from repro.core.bugmatrix import DEFAULT_BUDGET, MATRIX_BUDGETS
    from repro.core.engine import PMRace, PMRaceConfig
    from repro.detect.records import Verdict
    from repro.targets.registry import make_target

    names = ["pmring"] if mode == "recheck" else list(MATRIX_BUDGETS)
    sampler = ReplaySampler(tally)
    fingerprints, rows, owners, checks = {}, [], [], []
    campaigns = 0
    fuzz_s = detect_s = 0.0
    began = time.perf_counter()
    for name in names:
        budget = dict(MATRIX_BUDGETS.get(name, DEFAULT_BUDGET))
        seeds = budget.pop("seeds")
        config = PMRaceConfig(capture_repro=True, profile=False,
                              max_seeds=budget.pop("max_seeds", 16),
                              **budget)
        target = make_target(name)
        result = None
        start = time.perf_counter()
        for base_seed in seeds:
            cfg = copy.deepcopy(config)
            cfg.base_seed = base_seed
            run = PMRace(target, cfg).run()
            if result is None:
                result = run
            else:
                result.merge(run)
        length = time.perf_counter() - start
        fingerprints[name] = fingerprint_text(result)
        count_fuzz_outcomes(result, tally)
        campaigns += result.campaigns
        fuzz_s += length
        target_rows = catalogued_bugs(name, result, clock, seeds)
        rows.extend(target_rows)
        # An undetected bug counts the whole target run.
        detect_s += sum(length if mark is None
                        else clock.marks[mark] - start
                        for _e, _d, _r, mark in target_rows)
        if name == "clevel hashing":
            convicted = sum(1 for r in list(result.inconsistencies)
                            + list(result.sync_inconsistencies)
                            if r.verdict is Verdict.BUG)
            checks.append(("clevel control has no BUG record",
                           convicted == 0, "%d BUG" % convicted))
        if mode == "recheck":
            continue
        # This target's bugs join the replay batch, and a break between
        # targets replays the whole batch so far.
        ids, bundles = bug_bundles(target_rows)
        owners.extend(ids)
        sampler.add(bundles)
        sampler.replay_pass(BREAK_PASSES)
    out = {"fingerprints": fingerprints, "checks": checks,
           "round_s": time.perf_counter() - began,
           "peak_rss_mb": peak_rss_mb()}
    if mode == "recheck":
        return out
    sampler.top_up()
    metrics = sampler.metrics()
    metrics.update({
        "campaigns_per_s": campaigns / fuzz_s,
        "detect_s": detect_s,
        "bugs_detected": bugs_detected(rows, owners, sampler.convicted),
    })
    checks.append(("every catalogued bug detected, convicted and replayed",
                   metrics["bugs_detected"] == len(rows),
                   "%d/%d" % (metrics["bugs_detected"], len(rows))))
    out["metrics"] = metrics
    return out


def run_durable(mode, clock, tally, workdir, deadline, max_rounds):
    """``run_fuzz_session`` in fresh session directories, one unit per
    seed, each finished session then resumed, which must reproduce its
    fingerprint. The sessions of the targets repeat in turn while the
    next one still fits before ``deadline`` (the first round always
    runs), and the timings are means over each target's sessions."""
    from repro.core.engine import PMRaceConfig
    from repro.core.session import Session, run_fuzz_session

    names = ["pmring"] if mode == "recheck" else list(DURABLE_UNITS)
    sampler = ReplaySampler(tally)
    fingerprints, rows, owners = {}, [], []
    fuzz_s = {name: [] for name in names}   # session walls
    step_s = {}      # target -> wall of its last session, resume, replays
    detect_s = {}    # bug id -> seconds to detection, per session
    resumed_ok = {name: 0 for name in names}
    repeated_ok = True
    campaigns = 0
    out = {"checks": []}
    began = time.perf_counter()
    for step in itertools.count():
        name = names[step % len(names)]
        first = step < len(names)
        if not first and (step >= len(names) * max_rounds
                          or time.perf_counter() + step_s[name]
                          > deadline):
            break
        step_began = time.perf_counter()
        seeds = durable_seeds(name)
        config = PMRaceConfig(capture_repro=True, profile=False,
                              max_campaigns=DURABLE_CAMPAIGNS_PER_UNIT)
        directory = os.path.join(workdir, name.replace(" ", "_"))
        shutil.rmtree(directory, ignore_errors=True)
        session = Session.open(directory, name, "serial", seeds, config)
        clock.reset()
        clock.mark()
        result, interrupted = run_fuzz_session(name, config, seeds,
                                               session)
        clock.mark()
        wall = clock.marks[-1] - clock.marks[0]
        fuzz_s[name].append(wall)
        target_rows = catalogued_bugs(name, result, clock, seeds)
        for expected, _found, _records, mark in target_rows:
            # An undetected bug counts the whole session.
            detect_s.setdefault(expected.bug_id, []).append(
                wall if mark is None else clock.marks[mark] - clock.marks[0])
        fingerprint = fingerprint_text(result)
        if first:
            fingerprints[name] = fingerprint
            campaigns += result.campaigns
            rows.extend(target_rows)
        repeated_ok &= fingerprint == fingerprints[name]
        count_fuzz_outcomes(result, tally)
        tally.add(interrupted is None, "session %s interrupted" % name)
        writes = session.checkpoints_written + len(session.unit_records())
        tally.attempted += writes + session.write_errors
        tally.failed += session.write_errors
        if mode == "recheck":
            break
        resumed_session = Session.open(directory, name, "serial", seeds,
                                       config, resume=True)
        resumed, _ = run_fuzz_session(name, config, seeds, resumed_session)
        resumed_ok[name] += fingerprint_text(resumed) == fingerprint
        if first:
            ids, bundles = bug_bundles(target_rows)
            owners.extend(ids)
            sampler.add(bundles)
        sampler.replay_pass(BREAK_PASSES)
        step_s[name] = time.perf_counter() - step_began
        if step + 1 == len(names):
            out["round_s"] = time.perf_counter() - began
            out["peak_rss_mb"] = peak_rss_mb()
    out["fingerprints"] = fingerprints
    if mode == "recheck":
        return out
    sessions = {name: len(fuzz_s[name]) for name in names}
    out["checks"] = [
        ("resumed %s session reproduces its fingerprint" % name,
         resumed_ok[name] == sessions[name],
         "%d/%d sessions" % (resumed_ok[name], sessions[name]))
        for name in names]
    out["checks"].append(("every session reproduces its target's first "
                          "fingerprint", repeated_ok,
                          "%d sessions" % sum(sessions.values())))
    sampler.top_up()
    metrics = sampler.metrics()
    metrics.update({
        "campaigns_per_s": campaigns / sum(statistics.mean(fuzz_s[name])
                                           for name in names),
        "detect_s": sum(statistics.mean(seconds)
                        for seconds in detect_s.values()),
        "bugs_detected": bugs_detected(rows, owners, sampler.convicted),
    })
    out["metrics"] = metrics
    return out


# ----------------------------------------------------------------------
# triage


def triage_inputs():
    """The stored bundle batch: one bundle per catalogued bug of the
    triage targets, from the bug matrix's pinned capture run."""
    from repro.replay import ReproBundle

    names = sorted((name for name in os.listdir(TRIAGE_INPUTS)
                    if name.startswith("bug") and name.endswith(".json")),
                   key=lambda name: int(name[3:-5]))
    return [ReproBundle.load(os.path.join(TRIAGE_INPUTS, name))
            for name in names]


def shrink_key(shrunk):
    return [shrunk.min_ops, shrunk.min_schedule, shrunk.tests]


def run_triage(mode, clock, tally, workdir, deadline, max_rounds):
    """Replay+validate, then shrink, the stored BUG-verdict bundles.

    The bundles are shrunk round robin, each again while the next shrink
    still fits before ``deadline``, and a few replays follow every
    shrink so that the replay samples spread over the run.
    """
    from repro.replay import shrink_bundle

    bundles = triage_inputs()
    sampler = ReplaySampler(tally,
                            clock=None if mode == "recheck" else clock)
    began = time.perf_counter()
    sampler.add(bundles)
    verdicts = list(sampler.convicted)
    out = {"fingerprints": {"replay": json.dumps(verdicts)}, "checks": []}
    if mode == "recheck":
        return out
    shrink_s = [[] for _ in bundles]
    shrinks = [None] * len(bundles)
    agree = True
    step = 0
    while True:
        index = step % len(bundles)
        if step == len(bundles):
            out["round_s"] = time.perf_counter() - began
            out["peak_rss_mb"] = peak_rss_mb()
        if step >= len(bundles) * max_rounds or step >= len(bundles) \
                and time.perf_counter() + shrink_s[index][0] > deadline:
            break
        bundle = bundles[index]
        start = time.perf_counter()
        shrunk = shrink_bundle(bundle)
        shrink_s[index].append(time.perf_counter() - start)
        tally.add(shrunk.verified,
                  "shrink %s %s" % (bundle.target, bundle.kind))
        if shrinks[index] is None:
            shrinks[index] = shrunk
        else:
            agree &= shrink_key(shrunk) == shrink_key(shrinks[index])
        sampler.replay_next(REPLAYS_PER_SHRINK)
        step += 1
    sampler.top_up()
    replays = sampler.metrics()
    medians = sampler.medians()
    triage_s = sum(medians) + sum(statistics.mean(s) for s in shrink_s)
    campaigns = len(bundles) + sum(s.tests + 1 for s in shrinks)
    metrics = {
        "campaigns_per_s": campaigns / triage_s,
        "detect_s": sum(took if ok else triage_s
                        for took, ok in zip(medians, verdicts)),
        "bugs_detected": sum(1 for ok, s in zip(verdicts, shrinks)
                             if ok and s.verified),
        "triage_s": triage_s,
        "replay_s": replays["replay_s"],
        "replay_p90_s": replays["replay_p90_s"],
    }
    out["fingerprints"]["shrink"] = json.dumps(
        [shrink_key(s) for s in shrinks])
    out["checks"] = [
        ("every triage bundle replays faithfully to BUG", all(verdicts),
         "%d/%d" % (sum(verdicts), len(verdicts))),
        ("every shrunk bundle verifies", all(s.verified for s in shrinks),
         "%d/%d" % (sum(s.verified for s in shrinks), len(shrinks))),
        ("repeated shrinks give the first shrink's result", agree,
         "%d shrinks of %d bundles" % (step, len(bundles))),
    ]
    out["metrics"] = metrics
    out["shrinks"] = shrinks
    return out


RUNNERS = {"fuzz-matrix": run_fuzz_matrix, "triage": run_triage,
           "durable": run_durable}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--mode", choices=("main", "probe", "recheck"),
                        required=True)
    parser.add_argument("--trace-out", help="trace this run and write "
                        "its span records here")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--measure-s", type=float, default=0.0,
                        help="repeat the workload's rounds until this "
                        "many seconds have passed (at least one round)")
    parser.add_argument("--rounds", type=int, default=0,
                        help="run at most this many rounds (0: no limit)")
    args = parser.parse_args(argv)

    os.sched_setaffinity(0, {args.cpu})
    began = time.perf_counter()
    clock = CampaignClock(probe=args.mode == "probe")
    clock.install()
    spans = None
    if args.trace_out:
        spans = Spans()
        spans.install()
    tally = Tally()
    os.makedirs(args.workdir, exist_ok=True)
    out = {"affinity": sorted(os.sched_getaffinity(0))}
    try:
        out.update(RUNNERS[args.workload](
            args.mode, clock, tally, args.workdir,
            began + args.measure_s, args.rounds or float("inf")))
    except SetupDone:
        pass
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    shrinks = out.pop("shrinks", ())
    out.setdefault("peak_rss_mb", peak_rss_mb())
    out.update({
        "first_begin": clock.first_begin,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures[:20],
    })
    if spans is not None:
        out["layers"] = spans.report(shrinks)
        spans.write(args.trace_out)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
