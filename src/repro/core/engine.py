"""PMRace engine: PM-aware coverage-guided fuzzing (§4).

The engine drives the three exploration tiers of §4.2.3 over one target:

* **Execution tier** — each interleaving choice is executed several times
  (different scheduler seeds) before moving on.
* **Interleaving tier** — when executions stop improving coverage, the
  next entry from the shared-access priority queue becomes the new set of
  sync points for the Figure-6 controller.
* **Seed tier** — when no interleaving of the current seed improves
  coverage, the operation mutator evolves the corpus and the priority
  queue is reconstructed.

Feedback is branch (edge) coverage plus PM alias pair coverage; every new
unique inconsistency goes straight through post-failure validation so the
run result carries final verdicts.
"""

import copy
import time

from ..detect.dedup import group_bugs
from ..detect.postfailure import PostFailureValidator
from ..detect.records import Verdict
from ..detect.validation_service import ValidationQueue, fresh_target_factory
from ..detect.whitelist import Whitelist
from ..obs.profiling import RunProfiler, merge_profiles
from ..obs.tracer import NULL_TRACER
from ..runtime.policies import DelayInjectionPolicy, SeededRandomPolicy
from .campaign import run_campaign
from .checkpoints import make_state_provider
from .corpus import Corpus
from .coverage import (
    AliasCoverageCollector,
    BranchCoverageCollector,
    CoverageSet,
)
from .inputgen import OperationMutator
from .priority import AccessProfiler, SharedAccessQueue
from .seeding import policy_seed


class PMRaceConfig:
    """Tunables for one fuzzing run. Defaults follow §6.1 where sensible.

    Attributes:
        mode: "pmrace" (sync-point guided), "delay" (random delay
            injection baseline), or "random" (plain random scheduler).
        n_threads: Worker threads per campaign (4 in the paper).
        enable_interleaving_tier / enable_seed_tier: Figure 9 ablations.
        coverage_feedback: "both", "branch", or "alias" — which metrics
            count as progress (alias-coverage ablation).
    """

    def __init__(self, mode="pmrace", n_threads=4, ops_per_thread=6,
                 max_campaigns=120, time_budget=None,
                 execs_per_interleaving=2, max_interleavings_per_seed=8,
                 max_seeds=40, use_checkpoints=None,
                 enable_interleaving_tier=True, enable_seed_tier=True,
                 taint_enabled=True, snapshot_images=True,
                 capture_stacks=True, validate=True, probe_hangs=False,
                 writer_waiting=150, max_steps=30_000, spin_hang_limit=400,
                 coverage_feedback="both", base_seed=0, whitelist=None,
                 eadr=False, profile=True, evict_fraction=0.0,
                 static_hints=False, capture_repro=False,
                 corpus_schedule="energy", corpus_dir=None,
                 initial_corpus=None, target_modules=()):
        self.mode = mode
        self.n_threads = n_threads
        self.ops_per_thread = ops_per_thread
        self.max_campaigns = max_campaigns
        self.time_budget = time_budget
        self.execs_per_interleaving = execs_per_interleaving
        self.max_interleavings_per_seed = max_interleavings_per_seed
        self.max_seeds = max_seeds
        self.use_checkpoints = use_checkpoints
        self.enable_interleaving_tier = enable_interleaving_tier
        self.enable_seed_tier = enable_seed_tier
        self.taint_enabled = taint_enabled
        self.snapshot_images = snapshot_images
        self.capture_stacks = capture_stacks
        self.validate = validate
        self.probe_hangs = probe_hangs
        self.writer_waiting = writer_waiting
        self.max_steps = max_steps
        self.spin_hang_limit = spin_hang_limit
        self.coverage_feedback = coverage_feedback
        self.base_seed = base_seed
        self.whitelist = whitelist
        #: Simulate an eADR platform (persistent caches, §6.6).
        self.eadr = eadr
        #: Per-line probability that a DIRTY line was evicted by the
        #: hardware before a crash point (arbitrary cache eviction,
        #: §2.1); sampled with a campaign RNG derived from ``base_seed``
        #: so eviction patterns vary across campaigns and seeds.
        self.evict_fraction = evict_fraction
        #: Collect per-phase wall times and execs/sec samples into
        #: ``RunResult.profile`` (a few clock reads per campaign); turn
        #: off for a true no-observability baseline.
        self.profile = profile
        #: Pre-seed each seed's priority queue with pmlint's static
        #: findings (:mod:`repro.analysis.hints`): statically flagged
        #: unflushed-store sites and their overlapping loads enter the
        #: queue at maximal frequency before any dynamic profile exists,
        #: so the first guided interleavings aim at suspicious windows.
        self.static_hints = static_hints
        #: Record a deterministic repro bundle (schedule decision vector,
        #: RNG draw journals, op lists — :mod:`repro.replay`) for every
        #: kept inconsistency record. Off by default: capture costs one
        #: policy wrapper plus per-campaign journaling.
        self.capture_repro = capture_repro
        #: Seed-tier parent selection: "energy" (AFL-style, rare-coverage
        #: and recently-progressing seeds get more evolution picks) or
        #: "uniform" (the historical unweighted draw). Both spend the
        #: same seeded mutator RNG stream, so either is deterministic.
        self.corpus_schedule = corpus_schedule
        #: Optional on-disk corpus directory (one versioned JSON file per
        #: retained seed, written atomically): loaded on start, so a
        #: killed run resumes with its retained corpus.
        self.corpus_dir = corpus_dir
        #: Exported corpus entries (``RunResult.corpus_seeds`` shape) to
        #: adopt before fuzzing — how the parallel service re-seeds a
        #: retried worker from the already-merged shared corpus.
        self.initial_corpus = initial_corpus
        #: Plugin modules (``--target-module`` specs) to import before
        #: resolving targets by name. Carried in the config so worker
        #: *processes* (parallel fuzzing, ``validate --jobs``) can
        #: re-register dynamically loaded targets in their own
        #: interpreter before ``make_target`` runs.
        self.target_modules = tuple(target_modules)


def fuzz_target(target, config=None, seeds=(7, 13), tracer=None,
                metrics=None):
    """Fuzz ``target`` once per base seed and merge the findings.

    Multiple seeded sessions stand in for the paper's long wall-clock
    fuzzing runs; results are deduplicated exactly like within one run.

    The config is deep-copied per session so mutable members (the
    whitelist in particular) are never shared between sessions. The
    optional tracer/metrics objects are shared across sessions (they are
    observability sinks, not session state).
    """
    merged = None
    for seed in seeds:
        cfg = copy.deepcopy(config) if config is not None else PMRaceConfig()
        cfg.base_seed = seed
        result = PMRace(target, cfg, tracer=tracer, metrics=metrics).run()
        if merged is None:
            merged = result
        else:
            merged.merge(result)
    return merged


class HangRecord:
    """A pre-failure hang not caused by sync-point stalls (e.g. a missing
    unlock — a conventional DRAM concurrency bug, Table 2's bug 5)."""

    def __init__(self, blocked, seed_id):
        self.blocked = list(blocked)
        self.seed_id = seed_id
        self.kind = "hang"

    def signature(self):
        return frozenset(reason for _, reason in self.blocked
                         if reason is not None)

    def __repr__(self):
        return "<HangRecord %s>" % (sorted(self.signature()),)


class RunResult:
    """Aggregated outcome of one fuzzing run on one target."""

    def __init__(self, target_name, config):
        self.target_name = target_name
        self.config = config
        self.campaigns = 0
        self.duration = 0.0
        self.candidates = []
        self.inconsistencies = []
        self.sync_inconsistencies = []
        self.hangs = []
        self.coverage_timeline = []
        self.inter_hit_times = []
        self.first_inter_time = None
        self.first_candidate_time = None
        self.op_errors = 0
        self.annotation_count = 0
        self.bug_reports = []
        #: Profiling output (:meth:`repro.obs.profiling.RunProfiler.
        #: to_dict`): per-phase wall time + execs/sec samples. Empty when
        #: ``config.profile`` is off.
        self.profile = {}
        #: Per-worker statistics attached by the parallel service
        #: (:mod:`repro.core.parallel`); empty for single-session runs.
        self.worker_stats = []
        #: Exported retained corpus (plain-JSON ``SeedEntry`` documents,
        #: :meth:`repro.core.corpus.Corpus.export`); :meth:`merge` folds
        #: sessions together by content digest so the parallel service
        #: can re-seed retried workers from the shared corpus.
        self.corpus_seeds = []
        #: PENDING records upgraded during :meth:`merge` by adopting a
        #: dedup-equal duplicate's verdict (cross-session re-validation).
        self.verdict_upgrades = 0
        #: Signal number when a durable-session run was stopped by
        #: SIGINT/SIGTERM (None for a run that completed normally).
        self.interrupted = None
        self._candidate_keys = set()
        # Key → record maps (not plain sets): merge and the PENDING
        # upgrade path both need the surviving record for a dedup key.
        self._inconsistency_keys = {}
        self._sync_keys = {}
        self._hang_signatures = set()

    # ------------------------------------------------------------------
    # accounting views

    @property
    def inter_candidates(self):
        return [c for c in self.candidates if c.cross_thread]

    @property
    def inter_inconsistencies(self):
        return [r for r in self.inconsistencies if r.kind == "inter"]

    @property
    def intra_inconsistencies(self):
        return [r for r in self.inconsistencies if r.kind == "intra"]

    def by_verdict(self, records, verdict):
        return [r for r in records if r.verdict is verdict]

    @property
    def executions_per_second(self):
        if self.duration <= 0:
            return 0.0
        return self.campaigns / self.duration

    def merge(self, other):
        """Fold another run's findings in (multiple sessions ≈ more
        fuzzing time); bug reports are regrouped afterwards."""
        for candidate in other.candidates:
            key = (candidate.read_instr, candidate.write_instr,
                   candidate.cross_thread)
            if key not in self._candidate_keys:
                self._candidate_keys.add(key)
                self.candidates.append(candidate)
        for record in other.inconsistencies:
            key = record.dedup_key()
            if key not in self._inconsistency_keys:
                self._inconsistency_keys[key] = record
                self.inconsistencies.append(record)
            else:
                self._upgrade_verdict(self._inconsistency_keys[key], record)
        for record in other.sync_inconsistencies:
            key = record.dedup_key()
            if key not in self._sync_keys:
                self._sync_keys[key] = record
                self.sync_inconsistencies.append(record)
            else:
                self._upgrade_verdict(self._sync_keys[key], record)
        for hang in other.hangs:
            signature = hang.signature()
            if signature not in self._hang_signatures:
                self._hang_signatures.add(signature)
                self.hangs.append(hang)
        offset_c = self.campaigns
        offset_t = self.duration
        for campaign, elapsed, branch, alias in other.coverage_timeline:
            self.coverage_timeline.append(
                (campaign + offset_c, elapsed + offset_t, branch, alias))
        self.inter_hit_times.extend(
            (t + offset_t, n) for t, n in other.inter_hit_times)
        if other.first_inter_time is not None and self.first_inter_time \
                is None:
            self.first_inter_time = other.first_inter_time + offset_t
        if other.first_candidate_time is not None and \
                self.first_candidate_time is None:
            self.first_candidate_time = other.first_candidate_time + offset_t
        known = {entry["digest"]: entry for entry in self.corpus_seeds}
        for entry in other.corpus_seeds:
            kept = known.get(entry["digest"])
            if kept is None:
                known[entry["digest"]] = entry
                self.corpus_seeds.append(entry)
            else:
                # Same input retained by several sessions: one document
                # survives, carrying the summed scheduling statistics.
                for field in ("picks", "campaigns", "new_branch",
                              "new_alias", "inconsistencies"):
                    kept["stats"][field] += entry["stats"][field]
        self.profile = merge_profiles(self.profile, other.profile)
        self.campaigns += other.campaigns
        self.duration += other.duration
        self.worker_stats.extend(other.worker_stats)
        self.op_errors += other.op_errors
        self.annotation_count = max(self.annotation_count,
                                    other.annotation_count)
        self.verdict_upgrades += other.verdict_upgrades
        self._regroup()
        return self

    def _upgrade_verdict(self, kept, duplicate):
        """Adopt a dedup-equal duplicate's judgement when the kept record
        never got one: a session whose first occurrence carried no crash
        image stamps PENDING, and another session's duplicate — validated
        with an image — settles the verdict."""
        # Repro bundles ride the same adoption rule as crash images: a
        # duplicate captured with a bundle makes a bundle-less kept
        # record replayable (the bundles reproduce the same dedup key).
        if getattr(kept, "bundle", None) is None and \
                getattr(duplicate, "bundle", None) is not None:
            kept.bundle = duplicate.bundle
        if kept.verdict is Verdict.PENDING:
            if duplicate.verdict is not Verdict.PENDING:
                kept.verdict = duplicate.verdict
                kept.note = duplicate.note
                if kept.crash_image is None:
                    kept.crash_image = duplicate.crash_image
                self.verdict_upgrades += 1
            elif kept.crash_image is None and \
                    duplicate.crash_image is not None:
                # Neither side was judged, but the duplicate carries an
                # image a later validation pass can replay.
                kept.crash_image = duplicate.crash_image

    def _regroup(self):
        bug_records = [r for r in self.inconsistencies
                       if r.verdict is Verdict.BUG]
        bug_records += [r for r in self.sync_inconsistencies
                        if r.verdict is Verdict.BUG]
        self.bug_reports = group_bugs(self.target_name, bug_records)
        from ..detect.records import BugReport
        for hang in self.hangs:
            self.bug_reports.append(BugReport(
                len(self.bug_reports) + 1, self.target_name, "hang",
                None, None,
                "threads blocked forever on %s (missing unlock or "
                "lost wake-up)" % sorted(hang.signature()),
                [hang]))

    def summary(self):
        return {
            "target": self.target_name,
            "campaigns": self.campaigns,
            "inter_candidates": len(self.inter_candidates),
            "inter": len(self.inter_inconsistencies),
            "intra": len(self.intra_inconsistencies),
            "sync": len(self.sync_inconsistencies),
            "inter_validated_fp": len(self.by_verdict(
                self.inter_inconsistencies, Verdict.VALIDATED_FP)),
            "inter_whitelisted_fp": len(self.by_verdict(
                self.inter_inconsistencies, Verdict.WHITELISTED_FP)),
            "sync_validated_fp": len(self.by_verdict(
                self.sync_inconsistencies, Verdict.VALIDATED_FP)),
            "bugs": len(self.bug_reports),
            "hangs": len(self.hangs),
            "annotations": self.annotation_count,
            "verdict_upgrades": self.verdict_upgrades,
            "corpus_seeds": len(self.corpus_seeds),
        }


class PMRace:
    """The fuzzer facade: ``PMRace(target, config).run()``.

    Args:
        target: The :class:`~repro.targets.base.Target` to fuzz.
        config: A :class:`PMRaceConfig`.
        tracer: Optional :class:`~repro.obs.tracer.Tracer`; defaults to
            the shared null tracer (no records, near-zero cost).
        metrics: Optional :class:`~repro.obs.metrics.Metrics` registry
            threaded into every hot path of the run.
    """

    def __init__(self, target, config=None, tracer=None, metrics=None):
        self.target = target
        self.config = config or PMRaceConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.whitelist = self.config.whitelist or Whitelist()
        # Replay recovery on a *fresh* target instance, never the live
        # fuzzing one: a target whose recover() keeps instance state
        # would otherwise contaminate both the ongoing run and every
        # later replay.
        self.validator = PostFailureValidator(
            fresh_target_factory(target), self.whitelist,
            probe_hangs=self.config.probe_hangs,
            tracer=self.tracer, metrics=self.metrics)
        self.validation = ValidationQueue(self.validator,
                                          tracer=self.tracer,
                                          metrics=self.metrics)

    # ------------------------------------------------------------------

    def _make_policy(self, campaign_index):
        seed = policy_seed(self.config.base_seed, campaign_index)
        if self.config.mode == "delay":
            return DelayInjectionPolicy(seed)
        return SeededRandomPolicy(seed)

    def _progress(self, new_branch, new_alias):
        feedback = self.config.coverage_feedback
        if feedback == "branch":
            return new_branch > 0
        if feedback == "alias":
            return new_alias > 0
        return new_branch > 0 or new_alias > 0

    # ------------------------------------------------------------------

    def run(self):
        """Execute the fuzzing loop; returns a :class:`RunResult`."""
        cfg = self.config
        tracer = self.tracer
        result = RunResult(self.target.NAME, cfg)
        provider = make_state_provider(self.target, cfg.use_checkpoints,
                                       eadr=cfg.eadr)
        space = self.target.operation_space()
        import random as _random
        mutator = OperationMutator(space, cfg.n_threads, cfg.ops_per_thread,
                                   rng=_random.Random(cfg.base_seed))
        if cfg.capture_repro:
            # Capture mode journals the draws each campaign consumes:
            # these streams are shared across campaigns, so replaying
            # campaign N standalone needs its draws, not the seed.
            from ..replay import CampaignCapture, RecordingRandom
            from ..runtime.policies import RecordingPolicy
            priv_rng = RecordingRandom(cfg.base_seed + 1)
            evict_rng = RecordingRandom(cfg.base_seed + 2)
        else:
            priv_rng = _random.Random(cfg.base_seed + 1)
            # Independent stream for crash-image eviction sampling so
            # eviction patterns track the campaign seed without perturbing
            # the privileged-election or mutation draws.
            evict_rng = _random.Random(cfg.base_seed + 2)
        # One interning table per run: skips, coverage, and the priority
        # queue compare call-site ids across campaigns.
        from ..instrument.callsite import CallSiteTable
        callsites = CallSiteTable()
        # Seed-tier corpus: persisted seeds (resume) come first in their
        # stored retention order; the deterministic populate/initial
        # seeds are always regenerated (keeping the mutator RNG stream
        # identical whether or not a resume found them on disk) and
        # dedup into their loaded twins.
        corpus = Corpus(schedule=cfg.corpus_schedule,
                        persist_dir=cfg.corpus_dir,
                        metrics=self.metrics, tracer=tracer)
        corpus.load()
        corpus.add_initial(mutator.populate_seed())
        corpus.add_initial(mutator.initial_seed())
        for exported in cfg.initial_corpus or ():
            corpus.add_exported(exported)
        branch_cov = CoverageSet(self.metrics, "coverage.branch")
        alias_cov = CoverageSet(self.metrics, "coverage.alias")
        profiler = RunProfiler() if cfg.profile else None
        campaign_counter = None if self.metrics is None else \
            self.metrics.counter("engine.campaigns")
        skips = {}
        start = time.monotonic()
        seed_index = 0
        use_syncpoints = (cfg.mode == "pmrace"
                          and cfg.enable_interleaving_tier)
        static_hints = []
        if cfg.static_hints and use_syncpoints:
            # Collected once per run (lint is pure AST work, cached per
            # target class); a lint failure must never kill a fuzzing
            # run, so any analysis error just disables hints.
            from ..analysis.hints import (collect_hints_for_target,
                                          seed_queue_with_hints)
            try:
                static_hints = collect_hints_for_target(self.target)
            except Exception:
                static_hints = []
            tracer.emit("static_hints", target=self.target.NAME,
                        hints=len(static_hints))
        tracer.emit("run_start", target=self.target.NAME, mode=cfg.mode,
                    base_seed=cfg.base_seed, n_threads=cfg.n_threads,
                    max_campaigns=cfg.max_campaigns,
                    coverage_feedback=cfg.coverage_feedback, eadr=cfg.eadr)

        def out_of_budget():
            if result.campaigns >= cfg.max_campaigns:
                return True
            if cfg.time_budget is not None and \
                    time.monotonic() - start > cfg.time_budget:
                return True
            return False

        while seed_index < cfg.max_seeds and not out_of_budget():
            corpus_entry, evolved = corpus.next_entry(mutator, seed_index)
            seed = corpus_entry.seed
            seed_index += 1
            tracer.emit("seed_start", seed_index=seed_index - 1,
                        seed_id=seed.seed_id)
            # Seed tier: reconstruct the priority queue per seed.
            queue = SharedAccessQueue(self.metrics)
            if static_hints:
                # Hints survive the per-seed reconstruction: interning
                # their module:function:line strings through the run's
                # table yields the same ids live frames get at those
                # sites, so guided rounds can stall the hinted loads.
                seed_queue_with_hints(queue, static_hints, callsites)
            seed_skips = skips.setdefault(seed.seed_id, {})
            seed_progress = False
            seed_campaigns_before = result.campaigns
            seed_records_before = len(result.inconsistencies) \
                + len(result.sync_inconsistencies)
            seed_branch = seed_alias = 0
            rounds = cfg.max_interleavings_per_seed if use_syncpoints else 1
            for round_index in range(rounds + 1):
                if out_of_budget():
                    break
                entry = None
                if use_syncpoints and round_index > 0:
                    entry = queue.fetch()
                    if entry is None:
                        break
                    if tracer.enabled:
                        tracer.emit("interleaving", seed_id=seed.seed_id,
                                    round=round_index, addr=entry.addr,
                                    loads=len(entry.load_instrs),
                                    stores=len(entry.store_instrs),
                                    frequency=entry.frequency)
                interleaving_progress = False
                for exec_index in range(cfg.execs_per_interleaving):
                    if out_of_budget():
                        break
                    if profiler is None:
                        state = provider.provide()
                    else:
                        with profiler.phase("provide"):
                            state = provider.provide()
                    result.annotation_count = max(
                        result.annotation_count,
                        state.annotations.annotation_count)
                    policy = self._make_policy(result.campaigns)
                    capture = None
                    if cfg.capture_repro:
                        capture = CampaignCapture(
                            self.target.NAME, cfg, cfg.base_seed,
                            result.campaigns, seed.threads, entry,
                            dict(seed_skips))
                        policy = RecordingPolicy(policy)
                        priv_rng.begin_segment()
                        evict_rng.begin_segment()
                    branch = BranchCoverageCollector()
                    alias = AliasCoverageCollector()
                    access = AccessProfiler()
                    campaign_kwargs = dict(
                        entry=entry, rng=priv_rng,
                        initial_skips=dict(seed_skips),
                        writer_waiting=cfg.writer_waiting,
                        taint_enabled=cfg.taint_enabled,
                        snapshot_images=cfg.snapshot_images,
                        capture_stacks=cfg.capture_stacks,
                        max_steps=cfg.max_steps,
                        spin_hang_limit=cfg.spin_hang_limit,
                        metrics=self.metrics, callsites=callsites,
                        evict_fraction=cfg.evict_fraction,
                        evict_rng=evict_rng,
                        extra_observers=(branch, alias, access))
                    if profiler is None:
                        campaign = run_campaign(self.target, state,
                                                seed.threads, policy,
                                                **campaign_kwargs)
                    else:
                        with profiler.phase("campaign"):
                            campaign = run_campaign(self.target, state,
                                                    seed.threads, policy,
                                                    **campaign_kwargs)
                    result.campaigns += 1
                    if campaign_counter is not None:
                        campaign_counter.inc()
                    elapsed = time.monotonic() - start
                    if capture is not None:
                        checker = campaign.checker
                        if checker.inconsistencies:
                            first_key = \
                                checker.inconsistencies[0].dedup_key()
                        elif checker.sync_inconsistencies:
                            first_key = \
                                checker.sync_inconsistencies[0].dedup_key()
                        else:
                            first_key = None
                        capture.finish(policy.decisions,
                                       priv_rng.end_segment(),
                                       evict_rng.end_segment(),
                                       callsites, first_key=first_key)
                    if campaign.outcome.status == "error":
                        raise campaign.outcome.error
                    new_branch = branch_cov.merge(branch.edges)
                    new_alias = alias_cov.merge(alias.pairs)
                    seed_branch += new_branch
                    seed_alias += new_alias
                    result.coverage_timeline.append(
                        (result.campaigns, elapsed, len(branch_cov),
                         len(alias_cov)))
                    queue.update_from(access)
                    if campaign.controller is not None:
                        for instr, skip in \
                                campaign.controller.updated_skips.items():
                            seed_skips[instr] = \
                                seed_skips.get(instr, 0) + skip
                    if profiler is None:
                        self._harvest(result, campaign, seed, elapsed,
                                      capture=capture)
                    else:
                        with profiler.phase("harvest"):
                            self._harvest(result, campaign, seed, elapsed,
                                          capture=capture)
                        profiler.sample(result.campaigns)
                    if tracer.enabled:
                        tracer.emit("campaign", index=result.campaigns,
                                    status=campaign.outcome.status,
                                    steps=campaign.outcome.steps,
                                    new_branch=new_branch,
                                    new_alias=new_alias,
                                    branch_total=len(branch_cov),
                                    alias_total=len(alias_cov))
                    if self._progress(new_branch, new_alias):
                        interleaving_progress = True
                        seed_progress = True
                    elif round_index > 0:
                        # Execution-tier cutoff: a guided interleaving
                        # whose latest execution added no coverage stops
                        # burning its remaining execution budget; the next
                        # queue entry becomes the new sync points.
                        break
            # Deferred validation: replay the seed's new crash images
            # now, off the campaign hot path (cache makes the work
            # proportional to unique images, not records).
            self._drain_validation(profiler)
            corpus.account(corpus_entry,
                           result.campaigns - seed_campaigns_before,
                           seed_branch, seed_alias,
                           len(result.inconsistencies)
                           + len(result.sync_inconsistencies)
                           - seed_records_before)
            if not cfg.enable_seed_tier:
                # Seed-tier ablation: loop on the first seed only.
                seed_index = 0
                if out_of_budget():
                    break
            elif evolved:
                # Seed tier: keep an evolved seed only while productive.
                # Settling is restricted to *evolved* entries — the old
                # list dance also popped the last initial seed when it
                # yielded no new coverage, silently shrinking the pinned
                # corpus for the rest of the run.
                corpus.settle(corpus_entry, seed_progress)
        self._drain_validation(profiler)
        result.corpus_seeds = corpus.export()
        result.duration = time.monotonic() - start
        if profiler is not None:
            result.profile = profiler.to_dict(result.duration,
                                              result.campaigns)
        self._finalize(result)
        tracer.emit("run_end", target=self.target.NAME,
                    duration_s=round(result.duration, 6),
                    summary=result.summary())
        return result

    # ------------------------------------------------------------------

    def _drain_validation(self, profiler=None):
        """Validate every record queued since the last drain."""
        if not self.config.validate or not self.validation:
            return
        if profiler is None:
            self.validation.drain()
        else:
            with profiler.phase("validate"):
                self.validation.drain()

    def _harvest(self, result, campaign, seed, elapsed, capture=None):
        checker = campaign.checker
        tracer = self.tracer
        metrics = self.metrics
        result.op_errors += campaign.op_errors
        for candidate in checker.candidates:
            key = (candidate.read_instr, candidate.write_instr,
                   candidate.cross_thread)
            if key not in result._candidate_keys:
                result._candidate_keys.add(key)
                result.candidates.append(candidate)
                if result.first_candidate_time is None:
                    result.first_candidate_time = elapsed
                if metrics is not None:
                    metrics.counter("detect.candidates").inc()
                if tracer.enabled:
                    tracer.emit("candidate", kind=candidate.kind,
                                addr=candidate.addr,
                                read_code=candidate.read_instr,
                                write_code=candidate.write_instr)
        inter_found = 0
        for record in checker.inconsistencies:
            if record.kind == "inter":
                inter_found += 1
            key = record.dedup_key()
            if key in result._inconsistency_keys:
                # Dedup-equal duplicate: its crash image may settle a
                # kept record that arrived imageless (PENDING forever
                # before this hook existed), and its campaign's bundle
                # can make a bundle-less kept record replayable.
                self.validation.offer_image(key, record.crash_image)
                if capture is not None:
                    kept = result._inconsistency_keys[key]
                    if kept.bundle is None:
                        kept.bundle = capture.bundle_for(kept)
                continue
            result._inconsistency_keys[key] = record
            result.inconsistencies.append(record)
            if capture is not None:
                record.bundle = capture.bundle_for(record)
            if metrics is not None:
                metrics.counter("detect.inconsistencies.%s"
                                % record.kind).inc()
            if tracer.enabled:
                tracer.emit("inconsistency", kind=record.kind,
                            read_code=record.read_instr,
                            write_code=record.write_instr,
                            side_effect_addr=record.side_effect_addr)
            if self.config.validate:
                self.validation.enqueue(record)
            else:
                self.validation.register(record)
            if record.kind == "inter" and result.first_inter_time is None:
                result.first_inter_time = elapsed
        if inter_found:
            result.inter_hit_times.append((elapsed, inter_found))
        for record in checker.sync_inconsistencies:
            key = record.dedup_key()
            if key in result._sync_keys:
                self.validation.offer_image(key, record.crash_image)
                if capture is not None:
                    kept = result._sync_keys[key]
                    if kept.bundle is None:
                        kept.bundle = capture.bundle_for(kept)
                continue
            result._sync_keys[key] = record
            result.sync_inconsistencies.append(record)
            if capture is not None:
                record.bundle = capture.bundle_for(record)
            if metrics is not None:
                metrics.counter("detect.inconsistencies.sync").inc()
            if tracer.enabled:
                tracer.emit("inconsistency", kind="sync",
                            annotation=record.annotation_name,
                            addr=record.addr)
            if self.config.validate:
                self.validation.enqueue(record)
            else:
                self.validation.register(record)
        if campaign.outcome.status == "hang":
            hang = HangRecord(campaign.outcome.blocked, seed.seed_id)
            signature = hang.signature()
            sync_stall = all(reason is not None
                             and reason.startswith("cond_wait:")
                             for reason in signature) and signature
            if not sync_stall and signature \
                    and signature not in result._hang_signatures:
                result._hang_signatures.add(signature)
                result.hangs.append(hang)
                if metrics is not None:
                    metrics.counter("detect.hangs").inc()

    def _finalize(self, result):
        result._regroup()
