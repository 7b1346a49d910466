"""One fuzz campaign: a single scheduled execution plus its checkers.

A campaign wires a target instance, a seed's per-thread operation lists,
the active scheduling policy, and (optionally) a sync-point controller
into one deterministic run, and returns its outcome and the detected
inconsistencies.

Fuzzing feedback is the caller's business: the engine and the corpus
probe pass their coverage collectors and access profiler through
``extra_observers`` and read them back, so a replay (``repro replay``,
``repro shrink`` and every shrink candidate) runs with the checker
alone.
"""

from ..detect.checkers import InconsistencyChecker
from ..instrument.context import InstrumentationContext
from ..instrument.hooks import PmView
from ..runtime.scheduler import Scheduler
from .syncpoints import SyncPointController


class CampaignResult:
    """Everything observed during one campaign."""

    def __init__(self, outcome, checker, controller, op_errors):
        self.outcome = outcome
        self.checker = checker
        self.controller = controller
        self.op_errors = op_errors

    @property
    def hang(self):
        return self.outcome.status in ("hang", "budget")

    def __repr__(self):
        return ("<CampaignResult %s cand=%d inc=%d sync=%d>"
                % (self.outcome.status, len(self.checker.candidates),
                   len(self.checker.inconsistencies),
                   len(self.checker.sync_inconsistencies)))


def run_campaign(target, state, seed_threads, policy, entry=None, rng=None,
                 initial_skips=None, writer_waiting=150, taint_enabled=True,
                 snapshot_images=True, capture_stacks=True,
                 max_steps=30_000, spin_hang_limit=400, extra_observers=(),
                 metrics=None, callsites=None, evict_fraction=0.0,
                 evict_rng=None, scheduler_factory=None):
    """Execute one campaign; returns a :class:`CampaignResult`.

    Args:
        target: The :class:`~repro.targets.base.Target`.
        state: An initialized (fresh or checkpoint-restored) TargetState.
        seed_threads: List of per-thread operation lists.
        policy: Scheduling policy instance (already seeded).
        entry: Optional SharedAccessEntry enabling sync-point scheduling.
            Entries carry *interned* instruction ids from the run's
            CallSiteTable — either profiled dynamically or pre-seeded
            from pmlint hints (``PMRaceConfig.static_hints``); hint
            entries have ``addr == -1``, which matches no real address,
            so the controller signals on instruction-id match only.
        rng: RNG for privileged-thread selection.
        initial_skips: Carried-over cond_wait skip counts (Pitfall 3).
        writer_waiting: Writer stall length after cond_signal.
        extra_observers: Observers registered after the checker, in
            order (the engine's coverage collectors and profiler).
        metrics: Optional :class:`~repro.obs.metrics.Metrics` registry
            wired into the PM access hooks and the scheduler.
        callsites: The run-wide :class:`~repro.instrument.callsite.
            CallSiteTable`; standalone campaigns get a private table.
        evict_fraction: Per-line probability of pre-crash cache eviction
            applied to the checker's crash images.
        evict_rng: Campaign RNG for eviction sampling (from the engine so
            eviction patterns follow the campaign seed).
        scheduler_factory: Scheduler class (or factory with the same
            signature); :class:`~repro.replay.ReplayScheduler` replays
            recorded campaigns through this hook. Defaults to
            :class:`~repro.runtime.scheduler.Scheduler`.
    """
    ctx = InstrumentationContext(annotations=state.annotations,
                                 taint_enabled=taint_enabled,
                                 capture_stacks=capture_stacks,
                                 metrics=metrics, callsites=callsites)
    checker = ctx.add_observer(InconsistencyChecker(
        state.pool, snapshot_images=snapshot_images, callsites=ctx.callsites,
        evict_fraction=evict_fraction, evict_rng=evict_rng))
    for observer in extra_observers:
        ctx.add_observer(observer)
    scheduler = (scheduler_factory or Scheduler)(
        policy, max_steps=max_steps, spin_hang_limit=spin_hang_limit,
        metrics=metrics)
    view = PmView(state.pool, scheduler, ctx)
    controller = None
    if entry is not None:
        controller = SyncPointController(
            entry, scheduler, rng=rng, writer_waiting=writer_waiting,
            initial_skips=initial_skips, callsites=ctx.callsites)
        ctx.controller = controller
    instance = target.open(state, view, scheduler)
    op_errors = [0]

    def make_worker(ops):
        def worker():
            for op in ops:
                status = target.exec_op(instance, view, op)
                if status is False:
                    op_errors[0] += 1
        return worker

    for tid, ops in enumerate(seed_threads):
        scheduler.spawn(make_worker(ops), "worker-%d" % tid)
    outcome = scheduler.run()
    return CampaignResult(outcome, checker, controller, op_errors[0])
