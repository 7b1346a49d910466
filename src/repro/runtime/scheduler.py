"""Deterministic cooperative scheduler for simulated threads.

Exactly one simulated thread runs at a time; every instrumented operation
calls :meth:`Scheduler.yield_point`, where the scheduler hands control to
the next thread chosen by the active :mod:`policy <repro.runtime.policies>`.
Given the same policy seed and a deterministic program, the interleaving is
fully reproducible — the property the fuzzer's execution tier relies on.

Blocking primitives (locks, the sync-point ``cond_wait``) are spin loops
over ``yield_point(kind="spin")``, so the scheduler can detect hangs the
way §4.2.2's pitfalls describe: "some threads block" and "all threads
block" conditions are spin-streak thresholds.

Hand-off is one binary lock per simulated thread used as a one-permit
semaphore: the yielding thread releases the successor's lock (granting the
single "go" permit) and parks by acquiring its own. Exactly one permit
exists at any time — the token of the running thread — so a raw lock
suffices and each hand-off costs one futex wake plus one futex wait,
without the Condition machinery of ``threading.Event``. Because at most
one thread is runnable, state mutations are serialized by construction; a
small lock protects the pieces the driver thread reads concurrently.

On Linux every simulated thread runs under ``SCHED_BATCH`` (set once, on
the thread, before its first park; the thread calling :meth:`run` keeps
its policy). Under the default policy the futex wake in
``nxt._go.release()`` lets the kernel preempt the releasing thread in
favour of the woken one when both share a CPU — but the releaser still
holds the GIL, so the woken thread can only block on the GIL and switch
straight back: two context switches per handoff instead of one. Batch
threads never preempt on wake-up. Execution is serialized, so the choice
has nothing to tune and no effect on the interleaving; it only pays when
the threads share a CPU (a pinned process), and is a no-op where the call
is refused.
"""

import threading

from .thread import SimThread, ThreadKilled, ThreadState


class Hang(Exception):
    """All live threads spun past the hang threshold, or budget exhausted."""

    def __init__(self, message, blocked=()):
        super().__init__(message)
        self.blocked = list(blocked)


class RunOutcome:
    """Result of one scheduled run.

    Attributes:
        status: "ok", "hang", "budget", or "error".
        steps: Total yield points executed.
        error: The first exception raised by a simulated thread, if any.
        blocked: ``(thread name, reason)`` pairs at hang time.
    """

    def __init__(self, status, steps, error=None, blocked=()):
        self.status = status
        self.steps = steps
        self.error = error
        self.blocked = list(blocked)

    @property
    def ok(self):
        return self.status == "ok"

    def __repr__(self):
        return "<RunOutcome %s steps=%d>" % (self.status, self.steps)


class Scheduler:
    """Serializes simulated threads and enforces hang/budget limits.

    Args:
        policy: Scheduling policy (see :mod:`repro.runtime.policies`).
        max_steps: Total yield-point budget before declaring "budget".
        spin_hang_limit: Consecutive spin yields per thread after which,
            if *every* live thread is spinning, the run is declared hung.
        thread_spin_limit: Consecutive spin yields after which a single
            thread is considered permanently blocked (e.g. on a leaked
            lock) even while others progress; defaults to 4x the hang
            limit.
        metrics: Optional :class:`~repro.obs.metrics.Metrics`; step
            totals are flushed once per run (not per yield) so the step
            loop itself stays observability-free.
    """

    def __init__(self, policy, max_steps=30_000, spin_hang_limit=400,
                 thread_spin_limit=None, metrics=None):
        self.policy = policy
        self.max_steps = max_steps
        self.spin_hang_limit = spin_hang_limit
        self.thread_spin_limit = thread_spin_limit or spin_hang_limit * 4
        self.metrics = metrics
        self.threads = []
        #: Live (not DONE) threads, maintained incrementally so the
        #: per-yield hot path never rebuilds the list by filtering.
        self._live_threads = []
        self.steps = 0
        self.spin_steps = 0
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._aborting = False
        self._outcome_status = "ok"
        self._blocked_report = []
        self._local = threading.local()
        self._started = False

    # ------------------------------------------------------------------
    # setup

    def spawn(self, fn, name=None):
        """Register a simulated thread running ``fn()``; returns it."""
        if self._started:
            raise RuntimeError("cannot spawn after run() started")
        thread = SimThread(self, len(self.threads), fn, name)
        thread._go = threading.Lock()
        thread._go.acquire()  # starts with no permit: parked until granted
        self.threads.append(thread)
        self._live_threads.append(thread)
        return thread

    def current(self):
        """The :class:`SimThread` executing on this OS thread, or None."""
        return getattr(self._local, "sim_thread", None)

    # ------------------------------------------------------------------
    # run loop (driver side)

    def run(self):
        """Start all threads, serialize them to completion; returns outcome."""
        if not self.threads:
            return RunOutcome("ok", 0)
        self._started = True
        for thread in self.threads:
            thread.start()
        first = self._pick(None)
        if first is not None:
            first._go.release()
        self._done.wait()
        for thread in self.threads:
            thread.join(timeout=5.0)
        error = next((t.error for t in self.threads if t.error is not None),
                     None)
        if error is not None and self._outcome_status == "ok":
            self._outcome_status = "error"
        if self.metrics is not None:
            self.metrics.counter("scheduler.runs").inc()
            self.metrics.counter("scheduler.steps").inc(self.steps)
            self.metrics.counter("scheduler.spin_steps").inc(self.spin_steps)
            self.metrics.counter(
                "scheduler.outcome.%s" % self._outcome_status).inc()
            self.metrics.histogram("scheduler.steps_per_run").observe(
                self.steps)
        return RunOutcome(self._outcome_status, self.steps, error,
                          self._blocked_report)

    # ------------------------------------------------------------------
    # thread side

    def _enter_thread(self, thread):
        self._local.sim_thread = thread
        thread._go.acquire()
        if self._aborting:
            raise ThreadKilled()

    def _exit_thread(self, thread):
        with self._lock:
            thread.state = ThreadState.DONE
            self._live_threads.remove(thread)
            if not self._live_threads:
                self._done.set()
                return
            if self._aborting:
                # _abort_locked already granted every thread its wake-up
                # permit; granting again would double-release a raw lock.
                return
            nxt = self._pick_locked(thread)
        if nxt is not None:
            nxt._go.release()

    def yield_point(self, kind="op", reason=None):
        """Surrender the processor; returns when rescheduled.

        Args:
            kind: "op" for ordinary instrumented operations, "spin" for
                busy-wait iterations inside blocking primitives.
            reason: Human-readable blocked reason (spin yields only).
        """
        thread = self.current()
        if thread is None:
            return  # driver code outside the simulation
        if self._aborting:
            raise ThreadKilled()
        with self._lock:
            self.steps += 1
            thread.steps += 1
            if kind == "spin":
                # Hang conditions can only *become* true at a spin yield
                # (op yields reset the yielding thread's streak, and both
                # threshold crossings happen on the crossing thread's own
                # spin yield), so op yields check only the step budget.
                thread.spin_streak += 1
                self.spin_steps += 1
                thread.blocked_reason = reason
                self._check_limits_locked()
            else:
                thread.spin_streak = 0
                thread.blocked_reason = None
                if self.steps >= self.max_steps:
                    self._abort_locked("budget")
            if self._aborting:
                raise ThreadKilled()
            self.policy.on_yield(self, thread, kind)
            nxt = self._pick_locked(thread)
        if nxt is thread or nxt is None:
            return
        nxt._go.release()
        thread._go.acquire()
        if self._aborting:
            raise ThreadKilled()

    # ------------------------------------------------------------------
    # internals

    def _check_limits_locked(self):
        if self.steps >= self.max_steps:
            self._abort_locked("budget")
            return
        live = self._live_threads
        if not live:
            return
        if all(t.spin_streak >= self.spin_hang_limit for t in live) or \
                any(t.spin_streak >= self.thread_spin_limit for t in live):
            self._blocked_report = [
                (t.name, t.blocked_reason) for t in live
                if t.spin_streak >= self.spin_hang_limit]
            self._abort_locked("hang")

    def _abort_locked(self, status):
        self._outcome_status = status
        self._aborting = True
        for thread in self.threads:
            try:
                thread._go.release()
            except RuntimeError:
                pass  # already holds a pending permit
        self._done.set()

    def _pick(self, prev):
        with self._lock:
            return self._pick_locked(prev)

    def _pick_locked(self, prev):
        live = self._live_threads
        if not live:
            return None
        for t in live:
            if t.sleep_steps:
                break
        else:
            # No sleepers (the common case outside delay injection): the
            # filtered candidate list would equal ``live``, so hand the
            # live list straight to the policy. Policies never mutate or
            # retain it, and contents/order match the filtered copy, so
            # rng.choice draws stay identical.
            return self.policy.pick(self, live, prev)
        candidates = [t for t in live if t.sleep_steps == 0]
        if not candidates:
            for t in live:
                t.sleep_steps = max(0, t.sleep_steps - 1)
            candidates = [t for t in live if t.sleep_steps == 0] or live
        chosen = self.policy.pick(self, candidates, prev)
        for t in live:
            if t is not chosen and t.sleep_steps:
                t.sleep_steps -= 1
        return chosen

    # ------------------------------------------------------------------
    # hang-awareness queries used by the sync-point controller

    def some_thread_blocked(self, threshold):
        """True if any live thread spun at least ``threshold`` times."""
        return any(t.spin_streak >= threshold for t in self._live_threads)

    def all_threads_blocked(self, threshold):
        """True if every live thread spun at least ``threshold`` times."""
        live = self._live_threads
        return bool(live) and all(t.spin_streak >= threshold for t in live)
