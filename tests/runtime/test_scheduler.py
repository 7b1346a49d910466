"""Scheduler tests: determinism, hang detection, budgets, errors."""

import os
import threading

import pytest

from repro.runtime import (
    RoundRobinPolicy,
    Scheduler,
    SeededRandomPolicy,
    ThreadKilled,
)


def collect_run(policy, n_threads=3, steps=20, **kwargs):
    """Run n threads that log (tid, i) at each yield; returns the log."""
    scheduler = Scheduler(policy, **kwargs)
    log = []

    def worker(tid):
        for i in range(steps):
            log.append((tid, i))
            scheduler.yield_point("op")

    for tid in range(n_threads):
        scheduler.spawn(lambda tid=tid: worker(tid), "w%d" % tid)
    outcome = scheduler.run()
    return outcome, log


class TestBasicScheduling:
    def test_all_threads_complete(self):
        outcome, log = collect_run(RoundRobinPolicy())
        assert outcome.ok
        assert len(log) == 60

    def test_round_robin_interleaves(self):
        _outcome, log = collect_run(RoundRobinPolicy(), n_threads=2, steps=5)
        tids = [tid for tid, _ in log]
        assert 0 in tids and 1 in tids
        # strict alternation after both have started
        assert tids[2:6] in ([0, 1, 0, 1], [1, 0, 1, 0])

    def test_single_thread(self):
        outcome, log = collect_run(RoundRobinPolicy(), n_threads=1, steps=7)
        assert outcome.ok
        assert log == [(0, i) for i in range(7)]

    def test_no_threads(self):
        assert Scheduler(RoundRobinPolicy()).run().ok

    def test_steps_counted(self):
        outcome, _ = collect_run(RoundRobinPolicy(), n_threads=2, steps=10)
        assert outcome.steps == 20

    def test_spawn_after_run_rejected(self):
        scheduler = Scheduler(RoundRobinPolicy())
        scheduler.spawn(lambda: None)
        scheduler.run()
        with pytest.raises(RuntimeError):
            scheduler.spawn(lambda: None)


class TestDeterminism:
    def test_same_seed_same_interleaving(self):
        _, log1 = collect_run(SeededRandomPolicy(42))
        _, log2 = collect_run(SeededRandomPolicy(42))
        assert log1 == log2

    def test_different_seed_different_interleaving(self):
        logs = {tuple(collect_run(SeededRandomPolicy(seed))[1])
                for seed in range(6)}
        assert len(logs) > 1


class TestHangDetection:
    def test_all_threads_spinning(self):
        scheduler = Scheduler(RoundRobinPolicy(), spin_hang_limit=20)

        def spinner():
            while True:
                scheduler.yield_point("spin", "stuck")

        scheduler.spawn(spinner)
        scheduler.spawn(spinner)
        outcome = scheduler.run()
        assert outcome.status == "hang"
        assert ("thread-0", "stuck") in outcome.blocked

    def test_single_thread_spin_cap(self):
        scheduler = Scheduler(RoundRobinPolicy(), spin_hang_limit=20,
                              thread_spin_limit=50)
        progress = []

        def spinner():
            while True:
                scheduler.yield_point("spin", "lock:x")

        def worker():
            for i in range(10_000):
                progress.append(i)
                scheduler.yield_point("op")

        scheduler.spawn(spinner)
        scheduler.spawn(worker)
        outcome = scheduler.run()
        assert outcome.status == "hang"
        # the worker never had to finish for the hang to be declared
        assert len(progress) < 10_000

    def test_op_yield_resets_streak(self):
        scheduler = Scheduler(RoundRobinPolicy(), spin_hang_limit=10,
                              thread_spin_limit=40)

        def mixed():
            for _ in range(200):
                scheduler.yield_point("spin", "brief")
                scheduler.yield_point("op")

        scheduler.spawn(mixed)
        assert scheduler.run().ok

    def test_budget(self):
        scheduler = Scheduler(RoundRobinPolicy(), max_steps=50)

        def runner():
            while True:
                scheduler.yield_point("op")

        scheduler.spawn(runner)
        outcome = scheduler.run()
        assert outcome.status == "budget"
        assert outcome.steps >= 50

    def test_blocked_queries(self):
        scheduler = Scheduler(RoundRobinPolicy(), spin_hang_limit=1000)
        seen = []

        def spinner():
            for _ in range(30):
                scheduler.yield_point("spin", "x")
            seen.append(scheduler.some_thread_blocked(20))
            seen.append(scheduler.all_threads_blocked(20))
            seen.append(scheduler.all_threads_blocked(10_000))

        scheduler.spawn(spinner)
        scheduler.run()
        assert seen == [True, True, False]


class TestErrors:
    def test_thread_exception_reported(self):
        scheduler = Scheduler(RoundRobinPolicy())

        def boom():
            scheduler.yield_point("op")
            raise ValueError("kaboom")

        scheduler.spawn(boom)
        scheduler.spawn(lambda: None)
        outcome = scheduler.run()
        assert outcome.status == "error"
        assert isinstance(outcome.error, ValueError)

    def test_other_threads_killed_on_hang(self):
        scheduler = Scheduler(RoundRobinPolicy(), spin_hang_limit=10,
                              thread_spin_limit=20)
        finished = []

        def spinner():
            while True:
                scheduler.yield_point("spin", "dead")

        def slow():
            try:
                while True:
                    scheduler.yield_point("op")
            except ThreadKilled:
                finished.append("killed")
                raise

        scheduler.spawn(spinner)
        scheduler.spawn(slow)
        outcome = scheduler.run()
        assert outcome.status in ("hang", "budget")

    def test_yield_outside_simulation_is_noop(self):
        scheduler = Scheduler(RoundRobinPolicy())
        scheduler.yield_point("op")  # driver thread: no crash
        assert scheduler.steps == 0


class TestDelaySleeping:
    def test_sleeping_thread_skipped(self):
        scheduler = Scheduler(RoundRobinPolicy())
        order = []

        def sleeper():
            order.append("s-start")
            thread = scheduler.current()
            thread.sleep_steps = 5
            scheduler.yield_point("op")
            order.append("s-end")

        def runner():
            for _ in range(3):
                order.append("r")
                scheduler.yield_point("op")

        scheduler.spawn(sleeper)
        scheduler.spawn(runner)
        assert scheduler.run().ok
        # runner makes progress while the sleeper is parked
        assert order.index("s-end") > order.index("r")


def _batch_policy_allowed():
    """Whether this host lets a thread switch itself to SCHED_BATCH."""
    if not hasattr(os, "SCHED_BATCH"):
        return False
    allowed = []

    def probe():
        try:
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
            allowed.append(True)
        except OSError:
            pass

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join()
    return bool(allowed)


@pytest.mark.skipif(not _batch_policy_allowed(),
                    reason="SCHED_BATCH unavailable or refused here")
class TestBatchPolicy:
    def test_campaign_threads_run_batch_main_untouched(self, monkeypatch):
        """Every yield of a real campaign happens on a SCHED_BATCH
        thread; the main thread keeps its policy."""
        from repro.core.engine import PMRaceConfig, fuzz_target

        from ..core.toy_target import ToyTarget

        policies = []
        real_yield = Scheduler.yield_point

        def recording_yield(self, kind="op", reason=None):
            if self.current() is not None:
                policies.append(os.sched_getscheduler(0))
            return real_yield(self, kind, reason)

        monkeypatch.setattr(Scheduler, "yield_point", recording_yield)
        before = os.sched_getscheduler(0)
        fuzz_target(ToyTarget(), PMRaceConfig(max_campaigns=2), seeds=(7,))
        assert policies
        assert set(policies) == {os.SCHED_BATCH}
        assert os.sched_getscheduler(0) == before

