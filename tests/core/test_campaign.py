"""run_campaign tests over the toy target."""

import pytest

from repro.core import (
    AccessProfiler,
    AliasCoverageCollector,
    BranchCoverageCollector,
    run_campaign,
)
from repro.runtime import SeededRandomPolicy

from .toy_target import ToyTarget


def run_toy(ops_by_thread, seed=0, **kwargs):
    target = ToyTarget()
    state = target.setup()
    policy = SeededRandomPolicy(seed)
    return run_campaign(target, state, ops_by_thread, policy, **kwargs)


BUMPY = [[{"op": "bump", "key": 0}] * 3 for _ in range(3)]


class TestRunCampaign:
    def test_completes(self):
        result = run_toy(BUMPY)
        assert result.outcome.ok
        assert not result.hang

    def test_detects_candidates_and_inconsistencies(self):
        result = run_toy(BUMPY, seed=5)
        assert result.checker.candidates
        assert result.checker.inconsistencies

    def test_collects_coverage(self):
        branch, profiler = BranchCoverageCollector(), AccessProfiler()
        run_toy(BUMPY, extra_observers=[branch, profiler])
        assert branch.edges
        assert profiler.profile

    def test_alias_pairs_on_contention(self):
        alias = AliasCoverageCollector()
        run_toy(BUMPY, seed=3, extra_observers=[alias])
        assert alias.pairs

    def test_op_errors_counted(self):
        result = run_toy([[{"op": "nonsense", "key": 0}]])
        assert result.op_errors == 1

    def test_sync_inconsistency_recorded(self):
        result = run_toy(BUMPY)
        names = {r.annotation_name
                 for r in result.checker.sync_inconsistencies}
        assert names == {"toy_lock"}

    def test_determinism(self):
        runs = []
        for _ in range(2):
            branch, alias = BranchCoverageCollector(), AliasCoverageCollector()
            result = run_toy(BUMPY, seed=11, extra_observers=[branch, alias])
            runs.append((len(result.checker.candidates), branch.edges,
                         alias.pairs))
        assert runs[0] == runs[1]

    def test_attaches_only_checker_and_extras(self, monkeypatch):
        # Coverage and the access profile are fuzzing feedback the
        # engine passes in; a bare campaign (a replay) runs without them.
        from repro.detect.checkers import InconsistencyChecker
        from repro.instrument.context import InstrumentationContext

        added = []
        original = InstrumentationContext.add_observer

        def spy(ctx, observer):
            added.append(type(observer))
            return original(ctx, observer)

        monkeypatch.setattr(InstrumentationContext, "add_observer", spy)
        run_toy(BUMPY)
        assert added == [InconsistencyChecker]
        del added[:]
        alias = AliasCoverageCollector()
        run_toy(BUMPY, extra_observers=[alias])
        assert added == [InconsistencyChecker, AliasCoverageCollector]

    def test_taint_can_be_disabled(self):
        result = run_toy(BUMPY, seed=5, taint_enabled=False)
        assert not result.checker.inconsistencies

    def test_extra_observers(self):
        from repro.instrument.events import Observer

        class Counter(Observer):
            count = 0

            def on_store(self, event):
                self.count += 1

        counter = Counter()
        run_toy(BUMPY, extra_observers=[counter])
        assert counter.count > 0

    def test_single_thread_no_inter(self):
        result = run_toy([[{"op": "bump", "key": 0}] * 4])
        assert not result.checker.inter_candidates
        assert result.checker.intra_candidates
