"""Lean replay: a replay or shrink does only the work its caller reads.

Replays run the checker alone (no coverage collectors or access
profiler), every candidate of one shrink shares one state provider,
failed shrink candidates are answered from memory when ddmin proposes
them again, and hooks intern stacks only when a checker creates a
candidate or record. None of it may change what a replay or shrink
returns; these tests compare each lean path against the full one.
"""

import json
import os

import pytest

from repro.core.coverage import AliasCoverageCollector, BranchCoverageCollector
from repro.core.priority import AccessProfiler
from repro.detect.records import Verdict
from repro.detect.validation_service import make_validation_queue
from repro.replay import ReproBundle, minimize, replay_bundle, replayer
from repro.replay.minimize import shrink_bundle

from .conftest import bundled_records, capture_run

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "memcached-pmem-bug.json")


@pytest.fixture(scope="module")
def golden_bundle():
    return ReproBundle.load(GOLDEN)


@pytest.fixture(scope="module")
def txkv_bundle():
    """The smallest inter bundle of a checkpointed target (txkv's PMDK
    pool is set up once and restored)."""
    records = bundled_records(capture_run("txkv", max_campaigns=10))
    inter = [record.bundle for record in records if record.kind == "inter"]
    assert inter, "pinned-seed txkv run found no inter inconsistency"
    return min(inter, key=lambda bundle: bundle.op_count)


def _candidate_stack(record):
    candidate = getattr(record, "candidate", None)
    return candidate.stack if candidate is not None else None


def _replay_facts(outcome):
    run = outcome.run
    return {
        "keys": run.keys,
        "first_key": run.first_key,
        "decisions": run.decisions,
        "priv_draws": run.priv_draws,
        "evict_draws": run.evict_draws,
        "verdict": outcome.verdict,
        "stacks": [(key, record.stack, _candidate_stack(record))
                   for key, record in sorted(run.records.items())],
        "status": run.status,
    }


def _with_collectors(monkeypatch):
    """Make every replay campaign also run the fuzzer's collectors."""
    original = replayer.run_campaign

    def full(*args, **kwargs):
        kwargs["extra_observers"] = (BranchCoverageCollector(),
                                     AliasCoverageCollector(),
                                     AccessProfiler())
        return original(*args, **kwargs)

    monkeypatch.setattr(replayer, "run_campaign", full)


def test_lean_replay_matches_replay_with_collectors(golden_bundle,
                                                    monkeypatch):
    lean = replay_bundle(golden_bundle, validation=make_validation_queue(
        golden_bundle.target))
    _with_collectors(monkeypatch)
    full = replay_bundle(golden_bundle, validation=make_validation_queue(
        golden_bundle.target))
    assert _replay_facts(lean) == _replay_facts(full)
    # ...and both are the recorded campaign, not merely equal.
    assert lean.ok and lean.verdict is Verdict.BUG
    assert lean.run.decisions == golden_bundle.schedule
    assert lean.run.priv_draws == golden_bundle.priv_draws
    assert lean.run.evict_draws == golden_bundle.evict_draws
    bundled = lean.run.records[golden_bundle.dedup_key]
    assert bundled.stack and bundled.candidate.stack


class _Forgetful(set):
    """A memo that never remembers."""

    def __contains__(self, item):
        return False


def _plain_shrink(bundle, budget, monkeypatch):
    """Shrink with a fresh provider per candidate and no memo."""
    with monkeypatch.context() as patch:
        patch.setattr(minimize, "make_bundle_provider", lambda bundle: None)
        original_init = minimize._Shrinker.__init__

        def init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            self.failed = _Forgetful()

        patch.setattr(minimize._Shrinker, "__init__", init)
        return shrink_bundle(bundle, budget=budget)


def _lean_shrink(bundle, budget, monkeypatch):
    """Shrink as shipped; counts replays and the providers they used."""
    replays = []
    original = minimize.replay_campaign

    def counting(*args, **kwargs):
        replays.append(kwargs.get("provider"))
        return original(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(minimize, "replay_campaign", counting)
        result = shrink_bundle(bundle, budget=budget)
    return result, replays


def _shrink_facts(result):
    return (result.summary(), result.steps, result.bundle.ops,
            result.bundle.schedule, result.bundle.priv_draws,
            result.bundle.evict_draws, result.bundle.first_key)


@pytest.mark.parametrize("budget", [200, 12], ids=["full", "capped"])
def test_memo_and_shared_provider_keep_the_shrink(txkv_bundle, budget,
                                                  monkeypatch):
    lean, replays = _lean_shrink(txkv_bundle, budget, monkeypatch)
    plain = _plain_shrink(txkv_bundle, budget, monkeypatch)
    assert _shrink_facts(lean) == _shrink_facts(plain)
    assert lean.verified
    if budget < 200:
        assert lean.tests == budget  # the cap was reached
    # One provider for the whole shrink, and some repeats not replayed.
    providers = {id(provider) for provider in replays}
    assert len(providers) == 1 and None not in replays
    provider = replays[0]
    assert provider.use_checkpoints and provider.setup_count == 1
    assert provider.restore_count == len(replays) - 1
    assert len(replays) < lean.tests


def test_golden_shrink_memo_keeps_the_shrink(golden_bundle, monkeypatch):
    # CI's "Shrink the golden bundle" step: same budget, same expectation.
    with open(GOLDEN[:-len(".json")] + ".shrink.json") as handle:
        expected = json.load(handle)
    lean, replays = _lean_shrink(golden_bundle, expected["budget"],
                                 monkeypatch)
    plain = _plain_shrink(golden_bundle, expected["budget"], monkeypatch)
    assert _shrink_facts(lean) == _shrink_facts(plain)
    assert len(replays) < lean.tests
    assert (lean.min_ops, lean.min_schedule) == \
        (expected["min_ops"], expected["min_schedule"])


def test_best_candidate_does_not_keep_the_run(txkv_bundle):
    shrinker = minimize._Shrinker(txkv_bundle, 50, None, False,
                                  minimize.NULL_TRACER, None)
    assert shrinker.test(shrinker.pairs, list(txkv_bundle.schedule),
                         "baseline")
    best = shrinker.best
    assert not any(isinstance(getattr(best, name), replayer.ReplayRun)
                   or hasattr(getattr(best, name), "checker")
                   for name in best.__slots__)
    assert best.decisions and best.first_key is not None
