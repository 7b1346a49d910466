"""Durable session layer: journal, checkpoints, recovery, fault injection.

Everything here runs in-process against real pmring/Toy engine sessions —
faults are injected through :class:`FaultInjector` rather than real
signals, so the torn-write / disk-full / crash recovery paths are
deterministic unit tests, not chaos lottery (the subprocess chaos lives
in ``tests/integration/test_chaos_recovery.py``).
"""

import errno
import json
import os
from collections import Counter

import pytest

from repro.core import PMRaceConfig
from repro.core import session as session_module
from repro.core.session import (
    FAULT_ENV,
    FaultInjector,
    ImageStore,
    InjectedFault,
    Session,
    SessionError,
    append_jsonl,
    atomic_write_json,
    atomic_write_text,
    read_journal,
    result_fingerprint,
    result_from_doc,
    result_to_doc,
    run_fuzz_session,
)
from repro.detect.records import Verdict


def small_config(**overrides):
    options = {"max_campaigns": 8, "max_seeds": 3}
    options.update(overrides)
    return PMRaceConfig(**options)


def open_session(directory, seeds=(7, 13), config=None, **kwargs):
    return Session.open(str(directory), "pmring", "serial", seeds,
                        config or small_config(),
                        fault=kwargs.pop("fault", FaultInjector()),
                        **kwargs)


def run_session(directory, seeds=(7, 13), config=None, session=None):
    session = session or open_session(directory, seeds, config)
    result, interrupted = run_fuzz_session(
        "pmring", config or small_config(), seeds, session)
    assert interrupted is None
    return session, result


# ----------------------------------------------------------------------


class TestFaultInjector:
    def test_parses_env_specs(self):
        fault = FaultInjector.from_env(
            {FAULT_ENV: "checkpoint_write:torn:2, journal_append:enospc"})
        assert bool(fault)
        assert fault.check("checkpoint_write") is None   # countdown 2->1
        assert fault.check("checkpoint_write") == "torn"
        with pytest.raises(OSError):
            fault.check("journal_append")
        # Arms are one-shot: both have fired.
        assert fault.check("checkpoint_write") is None
        assert fault.check("journal_append") is None
        assert fault.fired == [("checkpoint_write", "torn"),
                               ("journal_append", "enospc")]

    def test_empty_env_is_inert(self):
        fault = FaultInjector.from_env({})
        assert not fault
        assert fault.check("checkpoint_write") is None

    def test_rejects_malformed_specs(self):
        for spec in ("checkpoint_write", "x:explode", "x:kill:0",
                     "a:b:c:d"):
            with pytest.raises(ValueError):
                FaultInjector([spec])

    def test_crash_action_raises(self):
        fault = FaultInjector(["checkpoint_write:crash"])
        with pytest.raises(InjectedFault):
            fault.check("checkpoint_write")


class TestDurableWrites:
    def test_atomic_write_replaces_whole_file(self, tmp_path):
        path = str(tmp_path / "doc.json")
        atomic_write_json(path, {"v": 1})
        atomic_write_json(path, {"v": 2})
        with open(path) as handle:
            assert json.load(handle) == {"v": 2}
        assert not [name for name in os.listdir(str(tmp_path))
                    if ".tmp." in name]

    def test_torn_write_never_touches_committed_file(self, tmp_path):
        path = str(tmp_path / "doc.json")
        atomic_write_json(path, {"v": 1})
        fault = FaultInjector(["atomic_write:torn"])
        with pytest.raises(InjectedFault):
            atomic_write_json(path, {"v": 2, "pad": "x" * 256},
                              fault=fault)
        with open(path) as handle:
            assert json.load(handle) == {"v": 1}

    def test_enospc_never_touches_committed_file(self, tmp_path):
        path = str(tmp_path / "doc.json")
        atomic_write_json(path, {"v": 1})
        fault = FaultInjector(["atomic_write:enospc"])
        with pytest.raises(OSError):
            atomic_write_json(path, {"v": 2}, fault=fault)
        with open(path) as handle:
            assert json.load(handle) == {"v": 1}

    def test_journal_tolerates_torn_tail(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        append_jsonl(path, {"n": 1})
        append_jsonl(path, {"n": 2})
        fault = FaultInjector(["journal_append:torn"])
        with pytest.raises(InjectedFault):
            append_jsonl(path, {"n": 3, "pad": "y" * 64}, fault=fault)
        records, torn = read_journal(path)
        assert records == [{"n": 1}, {"n": 2}]
        assert torn == 1

    def test_journal_rejects_corruption_before_tail(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w") as handle:
            handle.write('{"n": 1}\nGARBAGE\n{"n": 2}\n')
        with pytest.raises(SessionError):
            read_journal(path)

    def test_missing_journal_is_empty(self, tmp_path):
        assert read_journal(str(tmp_path / "nope.jsonl")) == ([], 0)


class TestImageStore:
    def test_put_get_round_trip_and_dedup(self, tmp_path):
        store = ImageStore(str(tmp_path / "images"))
        image = bytearray(b"\x00\x01persistent pool bytes\xff" * 9)
        ref = store.put(image)
        assert store.put(bytearray(image)) == ref  # idempotent
        assert store.get(ref) == image
        assert len(os.listdir(str(tmp_path / "images"))) == 1

    def test_corrupt_image_file_reads_as_missing(self, tmp_path):
        store = ImageStore(str(tmp_path / "images"))
        ref = store.put(bytearray(b"good image bytes"))
        with open(os.path.join(str(tmp_path / "images"), ref + ".bin"),
                  "wb") as handle:
            handle.write(b"torn")
        assert store.get(ref) is None
        assert store.get("deadbeef-12") is None


class TestSessionLifecycle:
    def test_fresh_dir_refuses_double_open_without_resume(self, tmp_path):
        open_session(tmp_path)
        with pytest.raises(SessionError, match="--resume"):
            open_session(tmp_path)

    def test_resume_validates_manifest(self, tmp_path):
        open_session(tmp_path, seeds=(7, 13))
        with pytest.raises(SessionError, match="seeds"):
            open_session(tmp_path, seeds=(7, 14), resume=True)
        with pytest.raises(SessionError, match="config"):
            open_session(tmp_path, seeds=(7, 13), resume=True,
                         config=small_config(max_campaigns=9))
        resumed = open_session(tmp_path, seeds=(7, 13), resume=True)
        assert resumed.resumed

    def test_resume_rejects_foreign_schema(self, tmp_path):
        session = open_session(tmp_path)
        manifest = dict(session.manifest, version=99)
        atomic_write_json(os.path.join(str(tmp_path), "MANIFEST.json"),
                          manifest)
        with pytest.raises(SessionError, match="schema"):
            open_session(tmp_path, resume=True)

    def test_done_units_is_union_of_journal_and_checkpoint(self, tmp_path):
        """A crash between checkpoint write and journal append leaves
        the checkpoint ahead of the journal; the unit must still count
        as done (never re-merged, never lost)."""
        session, result = run_session(tmp_path)
        # Simulate the torn window: drop the journal's unit lines but
        # keep the checkpoint (which embeds its units).
        with open(session.journal_path, "w") as handle:
            handle.write(json.dumps({"type": "session_open"}) + "\n")
        resumed = open_session(tmp_path, resume=True)
        assert resumed.done_units() == {0, 1}

    def test_retry_ledger_tracks_attempts(self, tmp_path):
        session = open_session(tmp_path)
        session.record_unit(0, 7, 0, "failed")
        session.record_unit(0, 1234, 1, "failed")
        session.record_unit(1, 13, 0, "ok", campaigns=8)
        ledger = session.retry_ledger()
        assert ledger[0] == (2, 1234)
        assert ledger[1] == (1, 13)


class TestCheckpointRoundTrip:
    def test_fingerprint_survives_doc_round_trip(self, tmp_path):
        session, result = run_session(tmp_path)
        restored = session.load_checkpoint(small_config())
        assert result_fingerprint(restored) == result_fingerprint(result)
        # The dedup maps were rebuilt: merging the restored result with
        # itself must not duplicate records.
        records_before = len(restored.inconsistencies)
        restored.merge(session.load_checkpoint(small_config()))
        assert len(restored.inconsistencies) == records_before

    def test_crash_images_and_verdicts_round_trip(self, tmp_path):
        session, result = run_session(tmp_path)
        restored = session.load_checkpoint(small_config())
        originals = {r.dedup_key(): r for r in result.inconsistencies
                     + result.sync_inconsistencies}
        assert originals
        for record in restored.inconsistencies \
                + restored.sync_inconsistencies:
            original = originals[record.dedup_key()]
            assert record.verdict is original.verdict
            assert record.note == original.note
            if original.crash_image is not None:
                assert bytes(record.crash_image) == \
                    bytes(original.crash_image)

    def test_worker_stats_and_corpus_round_trip(self, tmp_path):
        session, result = run_session(tmp_path)
        restored = session.load_checkpoint(small_config())
        assert [s.to_dict() for s in restored.worker_stats] == \
            [s.to_dict() for s in result.worker_stats]
        assert sorted(e["digest"] for e in restored.corpus_seeds) == \
            sorted(e["digest"] for e in result.corpus_seeds)

    def test_doc_is_json_safe(self, tmp_path):
        session, result = run_session(tmp_path)
        doc = result_to_doc(result, session.images)
        rebuilt = json.loads(json.dumps(doc))
        restored = result_from_doc(rebuilt, session.images,
                                   small_config())
        assert result_fingerprint(restored) == result_fingerprint(result)

    def test_corpus_dir_mirrors_merged_corpus(self, tmp_path):
        session, result = run_session(tmp_path)
        digests = {entry["digest"] for entry in result.corpus_seeds}
        assert digests
        on_disk = {name[:-5] for name in
                   os.listdir(os.path.join(str(tmp_path), "corpus"))}
        assert digests <= on_disk


class TestFaultContainment:
    def test_enospc_during_checkpoint_keeps_previous(self, tmp_path):
        """An injected full-disk on the second checkpoint degrades the
        session (counted) but the first committed checkpoint survives
        bit-for-bit."""
        fault = FaultInjector(["checkpoint_write:enospc:2"])
        session = open_session(tmp_path, fault=fault)
        config = small_config()
        result, interrupted = run_fuzz_session("pmring", config, (7, 13),
                                               session)
        assert interrupted is None
        assert session.write_errors >= 1
        doc = json.loads(open(session.checkpoint_path).read())
        # Write 2 (the unit-1 checkpoint) hit ENOSPC and was dropped;
        # the final checkpoint went through and holds the full result.
        restored = session.load_checkpoint(small_config())
        assert result_fingerprint(restored) == result_fingerprint(result)
        assert doc["final"]

    def test_torn_checkpoint_keeps_previous(self, tmp_path):
        fault = FaultInjector(["checkpoint_write:torn:2"])
        session = open_session(tmp_path, fault=fault)
        with pytest.raises(InjectedFault):
            run_fuzz_session("pmring", small_config(), (7, 13), session)
        # The process "died" mid-unit-1-checkpoint: the committed file
        # still holds the complete unit-0 checkpoint.
        resumed = open_session(tmp_path, resume=True)
        restored = resumed.load_checkpoint(small_config())
        assert restored is not None
        assert restored.campaigns == 8
        assert resumed.done_units() == {0}

    def test_crash_resume_matches_uninterrupted_golden(self, tmp_path):
        _, golden = run_session(tmp_path / "golden")
        fault = FaultInjector(["journal_append:crash:2"])
        chaos = open_session(tmp_path / "chaos", fault=fault)
        with pytest.raises(InjectedFault):
            run_fuzz_session("pmring", small_config(), (7, 13), chaos)
        resumed = open_session(tmp_path / "chaos", resume=True)
        result, interrupted = run_fuzz_session(
            "pmring", small_config(), (7, 13), resumed, )
        assert interrupted is None
        assert result_fingerprint(result) == result_fingerprint(golden)

    def test_resume_skips_finished_units(self, tmp_path):
        session, first = run_session(tmp_path)
        resumed = open_session(tmp_path, resume=True)
        again, interrupted = run_fuzz_session(
            "pmring", small_config(), (7, 13), resumed)
        assert interrupted is None
        # Nothing re-ran: campaigns did not double.
        assert again.campaigns == first.campaigns
        assert result_fingerprint(again) == result_fingerprint(first)


def _tmp_leftovers(root):
    return [os.path.join(path, name)
            for path, _dirs, names in os.walk(str(root))
            for name in names if ".tmp." in name]


def _raise_enospc(_fd):
    raise OSError(errno.ENOSPC, "No space left on device")


class TestRealWriteErrors:
    """A real ``OSError`` in a write or fsync (not an injected ``torn``
    crash) must not leave ``<path>.tmp.<pid>`` behind."""

    def test_enospc_on_checkpoint_fsync_leaks_nothing(self, tmp_path,
                                                      monkeypatch):
        session, result = run_session(tmp_path)
        with open(session.checkpoint_path, "rb") as handle:
            committed = handle.read()
        errors = session.write_errors
        monkeypatch.setattr(os, "fsync", _raise_enospc)
        assert not session.write_checkpoint(result, {0, 1}, final=False,
                                            interrupted=2)
        monkeypatch.undo()
        assert session.write_errors == errors + 1 == 1
        assert _tmp_leftovers(tmp_path) == []
        with open(session.checkpoint_path, "rb") as handle:
            assert handle.read() == committed

    def test_enospc_on_image_write_leaks_nothing(self, tmp_path,
                                                 monkeypatch):
        store = ImageStore(str(tmp_path / "images"))
        monkeypatch.setattr(os, "fsync", _raise_enospc)
        with pytest.raises(OSError):
            store.put(bytearray(b"image bytes"))
        monkeypatch.undo()
        assert _tmp_leftovers(tmp_path) == []
        # Nothing was remembered as durable: the next put writes it.
        ref = store.put(bytearray(b"image bytes"))
        assert store.get(ref) == bytearray(b"image bytes")

    def test_injected_torn_write_keeps_its_tmp_file(self, tmp_path):
        path = str(tmp_path / "f.json")
        with pytest.raises(InjectedFault):
            atomic_write_text(path, "x" * 64,
                              fault=FaultInjector(["atomic_write:torn"]))
        assert len(_tmp_leftovers(tmp_path)) == 1
        assert not os.path.exists(path)


def _reencode_indented(directory):
    """Rewrite a session's JSON files the way the first schema-1 writer
    did (``indent=1``, default separators), as a session written by an
    earlier build would be on disk."""
    directory = str(directory)
    corpus = os.path.join(directory, "corpus")
    paths = [os.path.join(directory, Session.MANIFEST),
             os.path.join(directory, Session.CHECKPOINT)]
    paths += [os.path.join(corpus, name) for name in os.listdir(corpus)]
    for path in paths:
        with open(path) as handle:
            doc = json.load(handle)
        with open(path, "w") as handle:
            handle.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    records, _ = read_journal(os.path.join(directory, Session.JOURNAL))
    with open(os.path.join(directory, Session.JOURNAL), "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


class TestCheckpointEncoding:
    def test_checkpoint_is_compact_and_key_sorted(self, tmp_path):
        session, result = run_session(tmp_path)
        with open(session.checkpoint_path) as handle:
            text = handle.read()
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True,
                                  separators=(",", ":")) + "\n"

    def test_indented_session_from_earlier_build_resumes(self, tmp_path):
        _, golden = run_session(tmp_path / "golden")
        fault = FaultInjector(["journal_append:crash:2"])
        chaos = open_session(tmp_path / "chaos", fault=fault)
        with pytest.raises(InjectedFault):
            run_fuzz_session("pmring", small_config(), (7, 13), chaos)
        _reencode_indented(tmp_path / "chaos")
        with open(chaos.checkpoint_path) as handle:
            assert handle.read().startswith("{\n ")
        resumed = open_session(tmp_path / "chaos", resume=True)
        assert resumed.done_units() == {0}
        result, interrupted = run_fuzz_session(
            "pmring", small_config(), (7, 13), resumed)
        assert interrupted is None
        assert result_fingerprint(result) == result_fingerprint(golden)

    def test_images_and_corpus_mirror_written_once(self, tmp_path,
                                                    monkeypatch):
        """Across N unit checkpoints each image file and each corpus
        mirror file is written once and stat'd once."""
        writes, stats = Counter(), Counter()
        real_write, real_exists = atomic_write_text, os.path.exists

        def counting_write(path, *args, **kwargs):
            writes[path] += 1
            return real_write(path, *args, **kwargs)

        def counting_exists(path):
            stats[path] += 1
            return real_exists(path)

        monkeypatch.setattr(session_module, "atomic_write_text",
                            counting_write)
        monkeypatch.setattr(os.path, "exists", counting_exists)
        seeds = (7, 13, 21, 42)
        session, result = run_session(tmp_path, seeds=seeds)
        monkeypatch.undo()

        def under(name, counter):
            root = os.path.join(str(tmp_path), name) + os.sep
            return {path: n for path, n in counter.items()
                    if path.startswith(root)}

        assert writes[session.checkpoint_path] == len(seeds) + 1
        for name in ("images", "corpus"):
            written = under(name, writes)
            assert written, name
            assert set(written.values()) == {1}, name
            assert set(under(name, stats).values()) == {1}, name
            on_disk = os.listdir(os.path.join(str(tmp_path), name))
            assert len(on_disk) == len(written)

    def test_verdict_upgrade_reaches_next_checkpoint(self, tmp_path):
        session, result = run_session(tmp_path)
        record = result.inconsistencies[0]
        key = json.loads(json.dumps(list(record.dedup_key())))

        def checkpointed_verdict():
            with open(session.checkpoint_path) as handle:
                doc = json.load(handle)
            pending = [entry["key"] for entry in doc["pending_validation"]]
            for rdoc in doc["inconsistencies"]:
                restored = session_module.record_from_doc(rdoc,
                                                          session.images)
                if json.loads(json.dumps(list(restored.dedup_key()))) \
                        == key:
                    return rdoc["verdict"], key in pending
            raise AssertionError("record missing from checkpoint")

        record.verdict = Verdict.PENDING
        assert session.write_checkpoint(result, {0, 1})
        assert checkpointed_verdict() == ("pending", True)
        record.verdict = Verdict.BUG
        assert session.write_checkpoint(result, {0, 1})
        assert checkpointed_verdict() == ("bug", False)
