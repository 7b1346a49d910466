"""Bundle format: validation, accessors, serialization, filenames."""

import pytest

from repro.replay import (
    BUNDLE_VERSION,
    BundleError,
    ReproBundle,
    bundle_filename,
    validate_bundle_data,
)


def minimal_bundle_data(**overrides):
    data = {
        "version": BUNDLE_VERSION,
        "target": "memcached-pmem",
        "kind": "inter",
        "dedup_key": ["inter", "w", "r", "e"],
        "first_key": ["inter", "w", "r", "e"],
        "verdict": "pending",
        "config": {"mode": "pmrace", "n_threads": 2},
        "base_seed": 7,
        "campaign_index": 3,
        "ops": [[{"op": "set", "key": 1, "value": 2}], []],
        "entry": None,
        "skips": {},
        "schedule": [0, 1, 0],
        "priv_draws": [0.5, [8, 17]],
        "evict_draws": [],
        "callsites": ["a:b:1"],
    }
    data.update(overrides)
    return data


def test_valid_bundle_round_trips():
    bundle = ReproBundle(minimal_bundle_data())
    clone = ReproBundle.from_json(bundle.to_json())
    assert clone.data == bundle.data
    assert clone.dedup_key == ("inter", "w", "r", "e")
    assert clone.first_key == ("inter", "w", "r", "e")
    assert clone.op_count == 1
    assert clone.verdict == "pending"


def test_missing_field_rejected():
    data = minimal_bundle_data()
    del data["schedule"]
    with pytest.raises(BundleError, match="schedule"):
        validate_bundle_data(data)


def test_wrong_version_rejected():
    with pytest.raises(BundleError, match="version"):
        ReproBundle(minimal_bundle_data(version=BUNDLE_VERSION + 1))


def test_malformed_schedule_rejected():
    with pytest.raises(BundleError, match="thread ids"):
        ReproBundle(minimal_bundle_data(schedule=[0, "t1"]))


def test_malformed_ops_rejected():
    with pytest.raises(BundleError, match="ops"):
        ReproBundle(minimal_bundle_data(ops={"0": []}))


def test_not_json_rejected():
    with pytest.raises(BundleError, match="JSON"):
        ReproBundle.from_json("{nope")


def test_with_updates_returns_new_validated_bundle():
    bundle = ReproBundle(minimal_bundle_data())
    updated = bundle.with_updates(schedule=[1, 1], verdict="bug")
    assert updated is not bundle
    assert updated.schedule == [1, 1]
    assert updated.verdict == "bug"
    assert bundle.schedule == [0, 1, 0]  # original untouched
    with pytest.raises(BundleError):
        bundle.with_updates(schedule=["x"])


def test_save_load(tmp_path):
    bundle = ReproBundle(minimal_bundle_data())
    path = str(tmp_path / "b.json")
    bundle.save(path)
    assert ReproBundle.load(path).data == bundle.data


def test_bundle_filename_deterministic():
    a = ReproBundle(minimal_bundle_data())
    b = ReproBundle(minimal_bundle_data())
    other = ReproBundle(minimal_bundle_data(
        dedup_key=["inter", "w", "r", "other"]))
    assert bundle_filename(a) == bundle_filename(b)
    assert bundle_filename(a) != bundle_filename(other)
    assert bundle_filename(a).startswith("memcached-pmem-inter-")


def test_save_is_atomic_and_leaves_no_tmp(tmp_path):
    import os
    bundle = ReproBundle(minimal_bundle_data())
    path = str(tmp_path / "b.json")
    bundle.save(path)
    bundle.with_updates(verdict="bug").save(path)  # overwrite in place
    assert ReproBundle.load(path).verdict == "bug"
    assert not [name for name in os.listdir(str(tmp_path))
                if ".tmp." in name]


def test_save_fsyncs_directory_and_stays_readable(tmp_path, monkeypatch):
    from repro.core import session as session_module
    dirs = []
    monkeypatch.setattr(session_module, "fsync_dir", dirs.append)
    path = str(tmp_path / "b.json")
    ReproBundle(minimal_bundle_data()).save(path)
    assert dirs == [str(tmp_path)]
    with open(path) as handle:
        assert handle.read().startswith('{\n  "base_seed": 7,')


def test_truncated_bundle_file_reports_truncation(tmp_path):
    """A bundle cut off mid-document (pre-atomic-save artifact, or a
    torn copy) gets the 'truncated' diagnosis, not a raw JSON error."""
    text = ReproBundle(minimal_bundle_data()).to_json(indent=2)
    path = str(tmp_path / "torn.json")
    with open(path, "w") as handle:
        handle.write(text[: len(text) // 2])
    with pytest.raises(BundleError, match="truncated bundle"):
        ReproBundle.load(path)


def test_empty_bundle_file_reports_truncation(tmp_path):
    path = str(tmp_path / "empty.json")
    open(path, "w").close()
    with pytest.raises(BundleError, match="truncated bundle"):
        ReproBundle.load(path)
