"""Crash-safe resumable fuzzing sessions.

A long PMRace campaign must survive the same faults it hunts for: a
SIGKILL anywhere in a run used to lose every in-flight result, the
merged corpus, and the pending validation queue. This module gives any
fuzzing run — single-box ``repro fuzz`` or the parallel service — a
durable **session directory** with crash-consistency guarantees built
from the same primitives the tool tests targets for:

``<session-dir>/``
    ``MANIFEST.json``    versioned identity: target, kind, seeds, and a
                         config digest, so ``--resume`` refuses to mix
                         incompatible runs.
    ``journal.jsonl``    append-only work-unit journal (one fsync'd line
                         per completed engine session / worker attempt,
                         plus open/resume markers). The recovery loader
                         tolerates a torn tail line — the normal state
                         of an appended file after SIGKILL.
    ``checkpoint.json``  atomically-replaced snapshot of the merged
                         :class:`~repro.core.engine.RunResult`: records
                         (verdicts, notes, repro bundles), candidates,
                         hangs, the exported corpus, worker stats, and
                         the pending-validation index. Written tmp →
                         fsync → ``os.replace`` → directory fsync, so a
                         crash mid-write can never corrupt the previous
                         committed checkpoint. Compact JSON, so the C
                         encoder writes it (see :func:`_dumps`).
    ``images/``          content-addressed crash images (one file per
                         unique digest), written atomically; checkpoint
                         records reference images by digest so an image
                         shared by many records is stored once.
    ``corpus/``          digest-named JSON mirror of the merged seed
                         corpus (same format as ``--corpus-dir``), kept
                         in sync at every checkpoint.

Images and corpus entries never change once written, so the session
remembers which ones it has made durable and a per-unit checkpoint
writes (and stats) only the new ones.

**Ordering discipline**: the checkpoint (which embeds the keys of every
unit it contains) is written *before* the unit's journal line. A crash
between the two leaves a checkpoint that is ahead of the journal; the
resume loader takes the union, so a unit is never merged twice and
never lost.

**Fault injection**: every session write is threaded through a
:class:`FaultInjector` (``REPRO_FAULT_POINT`` env or constructed
directly) that can simulate a torn write, a full disk (``ENOSPC``), a
hard SIGKILL, or an injected crash at named points — making the
recovery paths unit-testable and powering ``tools/chaos_runner.py``.
"""

import errno
import hashlib
import json
import os
import signal
import zlib

from ..detect.records import (
    CandidateRecord,
    InconsistencyRecord,
    SyncInconsistencyRecord,
    Verdict,
)
from ..obs.tracer import CorruptLineError, NULL_TRACER, read_jsonl

#: Bump when the manifest / journal / checkpoint layout changes; a
#: session written by another version refuses to resume.
SESSION_SCHEMA_VERSION = 1

#: Environment variable configuring fault injection, e.g.
#: ``REPRO_FAULT_POINT=checkpoint_write:kill:2``.
FAULT_ENV = "REPRO_FAULT_POINT"

#: Config fields folded into the manifest's compatibility digest. The
#: digest detects *behavioural* divergence between the original run and
#: a resume — observability and output knobs are deliberately excluded.
CONFIG_DIGEST_FIELDS = (
    "mode", "n_threads", "ops_per_thread", "max_campaigns",
    "execs_per_interleaving", "max_interleavings_per_seed", "max_seeds",
    "enable_interleaving_tier", "enable_seed_tier", "taint_enabled",
    "snapshot_images", "validate", "writer_waiting", "max_steps",
    "spin_hang_limit", "coverage_feedback", "eadr", "evict_fraction",
    "corpus_schedule",
)


class SessionError(ValueError):
    """The session directory is missing, incompatible, or corrupt in a
    way recovery cannot paper over (bad manifest / schema version)."""


class SessionInterrupted(Exception):
    """Raised in the main thread by the graceful SIGINT/SIGTERM handler
    so the run loop can checkpoint and exit cleanly."""

    def __init__(self, signum):
        super().__init__("interrupted by signal %d" % signum)
        self.signum = signum


class InjectedFault(Exception):
    """A :class:`FaultInjector` fired a ``crash``/``torn`` action: the
    simulated process death at a session write."""


# ----------------------------------------------------------------------
# fault injection


class FaultInjector:
    """Named fault points threaded through every session write.

    A spec is ``point:action[:countdown]``; multiple specs are comma
    separated. ``countdown`` means the fault fires on the Nth hit of
    that point (default 1). Actions:

    * ``crash``  — raise :class:`InjectedFault` (simulated die-before-
      write or die-mid-write, depending on the call site);
    * ``torn``   — the writer persists roughly half the payload, then
      raises :class:`InjectedFault` (a torn write frozen on disk);
    * ``enospc`` — raise ``OSError(ENOSPC)`` (full disk);
    * ``kill``   — ``SIGKILL`` the current process (real crash, for
      subprocess chaos tests).
    """

    ACTIONS = ("crash", "torn", "enospc", "kill")

    def __init__(self, specs=()):
        self._arms = []
        for spec in specs:
            parts = spec.strip().split(":")
            if len(parts) not in (2, 3):
                raise ValueError("fault spec must be point:action[:n], "
                                 "got %r" % spec)
            point, action = parts[0], parts[1]
            if action not in self.ACTIONS:
                raise ValueError("unknown fault action %r (choose from "
                                 "%s)" % (action, "/".join(self.ACTIONS)))
            countdown = int(parts[2]) if len(parts) == 3 else 1
            if countdown < 1:
                raise ValueError("fault countdown must be >= 1: %r" % spec)
            self._arms.append([point, action, countdown])
        self.fired = []

    @classmethod
    def from_env(cls, environ=None):
        value = (environ or os.environ).get(FAULT_ENV, "").strip()
        if not value:
            return cls()
        return cls(value.split(","))

    def __bool__(self):
        return bool(self._arms)

    def check(self, point):
        """Decrement matching countdowns; returns the action due at this
        hit of ``point`` (or None). ``torn`` is returned to the caller —
        the *writer* knows how to half-write — every other action fires
        immediately via :meth:`trip`."""
        for arm in self._arms:
            if arm[0] != point:
                continue
            arm[2] -= 1
            if arm[2] == 0:
                self._arms.remove(arm)
                self.fired.append((point, arm[1]))
                if arm[1] == "torn":
                    return "torn"
                self.trip(point, arm[1])
        return None

    def trip(self, point, action):
        """Execute a non-torn fault action."""
        if action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if action == "enospc":
            raise OSError(errno.ENOSPC, "injected ENOSPC at %s" % point)
        raise InjectedFault("injected %s fault at %s" % (action, point))


#: Shared no-op injector (``bool() == False`` skips all checks).
NULL_FAULTS = FaultInjector()


# ----------------------------------------------------------------------
# durable-write primitives


def fsync_dir(path):
    """fsync a directory so a just-renamed/created entry is durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _unlink_quietly(path):
    try:
        os.unlink(path)
    except OSError:
        pass


def _dumps(payload):
    """Key-sorted JSON with no whitespace. Any ``indent`` makes CPython
    fall back from the C encoder to the pure-Python one, which costs a
    per-unit checkpoint several times over, so every machine-read
    session file is written this way."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def atomic_write_text(path, text, fault=NULL_FAULTS, point="atomic_write"):
    """Write ``text`` (``str``, or ``bytes`` in binary mode) to ``path``
    via tmp + fsync + ``os.replace`` + directory fsync.

    A crash (real or injected) at any instant leaves either the old
    complete file or the new complete file at ``path`` — never a torn
    mix. The fault injector's ``torn`` action freezes a half-written
    *tmp* file, which is exactly what a real crash mid-write leaves; a
    real ``OSError`` (``ENOSPC``) unlinks the tmp file before it
    propagates, so a run that outlives the error leaks nothing.
    """
    action = fault.check(point) if fault else None
    tmp = "%s.tmp.%d" % (path, os.getpid())
    mode = "wb" if isinstance(text, (bytes, bytearray)) else "w"
    try:
        with open(tmp, mode) as handle:
            if action == "torn":
                handle.write(text[: len(text) // 2])
                handle.flush()
                os.fsync(handle.fileno())
                raise InjectedFault("injected torn write at %s" % point)
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        _unlink_quietly(tmp)
        raise
    fsync_dir(os.path.dirname(path) or ".")
    return path


def atomic_write_json(path, payload, fault=NULL_FAULTS,
                      point="atomic_write"):
    return atomic_write_text(path, _dumps(payload) + "\n",
                             fault=fault, point=point)


def append_jsonl(path, record, fault=NULL_FAULTS, point="journal_append"):
    """Append one fsync'd JSON line. The ``torn`` fault persists half
    the line with no newline — the torn tail :func:`read_journal`
    must (and does) tolerate."""
    action = fault.check(point) if fault else None
    line = _dumps(record)
    with open(path, "a") as handle:
        if action == "torn":
            handle.write(line[: max(1, len(line) // 2)])
            handle.flush()
            os.fsync(handle.fileno())
            raise InjectedFault("injected torn append at %s" % point)
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def read_journal(path):
    """Parse an append-only JSONL journal; returns ``(records, torn)``.

    A torn *tail* line (no trailing newline, or half a JSON document —
    the normal state after SIGKILL mid-append) is counted and skipped.
    Torn lines anywhere else mean the file was corrupted by something
    other than an append crash and raise :class:`SessionError`.
    """
    if not os.path.exists(path):
        return [], 0
    try:
        records, torn = read_jsonl(path)
    except CorruptLineError as exc:
        raise SessionError("%s:%d: corrupt journal line (not a torn tail)"
                           % (path, exc.lineno))
    return records, int(torn is not None)


# ----------------------------------------------------------------------
# crash-image store (content-addressed, shared across records)


class ImageStore:
    """One file per unique crash image under ``<session>/images/``.

    Images are keyed by the validation service's digest (CRC32 +
    length), written atomically, and deduplicated — records in the
    checkpoint reference images as ``"<crc08x>-<len>"`` strings.
    """

    def __init__(self, directory, fault=NULL_FAULTS):
        self.directory = directory
        self.fault = fault
        #: Refs known to be durable, so a per-unit checkpoint writes (and
        #: stats) only the images that are new since the last one.
        self._durable = set()

    def _path(self, ref):
        return os.path.join(self.directory, ref + ".bin")

    @staticmethod
    def ref_for(image):
        return "%08x-%d" % (zlib.crc32(bytes(image)) & 0xFFFFFFFF,
                            len(image))

    def put(self, image):
        """Store ``image`` (idempotent); returns its reference string."""
        ref = self.ref_for(image)
        if ref in self._durable:
            return ref
        path = self._path(ref)
        if not os.path.exists(path):
            os.makedirs(self.directory, exist_ok=True)
            atomic_write_text(path, bytes(image), fault=self.fault,
                              point="image_write")
        self._durable.add(ref)
        return ref

    def get(self, ref):
        """Load an image by reference; returns ``None`` when the file is
        missing or fails its own digest (torn leftovers never poison a
        restored record — the record just loses its image)."""
        if ref is None:
            return None
        try:
            with open(self._path(ref), "rb") as handle:
                image = handle.read()
        except OSError:
            return None
        if self.ref_for(image) != ref:
            return None
        return bytearray(image)


# ----------------------------------------------------------------------
# RunResult <-> checkpoint document


def _plain(value):
    """Collapse tainted-int subclasses / tuples into JSON-safe values."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return str(value)


def _candidate_to_doc(candidate):
    return {
        "candidate_id": _plain(candidate.candidate_id),
        "addr": _plain(candidate.addr),
        "size": _plain(candidate.size),
        "read_instr": candidate.read_instr,
        "write_instr": candidate.write_instr,
        "reader_tid": _plain(candidate.reader_tid),
        "writer_tid": _plain(candidate.writer_tid),
        "stack": _plain(list(candidate.stack or ())),
        "seq": _plain(candidate.seq),
    }


def _candidate_from_doc(doc):
    return CandidateRecord(
        doc["candidate_id"], doc["addr"], doc["size"], doc["read_instr"],
        doc["write_instr"], doc["reader_tid"], doc["writer_tid"],
        tuple(doc.get("stack") or ()), doc.get("seq", 0))


def _bundle_to_doc(record):
    bundle = getattr(record, "bundle", None)
    return None if bundle is None else bundle.data


def _bundle_from_doc(data):
    if data is None:
        return None
    from ..replay.bundle import BundleError, ReproBundle
    try:
        return ReproBundle(data)
    except BundleError:
        return None


def record_to_doc(record, images):
    """Serialize one kept inconsistency record (either kind)."""
    image_ref = None
    if record.crash_image is not None:
        image_ref = images.put(record.crash_image)
    doc = {
        "verdict": record.verdict.value,
        "note": record.note,
        "image": image_ref,
        "bundle": _bundle_to_doc(record),
    }
    if isinstance(record, InconsistencyRecord):
        doc["type"] = "inconsistency"
        doc["candidate"] = _candidate_to_doc(record.candidate)
        doc["side_effect_instr"] = record.side_effect_instr
        doc["side_effect_addr"] = _plain(record.side_effect_addr)
        doc["side_effect_size"] = _plain(record.side_effect_size)
        doc["address_flow"] = bool(record.address_flow)
        doc["stack"] = _plain(list(record.stack or ()))
        return doc
    if isinstance(record, SyncInconsistencyRecord):
        doc["type"] = "sync"
        doc["annotation_name"] = record.annotation_name
        doc["addr"] = _plain(record.addr)
        doc["size"] = _plain(record.size)
        doc["init_val"] = _plain(record.init_val)
        doc["new_value"] = _plain(record.new_value)
        doc["instr_id"] = record.instr_id
        doc["stack"] = _plain(list(record.stack or ()))
        return doc
    raise TypeError("cannot checkpoint %r" % (record,))


def record_from_doc(doc, images):
    image = images.get(doc.get("image"))
    if doc["type"] == "inconsistency":
        record = InconsistencyRecord(
            _candidate_from_doc(doc["candidate"]),
            doc["side_effect_instr"], doc["side_effect_addr"],
            doc["side_effect_size"], doc["address_flow"],
            tuple(doc.get("stack") or ()), image)
    elif doc["type"] == "sync":
        record = SyncInconsistencyRecord(
            doc["annotation_name"], doc["addr"], doc["size"],
            doc["init_val"], doc["new_value"], doc["instr_id"],
            tuple(doc.get("stack") or ()), image)
    else:
        raise SessionError("unknown checkpoint record type %r"
                           % (doc.get("type"),))
    record.verdict = Verdict(doc.get("verdict", "pending"))
    record.note = doc.get("note", "")
    record.bundle = _bundle_from_doc(doc.get("bundle"))
    return record


def result_to_doc(result, images):
    """The full merged :class:`~repro.core.engine.RunResult` as a
    JSON-safe checkpoint document (images stored via ``images``)."""
    from .engine import HangRecord  # noqa: F401  (doc symmetry)
    return {
        "version": SESSION_SCHEMA_VERSION,
        "target": result.target_name,
        "campaigns": result.campaigns,
        "duration": result.duration,
        "op_errors": result.op_errors,
        "annotation_count": result.annotation_count,
        "verdict_upgrades": result.verdict_upgrades,
        "first_inter_time": result.first_inter_time,
        "first_candidate_time": result.first_candidate_time,
        "coverage_timeline": [_plain(list(point))
                              for point in result.coverage_timeline],
        "inter_hit_times": [_plain(list(point))
                            for point in result.inter_hit_times],
        "candidates": [_candidate_to_doc(c) for c in result.candidates],
        "inconsistencies": [record_to_doc(r, images)
                            for r in result.inconsistencies],
        "sync_inconsistencies": [record_to_doc(r, images)
                                 for r in result.sync_inconsistencies],
        "hangs": [{"blocked": _plain([list(pair) for pair in h.blocked]),
                   "seed_id": _plain(h.seed_id)} for h in result.hangs],
        "corpus_seeds": _plain(result.corpus_seeds),
        "worker_stats": [stats.to_dict() for stats in result.worker_stats],
        "profile": _plain(result.profile),
        "pending_validation": [
            {"kind": r.kind, "key": _plain(list(r.dedup_key())),
             "image": None if r.crash_image is None
             else ImageStore.ref_for(r.crash_image)}
            for r in list(result.inconsistencies)
            + list(result.sync_inconsistencies)
            if r.verdict is Verdict.PENDING],
    }


def result_from_doc(doc, images, config, target_name=None):
    """Rebuild a merged RunResult (dedup maps included) from a
    checkpoint document."""
    from .engine import HangRecord, RunResult
    if doc.get("version") != SESSION_SCHEMA_VERSION:
        raise SessionError("unsupported checkpoint version %r"
                           % (doc.get("version"),))
    result = RunResult(target_name or doc["target"], config)
    result.campaigns = doc.get("campaigns", 0)
    result.duration = doc.get("duration", 0.0)
    result.op_errors = doc.get("op_errors", 0)
    result.annotation_count = doc.get("annotation_count", 0)
    result.verdict_upgrades = doc.get("verdict_upgrades", 0)
    result.first_inter_time = doc.get("first_inter_time")
    result.first_candidate_time = doc.get("first_candidate_time")
    result.coverage_timeline = [tuple(point) for point in
                                doc.get("coverage_timeline", [])]
    result.inter_hit_times = [tuple(point) for point in
                              doc.get("inter_hit_times", [])]
    for cdoc in doc.get("candidates", []):
        candidate = _candidate_from_doc(cdoc)
        key = (candidate.read_instr, candidate.write_instr,
               candidate.cross_thread)
        if key not in result._candidate_keys:
            result._candidate_keys.add(key)
            result.candidates.append(candidate)
    for rdoc in doc.get("inconsistencies", []):
        record = record_from_doc(rdoc, images)
        key = record.dedup_key()
        if key not in result._inconsistency_keys:
            result._inconsistency_keys[key] = record
            result.inconsistencies.append(record)
    for rdoc in doc.get("sync_inconsistencies", []):
        record = record_from_doc(rdoc, images)
        key = record.dedup_key()
        if key not in result._sync_keys:
            result._sync_keys[key] = record
            result.sync_inconsistencies.append(record)
    for hdoc in doc.get("hangs", []):
        hang = HangRecord([tuple(pair) for pair in hdoc["blocked"]],
                          hdoc.get("seed_id"))
        if hang.signature() not in result._hang_signatures:
            result._hang_signatures.add(hang.signature())
            result.hangs.append(hang)
    result.corpus_seeds = doc.get("corpus_seeds", [])
    from .parallel import WorkerStats
    result.worker_stats = [WorkerStats.from_dict(sdoc)
                           for sdoc in doc.get("worker_stats", [])]
    result.profile = doc.get("profile", {})
    result._regroup()
    return result


def result_fingerprint(result):
    """The order-independent identity the kill-resume equivalence tests
    compare: verdict per dedup key, hang signatures, corpus digests,
    and the total campaign count."""
    verdicts = sorted(
        (list(_plain(list(r.dedup_key()))), r.verdict.value)
        for r in list(result.inconsistencies)
        + list(result.sync_inconsistencies))
    return {
        "target": result.target_name,
        "campaigns": result.campaigns,
        "verdicts": verdicts,
        "hangs": sorted(sorted(h.signature()) for h in result.hangs),
        "corpus_digests": sorted(e["digest"] for e in result.corpus_seeds),
    }


def config_digest(config):
    """Stable digest over the behaviour-shaping config fields."""
    payload = {field: _plain(getattr(config, field, None))
               for field in CONFIG_DIGEST_FIELDS}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# the session


class Session:
    """One durable fuzzing session rooted at a directory.

    Use :meth:`open` — it creates a fresh session or, with
    ``resume=True``, validates and loads an existing one. All journal
    and checkpoint writes go through the fault injector; ``ENOSPC``
    (real or injected) never aborts the run — the session degrades
    (``write_errors`` counts, the last committed checkpoint stays
    intact) while fuzzing continues.
    """

    MANIFEST = "MANIFEST.json"
    JOURNAL = "journal.jsonl"
    CHECKPOINT = "checkpoint.json"

    def __init__(self, directory, manifest, fault=None, tracer=None,
                 metrics=None):
        self.directory = directory
        self.manifest = manifest
        self.fault = fault if fault is not None else \
            FaultInjector.from_env()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.images = ImageStore(os.path.join(directory, "images"),
                                 fault=self.fault)
        self.corpus_dir = os.path.join(directory, "corpus")
        self.journal_path = os.path.join(directory, self.JOURNAL)
        self.checkpoint_path = os.path.join(directory, self.CHECKPOINT)
        self.resumed = False
        self.journal_torn_lines = 0
        self.write_errors = 0
        self.checkpoints_written = 0
        self._journal = []
        self._checkpoint_units = []
        #: Corpus digests already mirrored under ``corpus/``.
        self._mirrored = set()

    # ------------------------------------------------------------------
    # lifecycle

    @classmethod
    def open(cls, directory, target, kind, seeds, config, resume=False,
             fault=None, tracer=None, metrics=None):
        """Create a session directory, or resume the one already there.

        A fresh open refuses an already-initialized directory unless
        ``resume`` is set (no accidental clobbering); a resume validates
        target/kind/seeds/config compatibility against the manifest.
        """
        manifest_path = os.path.join(directory, cls.MANIFEST)
        wanted = {
            "version": SESSION_SCHEMA_VERSION,
            "target": target,
            "kind": kind,
            "seeds": [int(seed) for seed in seeds],
            "config_digest": config_digest(config),
        }
        exists = os.path.exists(manifest_path)
        if exists and not resume:
            raise SessionError(
                "%s already holds a session; pass --resume to continue "
                "it (or point --session-dir somewhere fresh)" % directory)
        if not exists:
            os.makedirs(directory, exist_ok=True)
            atomic_write_json(manifest_path, wanted,
                              point="manifest_write")
            session = cls(directory, wanted, fault=fault, tracer=tracer,
                          metrics=metrics)
            session._append({"type": "session_open", "kind": kind,
                             "target": target})
            return session
        try:
            with open(manifest_path) as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SessionError("unreadable session manifest %s: %s"
                               % (manifest_path, exc))
        if manifest.get("version") != SESSION_SCHEMA_VERSION:
            raise SessionError(
                "session schema %r is not resumable by this build "
                "(want %d)" % (manifest.get("version"),
                               SESSION_SCHEMA_VERSION))
        for field in ("target", "kind", "seeds", "config_digest"):
            if manifest.get(field) != wanted[field]:
                raise SessionError(
                    "--resume mismatch on %s: session has %r, this run "
                    "wants %r" % (field, manifest.get(field),
                                  wanted[field]))
        session = cls(directory, manifest, fault=fault, tracer=tracer,
                      metrics=metrics)
        session._load_existing()
        return session

    def _load_existing(self):
        self.resumed = True
        self._journal, self.journal_torn_lines = \
            read_journal(self.journal_path)
        if self.journal_torn_lines:
            self._count("session.journal.torn", self.journal_torn_lines)
        doc = self._read_checkpoint_doc()
        self._checkpoint_units = list(doc.get("units", [])) if doc else []
        self._append({"type": "session_resume",
                      "journal_records": len(self._journal),
                      "torn_lines": self.journal_torn_lines})

    # ------------------------------------------------------------------
    # journal

    def _append(self, record):
        try:
            append_jsonl(self.journal_path, record, fault=self.fault)
        except OSError:
            self.write_errors += 1
            self._count("session.write_errors")

    def record_unit(self, worker_id, seed, attempt, status, campaigns=0):
        """Journal one finished work unit (after its checkpoint)."""
        entry = {"type": "unit", "worker_id": int(worker_id),
                 "seed": int(seed), "attempt": int(attempt),
                 "status": status, "campaigns": int(campaigns)}
        self._journal.append(entry)
        self._append(entry)
        self._count("session.units")

    def unit_records(self):
        return [r for r in self._journal if r.get("type") == "unit"]

    def done_units(self):
        """Worker ids whose session completed — the union of journaled
        ``ok`` units and units embedded in the committed checkpoint
        (covers a crash between checkpoint write and journal append)."""
        done = {r["worker_id"] for r in self.unit_records()
                if r.get("status") == "ok"}
        done.update(self._checkpoint_units)
        return done

    def retry_ledger(self):
        """Per-worker ``(next_attempt, last_seed)`` from the journal, so
        a resumed run continues attempt counts instead of resetting the
        retry budget."""
        ledger = {}
        for record in self.unit_records():
            worker_id = record["worker_id"]
            previous = ledger.get(worker_id)
            if previous is None or record["attempt"] >= previous[0] - 1:
                ledger[worker_id] = (record["attempt"] + 1,
                                     record["seed"])
        return ledger

    # ------------------------------------------------------------------
    # checkpoint

    def write_checkpoint(self, result, units, final=False,
                         interrupted=None):
        """Atomically replace the merged-result checkpoint.

        Returns True on success; an ``OSError`` (disk full) is contained
        — counted, traced, previous checkpoint left intact."""
        doc = None
        try:
            doc = result_to_doc(result, self.images)
            doc["units"] = sorted(int(u) for u in units)
            doc["final"] = bool(final)
            doc["interrupted"] = interrupted
            atomic_write_json(self.checkpoint_path, doc, fault=self.fault,
                              point="checkpoint_write")
            self._checkpoint_units = doc["units"]
            self._sync_corpus_dir(result)
        except OSError:
            self.write_errors += 1
            self._count("session.write_errors")
            return False
        self.checkpoints_written += 1
        self._count("session.checkpoints")
        if self.tracer.enabled:
            self.tracer.emit("session_checkpoint", dir=self.directory,
                             units=len(doc["units"]),
                             campaigns=result.campaigns,
                             final=bool(final), interrupted=interrupted)
        return True

    def _read_checkpoint_doc(self):
        try:
            with open(self.checkpoint_path) as handle:
                return json.load(handle)
        except OSError:
            return None
        except ValueError:
            # A torn checkpoint at the final path means the atomic-write
            # discipline was violated externally; recovery treats it as
            # absent rather than propagating garbage.
            self._count("session.checkpoint.corrupt")
            return None

    def load_checkpoint(self, config):
        """The committed merged RunResult, or None on a fresh session."""
        doc = self._read_checkpoint_doc()
        if doc is None:
            return None
        return result_from_doc(doc, self.images, config,
                               target_name=self.manifest["target"])

    def _sync_corpus_dir(self, result):
        """Mirror the merged corpus as digest-named JSON files (the
        ``--corpus-dir`` format), written atomically; entries already
        mirrored by this session are skipped without a stat."""
        if not result.corpus_seeds:
            return
        os.makedirs(self.corpus_dir, exist_ok=True)
        for entry in result.corpus_seeds:
            digest = entry["digest"]
            if digest in self._mirrored:
                continue
            path = os.path.join(self.corpus_dir, digest + ".json")
            if not os.path.exists(path):
                atomic_write_json(path, entry, fault=self.fault,
                                  point="corpus_write")
            self._mirrored.add(digest)

    # ------------------------------------------------------------------
    # resume-side validation

    def revalidate_pending(self, result, whitelist=None):
        """Re-enqueue PENDING records that carry a crash image through a
        fresh digest-cached validation queue; returns the drain count.

        Runs at every session finalize (fresh or resumed), so an
        interrupted-and-resumed run reaches the same verdicts as an
        uninterrupted session run."""
        pending = [r for r in list(result.inconsistencies)
                   + list(result.sync_inconsistencies)
                   if r.verdict is Verdict.PENDING
                   and r.crash_image is not None]
        if not pending:
            return 0
        from ..detect.validation_service import make_validation_queue
        queue = make_validation_queue(self.manifest["target"],
                                      whitelist=whitelist,
                                      tracer=self.tracer,
                                      metrics=self.metrics)
        for record in pending:
            queue.enqueue(record)
        drained = queue.drain()
        result._regroup()
        return drained

    # ------------------------------------------------------------------

    def _count(self, name, n=1):
        if self.metrics is not None:
            self.metrics.counter(name).inc(n)


# ----------------------------------------------------------------------
# graceful signal handling


class SignalGuard:
    """Context manager turning SIGINT/SIGTERM into
    :class:`SessionInterrupted` raised in the main thread, restoring the
    previous handlers on exit. A second signal while the first is being
    handled falls back to the previous handler (so a double Ctrl-C still
    kills a stuck shutdown)."""

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self):
        self._previous = {}
        self.fired = None

    def _handler(self, signum, frame):
        if self.fired is not None:
            previous = self._previous.get(signum, signal.SIG_DFL)
            signal.signal(signum, previous)
            return
        self.fired = signum
        raise SessionInterrupted(signum)

    def __enter__(self):
        for signum in self.SIGNALS:
            try:
                self._previous[signum] = signal.signal(signum,
                                                       self._handler)
            except ValueError:
                # Not the main thread (tests under odd runners): signals
                # cannot be trapped here; the guard degrades to a no-op.
                self._previous.pop(signum, None)
        return self

    def __exit__(self, *exc):
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except ValueError:
                pass
        return False


# ----------------------------------------------------------------------
# single-box session runner (the ``repro fuzz --session-dir`` path)


def run_fuzz_session(target, config, seeds, session, tracer=None,
                     metrics=None):
    """Fuzz ``target`` one engine session per seed under ``session``.

    Work units are whole engine sessions (one per seed, ``worker_id`` =
    seed index): a unit that was journaled/checkpointed is skipped on
    resume, remaining units run fresh, and every completion writes
    checkpoint-then-journal. SIGINT/SIGTERM anywhere — including inside
    the fuzz loop or a validation drain — stops at the interrupt, writes
    a final checkpoint of everything merged so far, and reports the
    signal; the merged result is returned either way as
    ``(result, interrupted_signum)``.
    """
    import copy

    from ..targets.registry import make_target
    from .engine import PMRace, PMRaceConfig, RunResult

    tracer = tracer if tracer is not None else NULL_TRACER
    base_config = config if config is not None else PMRaceConfig()
    target_name = target if isinstance(target, str) else target.NAME
    merged = session.load_checkpoint(copy.deepcopy(base_config))
    done = session.done_units()
    if session.resumed:
        skipped = [i for i, _ in enumerate(seeds) if i in done]
        tracer.emit("session_resume", dir=session.directory,
                    skipped_units=len(skipped),
                    torn_lines=session.journal_torn_lines)
        if metrics is not None:
            metrics.counter("session.resume.skipped").inc(len(skipped))
    interrupted = None
    units = set(done)
    with SignalGuard() as guard:
        try:
            for index, seed in enumerate(seeds):
                if index in done:
                    continue
                cfg = copy.deepcopy(base_config)
                cfg.base_seed = seed
                instance = make_target(target) \
                    if isinstance(target, str) else target
                result = PMRace(instance, cfg, tracer=tracer,
                                metrics=metrics).run()
                if merged is None:
                    merged = result
                else:
                    merged.merge(result)
                units.add(index)
                session.write_checkpoint(merged, units)
                session.record_unit(index, seed, 0, "ok",
                                    result.campaigns)
        except SessionInterrupted as exc:
            interrupted = exc.signum
        except KeyboardInterrupt:
            interrupted = signal.SIGINT
    if merged is None:
        merged = RunResult(target_name, copy.deepcopy(base_config))
    if interrupted is None:
        session.revalidate_pending(merged,
                                   whitelist=base_config.whitelist)
    session.write_checkpoint(merged, units, final=interrupted is None,
                             interrupted=interrupted)
    merged.interrupted = interrupted
    return merged, interrupted
