"""Runtime PM checkers (§4.3).

:class:`InconsistencyChecker` implements the three checks:

* **Candidates** — a load overlapping non-persisted stores mints one
  :class:`~repro.detect.records.CandidateRecord` per distinct
  (write site, read site, writer, reader) combination, plus a taint label
  so downstream data flow is tracked.
* **Confirmed inconsistencies** — a store whose content or address carries
  taint is a durable side effect; each contributing label becomes an
  :class:`~repro.detect.records.InconsistencyRecord` with a crash image
  snapshotted at the moment of the side effect (the crash point used by
  post-failure validation, §4.4).
* **Sync inconsistencies** — stores to annotated synchronization variables,
  deduplicated per (annotation type, store site).
"""

from ..instrument.events import Observer
from ..instrument.taint import TaintLabel
from .records import CandidateRecord, InconsistencyRecord, SyncInconsistencyRecord


class InconsistencyChecker(Observer):
    """The per-campaign checker; registered as a context observer.

    Records carry *resolved* ``module:function:line`` strings even though
    events arrive with interned int ids: resolution happens here, at the
    detection boundary, so dedup keys and whitelist matching stay
    comparable across campaigns, runs, and parallel workers.

    Args:
        pool: Pool under test (crash images are taken from it).
        snapshot_images: Disable to skip crash-image copies (faster, used
            when only counting, e.g. in Figure 8 timing runs).
        max_candidates: Safety bound on recorded candidates per campaign.
        callsites: The run's :class:`~repro.instrument.callsite.
            CallSiteTable`; None means events already carry strings
            (hand-built events in tests) and ids pass through unchanged.
        evict_fraction: Probability that each DIRTY line was evicted
            before the crash point captured in a crash image (§2.1).
        evict_rng: Campaign RNG for eviction sampling, threaded from the
            engine so patterns vary with the campaign seed.
    """

    def __init__(self, pool, snapshot_images=True, max_candidates=10_000,
                 callsites=None, evict_fraction=0.0, evict_rng=None):
        self.pool = pool
        self.snapshot_images = snapshot_images
        self.max_candidates = max_candidates
        self.callsites = callsites
        self.evict_fraction = evict_fraction
        self.evict_rng = evict_rng
        self.candidates = []
        self.inconsistencies = []
        self.sync_inconsistencies = []
        self._candidate_keys = {}
        self._inconsistency_keys = set()
        self._sync_keys = set()
        self._labels = {}

    # ------------------------------------------------------------------
    # interned-id resolution (the int → string boundary)

    def _site(self, instr_id):
        if self.callsites is not None:
            return self.callsites.name(instr_id)
        return instr_id

    def _stack_names(self, stack):
        # Hook events carry the caller's live frame; the stack is walked
        # and interned here, only for a new candidate or record.
        if self.callsites is not None and stack:
            return self.callsites.stack_names(stack)
        return stack

    # ------------------------------------------------------------------

    def _image(self, overlay_addr=None, overlay_size=0):
        """Crash image at this instant.

        The durable side effect (or lock update) itself is overlaid with
        its volatile contents: the crash point of interest is *after* the
        side effect persisted but *before* the dependent non-persisted
        data did (Figure 3's failure window). Without the overlay a
        cached-store side effect would vanish from the image and the
        validation would be vacuous.
        """
        if not self.snapshot_images:
            return None
        image = bytearray(self.pool.crash_image(self.evict_fraction,
                                                self.evict_rng))
        if overlay_addr is not None and overlay_size > 0:
            end = min(overlay_addr + overlay_size, len(image))
            image[overlay_addr:end] = self.pool.memory.load(
                overlay_addr, end - overlay_addr)
        return bytes(image)

    def on_load(self, event):
        if not event.nonpersisted:
            return None
        minted = set()
        for writer in event.nonpersisted:
            key = (event.instr_id, writer.instr_id, event.tid,
                   writer.thread_id)
            candidate = self._candidate_keys.get(key)
            if candidate is None and len(self.candidates) < self.max_candidates:
                # writer.instr_id is already a string (the hook layer
                # resolves before attributing StoreRecords); the read
                # side and stack resolve here.
                candidate = CandidateRecord(
                    len(self.candidates), event.addr, event.size,
                    self._site(event.instr_id), writer.instr_id, event.tid,
                    writer.thread_id, self._stack_names(event.stack),
                    writer.seq,
                )
                self._candidate_keys[key] = candidate
                self.candidates.append(candidate)
            if candidate is None:
                continue
            label = self._labels.get(candidate.candidate_id)
            if label is None:
                label = TaintLabel(candidate.candidate_id, event.instr_id,
                                   writer.instr_id, writer.thread_id,
                                   event.tid)
                self._labels[candidate.candidate_id] = label
            minted.add(label)
        return frozenset(minted)

    def on_store(self, event):
        if not event.taint:
            return
        side_effect_instr = None
        # TaintLabel hashes by identity, so frozenset iteration order
        # follows memory layout and varies between processes. Record
        # order must not (repro bundles replay in fresh processes) —
        # confirm in candidate order.
        for label in sorted(event.taint, key=lambda lbl: lbl.candidate_id):
            candidate = self.candidates[label.candidate_id] \
                if label.candidate_id < len(self.candidates) else None
            if candidate is None:
                continue
            # "except the dependent non-persisted data": an idempotent
            # write-back of the dirty value over its own source (e.g. a
            # copy-through-flush helper) is not a *new* side effect.
            # Writing a *derived* value to the same address (allocator
            # cursor CAS) still is.
            if (event.same_value and event.addr == candidate.addr
                    and label not in event.addr_taint):
                continue
            if side_effect_instr is None:
                side_effect_instr = self._site(event.instr_id)
            # Dedup on the key alone — the record (and its crash image)
            # is only materialized for the first sighting. Almost every
            # tainted store repeats an already-recorded combination.
            key = ("inter" if candidate.cross_thread else "intra",
                   candidate.write_instr, candidate.read_instr,
                   side_effect_instr)
            if key in self._inconsistency_keys:
                continue
            self._inconsistency_keys.add(key)
            record = InconsistencyRecord(
                candidate, side_effect_instr, event.addr, event.size,
                label in event.addr_taint, self._stack_names(event.stack),
                self._image(event.addr, event.size),
            )
            assert record.dedup_key() == key
            self.inconsistencies.append(record)

    def on_annotated_store(self, annotation, event):
        # Writing the expected initial value back (e.g. a lock release) is
        # crash-consistent by definition; only departures from the
        # annotated init value are inconsistencies.
        value = event.value
        if isinstance(value, (bytes, bytearray)):
            if annotation.init_val == 0 and not any(value):
                return
        else:
            try:
                if int(value) == annotation.init_val:
                    return
            except (TypeError, ValueError):
                pass
        key = (annotation.name, event.instr_id)
        if key in self._sync_keys:
            return
        self._sync_keys.add(key)
        record = SyncInconsistencyRecord(
            annotation.name, event.addr, annotation.size,
            annotation.init_val, event.value, self._site(event.instr_id),
            self._stack_names(event.stack),
            self._image(event.addr, annotation.size),
        )
        self.sync_inconsistencies.append(record)

    # ------------------------------------------------------------------
    # summaries

    @property
    def inter_candidates(self):
        return [c for c in self.candidates if c.cross_thread]

    @property
    def intra_candidates(self):
        return [c for c in self.candidates if not c.cross_thread]

    @property
    def inter_inconsistencies(self):
        return [r for r in self.inconsistencies if r.kind == "inter"]

    @property
    def intra_inconsistencies(self):
        return [r for r in self.inconsistencies if r.kind == "intra"]
