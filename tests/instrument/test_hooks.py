"""Hook-layer tests: events, candidates, taint flow through PM."""

import pytest

from repro.detect import InconsistencyChecker
from repro.instrument import (
    InstrumentationContext,
    Observer,
    PmView,
    taint_of,
)
from repro.pmem import LineState, PmemPool


class Recorder(Observer):
    def __init__(self):
        self.events = []

    def on_load(self, event):
        self.events.append(event)

    def on_store(self, event):
        self.events.append(event)

    def on_flush(self, event):
        self.events.append(event)

    def on_fence(self, event):
        self.events.append(event)


@pytest.fixture
def setup():
    pool = PmemPool("hooks", 8192)
    ctx = InstrumentationContext()
    recorder = ctx.add_observer(Recorder())
    view = PmView(pool, None, ctx)
    return pool, ctx, recorder, view


class TestEvents:
    def test_store_event(self, setup):
        _pool, _ctx, recorder, view = setup
        view.store_u64(64, 7)
        event = recorder.events[-1]
        assert event.kind == "store"
        assert event.addr == 64
        assert event.size == 8
        assert event.value == 7
        assert event.tid == -1  # outside the scheduler

    def test_load_event_value(self, setup):
        _pool, _ctx, recorder, view = setup
        view.ntstore_u64(64, 99)
        assert view.load_u64(64) == 99
        assert recorder.events[-1].kind == "load"
        assert recorder.events[-1].value == 99

    def test_instr_id_names_caller(self, setup):
        _pool, ctx, recorder, view = setup
        view.store_u64(0, 1)
        instr_id = recorder.events[-1].instr_id
        assert isinstance(instr_id, int)
        assert "test_hooks" in ctx.callsites.name(instr_id)

    def test_flush_and_fence_events(self, setup):
        _pool, _ctx, recorder, view = setup
        view.store_u64(0, 1)
        view.clwb(0)
        view.sfence()
        kinds = [event.kind for event in recorder.events]
        assert kinds == ["store", "clwb", "sfence"]

    def test_bytes_roundtrip(self, setup):
        _pool, _ctx, _recorder, view = setup
        view.store_bytes(128, b"hello")
        assert view.load_bytes(128, 5) == b"hello"

    def test_ntstore_event_kind(self, setup):
        _pool, _ctx, recorder, view = setup
        view.ntstore_u64(0, 5)
        assert recorder.events[-1].kind == "ntstore"


class TestPersistency:
    def test_persist_makes_clean(self, setup):
        pool, _ctx, _recorder, view = setup
        view.store_u64(64, 1)
        assert pool.memory.line_state(64) is LineState.DIRTY
        view.persist(64, 8)
        assert pool.memory.line_state(64) is LineState.CLEAN

    def test_flush_range_covers_lines(self, setup):
        pool, _ctx, _recorder, view = setup
        view.store_bytes(0, b"x" * 200)
        view.flush_range(0, 200)
        view.sfence()
        assert pool.memory.dirty_line_count() == 0

    def test_load_reports_nonpersisted(self, setup):
        _pool, _ctx, recorder, view = setup
        view.store_u64(64, 1)
        view.load_u64(64)
        assert recorder.events[-1].nonpersisted

    def test_load_clean_no_writers(self, setup):
        _pool, _ctx, recorder, view = setup
        view.ntstore_u64(64, 1)
        view.load_u64(64)
        assert not recorder.events[-1].nonpersisted


class TestCas:
    def test_cas_success(self, setup):
        _pool, _ctx, _recorder, view = setup
        ok, old = view.cas_u64(64, 0, 5)
        assert ok and old == 0
        assert view.load_u64(64) == 5

    def test_cas_failure(self, setup):
        _pool, _ctx, _recorder, view = setup
        view.ntstore_u64(64, 3)
        ok, old = view.cas_u64(64, 0, 5)
        assert not ok and old == 3
        assert view.load_u64(64) == 3

    def test_cas_emits_load_and_store(self, setup):
        _pool, _ctx, recorder, view = setup
        view.cas_u64(64, 0, 5)
        kinds = [event.kind for event in recorder.events]
        assert kinds == ["load", "cas"]

    def test_failed_cas_emits_only_load(self, setup):
        _pool, _ctx, recorder, view = setup
        view.ntstore_u64(64, 3)
        recorder.events.clear()
        view.cas_u64(64, 0, 5)
        assert [event.kind for event in recorder.events] == ["load"]


class TestTaintFlow:
    def make(self):
        pool = PmemPool("taintflow", 8192)
        ctx = InstrumentationContext()
        checker = ctx.add_observer(InconsistencyChecker(pool))
        view = PmView(pool, None, ctx)
        return pool, ctx, checker, view

    def test_dirty_read_is_tainted(self):
        _pool, _ctx, checker, view = self.make()
        view.store_u64(64, 42)
        value = view.load_u64(64)
        assert taint_of(value)
        assert len(checker.candidates) == 1

    def test_clean_read_untainted(self):
        _pool, _ctx, checker, view = self.make()
        view.ntstore_u64(64, 42)
        value = view.load_u64(64)
        assert not taint_of(value)
        assert not checker.candidates

    def test_content_flow_confirms(self):
        _pool, _ctx, checker, view = self.make()
        view.store_u64(64, 42)
        value = view.load_u64(64)
        view.ntstore_u64(128, value + 1)
        assert len(checker.inconsistencies) == 1
        assert not checker.inconsistencies[0].address_flow

    def test_address_flow_confirms(self):
        _pool, _ctx, checker, view = self.make()
        view.store_u64(64, 256)
        addr = view.load_u64(64)
        view.ntstore_u64(addr + 64, 1)
        assert len(checker.inconsistencies) == 1
        assert checker.inconsistencies[0].address_flow

    def test_untainted_store_no_inconsistency(self):
        _pool, _ctx, checker, view = self.make()
        view.store_u64(64, 42)
        view.load_u64(64)
        view.ntstore_u64(128, 7)  # unrelated value
        assert not checker.inconsistencies

    def test_shadow_taint_through_memory(self):
        """store tainted -> load elsewhere -> store: multi-hop flow."""
        _pool, _ctx, checker, view = self.make()
        view.store_u64(64, 42)
        value = view.load_u64(64)        # candidate + taint
        view.ntstore_u64(128, value)     # tainted content persisted
        loaded = view.load_u64(128)      # clean read, shadow label
        assert taint_of(loaded)
        view.ntstore_u64(192, loaded + 1)
        # two inconsistencies: direct, and via the shadow hop
        assert len(checker.inconsistencies) == 2

    def test_shadow_cleared_by_clean_store(self):
        _pool, _ctx, checker, view = self.make()
        view.store_u64(64, 42)
        value = view.load_u64(64)
        view.ntstore_u64(128, value)
        view.ntstore_u64(128, 7)         # plain overwrite clears shadow
        assert not taint_of(view.load_u64(128))

    def test_taint_disabled(self):
        pool = PmemPool("no-taint", 8192)
        ctx = InstrumentationContext(taint_enabled=False)
        checker = ctx.add_observer(InconsistencyChecker(pool))
        view = PmView(pool, None, ctx)
        view.store_u64(64, 42)
        value = view.load_u64(64)
        assert not taint_of(value)
        view.ntstore_u64(128, value + 1)
        assert checker.candidates          # candidates still found
        assert not checker.inconsistencies  # but no flow confirmation


class _StackProbe(Observer):
    """Resolves each interesting event's lazy stack next to an eager
    walk taken at the same instant, and keeps the event."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.events = []
        self.pairs = []

    def _probe(self, event):
        self.events.append(event)
        if event.stack:
            table = self.ctx.callsites
            # skip=2 starts at the dispatcher; it and the hook frames
            # below it are instrumentation frames the walk skips, so this
            # is the eager stack the hook itself would have interned.
            eager = table.names(table.intern_stack(skip=2))
            self.pairs.append((event.kind, eager,
                               table.stack_names(event.stack)))

    on_load = _probe
    on_store = _probe


class TestLazyStacks:
    def make(self, probe=True):
        pool = PmemPool("lazy", 8192)
        ctx = InstrumentationContext()
        checker = ctx.add_observer(InconsistencyChecker(pool))
        if probe:
            probe = ctx.add_observer(_StackProbe(ctx))
        return pool, ctx, checker, probe, PmView(pool, None, ctx)

    def test_lazy_stack_names_match_eager_walk(self):
        _pool, _ctx, checker, probe, view = self.make()

        def reader():
            value = view.load_u64(64)
            ok, _old = view.cas_u64(64, 42, 43)
            return value, ok

        def writer(value):
            view.ntstore_u64(128, value + 1)
            view.cas_u64(192, 0, value)

        def outer():
            view.store_u64(64, 42)
            value, ok = reader()
            writer(value)
            return ok

        assert outer()
        kinds = [kind for kind, _eager, _lazy in probe.pairs]
        assert kinds == ["load", "load", "ntstore", "cas"]
        for _kind, eager, lazy in probe.pairs:
            assert lazy == eager
            assert "reader" in lazy[0] or "writer" in lazy[0]
            assert "outer" in lazy[1]
        # The checker stored the same names on its candidate and record.
        assert checker.candidates[0].stack == probe.pairs[0][2]
        assert checker.inconsistencies[0].stack == probe.pairs[2][2]

    def test_no_frame_outlives_the_hook(self):
        import gc
        import types
        import weakref

        _pool, _ctx, _checker, probe, view = self.make()

        class Sentinel:
            pass

        def caller():
            sentinel = Sentinel()
            view.store_u64(64, 42)
            value = view.load_u64(64)
            view.ntstore_u64(128, value)
            return weakref.ref(sentinel)

        enabled = gc.isenabled()
        gc.disable()
        try:
            ref = caller()
            # The probe still holds every event: none may pin the
            # caller's frame (and with it the frame's locals).
            assert ref() is None
        finally:
            if enabled:
                gc.enable()
        assert probe.pairs
        assert not any(isinstance(event.stack, types.FrameType)
                       for event in probe.events)

    def test_stack_interned_only_for_new_records(self):
        # No probe: its eager walks would intern the frames too.
        _pool, ctx, checker, _probe, view = self.make(probe=False)

        def deep(depth):
            if depth:
                return deep(depth - 1)
            return view.load_u64(64)

        view.store_u64(64, 42)
        deep(3)
        assert len(checker.candidates) == 1
        before = len(ctx.callsites)
        for _ in range(5):
            deep(6)  # dirty reads repeating the candidate, deeper stack
        assert len(checker.candidates) == 1
        # Only the new call sites of the loads were interned, not the
        # stack frames of every interesting access.
        assert len(ctx.callsites) == before
