"""Instrumentation-context tests: shadow taint, observer fan-out."""

import pytest

from repro.instrument import InstrumentationContext, Observer, PmAccessEvent
from repro.instrument.taint import TaintLabel


L1 = frozenset({TaintLabel(0, "r", "w", 0, 1)})
L2 = frozenset({TaintLabel(1, "r2", "w2", 0, 1)})


class TestShadowTaint:
    def test_store_then_load(self):
        ctx = InstrumentationContext()
        ctx.shadow_store(64, 8, L1)
        assert ctx.shadow_load(64, 8) == L1

    def test_unaligned_overlap(self):
        ctx = InstrumentationContext()
        ctx.shadow_store(60, 8, L1)  # spans words 56 and 64
        assert ctx.shadow_load(56, 4) == L1
        assert ctx.shadow_load(64, 1) == L1

    def test_clean_store_clears(self):
        ctx = InstrumentationContext()
        ctx.shadow_store(64, 8, L1)
        ctx.shadow_store(64, 8, frozenset())
        assert ctx.shadow_load(64, 8) == frozenset()

    def test_labels_union_over_range(self):
        ctx = InstrumentationContext()
        ctx.shadow_store(64, 8, L1)
        ctx.shadow_store(72, 8, L2)
        assert ctx.shadow_load(64, 16) == (L1 | L2)

    def test_disabled_taint(self):
        ctx = InstrumentationContext(taint_enabled=False)
        ctx.shadow_store(64, 8, L1)
        assert ctx.shadow_load(64, 8) == frozenset()


class TestDispatch:
    def make_event(self, kind="store", addr=64):
        return PmAccessEvent(kind, addr, 8, 1)

    def test_load_collects_minted_labels(self):
        ctx = InstrumentationContext()

        class Minter(Observer):
            def on_load(self, event):
                return L1

        class Other(Observer):
            def on_load(self, event):
                return L2

        ctx.add_observer(Minter())
        ctx.add_observer(Other())
        assert ctx.dispatch_load(self.make_event("load")) == (L1 | L2)

    def test_load_none_results_ignored(self):
        ctx = InstrumentationContext()
        ctx.add_observer(Observer())
        assert ctx.dispatch_load(self.make_event("load")) == frozenset()

    def test_store_fans_out(self):
        ctx = InstrumentationContext()
        seen = []

        class Spy(Observer):
            def on_store(self, event):
                seen.append(event.addr)

        ctx.add_observer(Spy())
        ctx.add_observer(Spy())
        ctx.dispatch_store(self.make_event())
        assert seen == [64, 64]

    def test_annotated_store_routed(self):
        from repro.instrument import AnnotationRegistry
        registry = AnnotationRegistry()
        registry.pm_sync_var_hint("lock", 8, 0)
        registry.register_instance("lock", 64)
        ctx = InstrumentationContext(annotations=registry)
        hits = []

        class Spy(Observer):
            def on_annotated_store(self, annotation, event):
                hits.append(annotation.name)

        ctx.add_observer(Spy())
        ctx.dispatch_store(self.make_event(addr=64))
        ctx.dispatch_store(self.make_event(addr=512))
        assert hits == ["lock"]

    def test_flush_fence_dispatch(self):
        ctx = InstrumentationContext()
        kinds = []

        class Spy(Observer):
            def on_flush(self, event):
                kinds.append("flush")

            def on_fence(self, event):
                kinds.append("fence")

        ctx.add_observer(Spy())
        ctx.dispatch_flush(self.make_event("clwb"))
        ctx.dispatch_fence(PmAccessEvent("sfence", None, 0))
        assert kinds == ["flush", "fence"]


class TestCallbackTables:
    def test_noop_callbacks_are_not_dispatched(self, monkeypatch):
        calls = []

        class LoadsOnly(Observer):
            def on_load(self, event):
                calls.append("load")

        # Make Observer's own no-op methods visible: none may run for an
        # observer that does not override them.
        for name in ("on_store", "on_flush", "on_fence",
                     "on_annotated_store"):
            monkeypatch.setattr(
                Observer, name,
                lambda self, *args, _name=name: calls.append(_name))
        from repro.instrument import AnnotationRegistry
        registry = AnnotationRegistry()
        registry.pm_sync_var_hint("lock", 8, 0)
        registry.register_instance("lock", 64)
        ctx = InstrumentationContext(annotations=registry)
        ctx.add_observer(LoadsOnly())
        ctx.dispatch_load(PmAccessEvent("load", 64, 8, 1))
        ctx.dispatch_store(PmAccessEvent("store", 64, 8, 1))
        ctx.dispatch_flush(PmAccessEvent("clwb", 64, 0))
        ctx.dispatch_fence(PmAccessEvent("sfence", None, 0))
        assert calls == ["load"]

    def test_duck_typed_observer_and_registration_order(self):
        seen = []

        class Duck:
            def __init__(self, name):
                self.name = name

            def on_load(self, event):
                seen.append(self.name)

            def on_store(self, event):
                seen.append(self.name + "-store")

        ctx = InstrumentationContext()
        ctx.add_observer(Duck("first"))
        ctx.add_observer(Duck("second"))
        ctx.dispatch_load(PmAccessEvent("load", 64, 8, 1))
        ctx.dispatch_store(PmAccessEvent("store", 64, 8, 1))
        ctx.dispatch_fence(PmAccessEvent("sfence", None, 0))
        assert seen == ["first", "second", "first-store", "second-store"]
