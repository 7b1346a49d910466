"""Per-campaign instrumentation context: observer fan-out + shadow taint.

The context is the glue between the hook layer (:mod:`hooks`) and the
consumers: PM checkers (:mod:`repro.detect.checkers`), coverage collectors
and the shared-access priority queue (:mod:`repro.core`), and the
sync-point controller. It also keeps DFSan-style *shadow taint*: labels of
values stored to PM propagate to later loads of the same words, so
multi-hop flows (store tainted → load → store elsewhere) are tracked.
"""

from ..pmem.cacheline import words_of
from .callsite import CallSiteTable
from .events import Observer
from .taint import EMPTY

#: Observer callbacks, one dispatch tuple each.
_CALLBACKS = ("on_load", "on_store", "on_flush", "on_fence",
              "on_annotated_store")


class InstrumentationContext:
    """State shared by all hooks of one fuzz campaign.

    Args:
        annotations: Optional :class:`~repro.instrument.annotations.
            AnnotationRegistry` of the target.
        taint_enabled: Disable to measure the taint ablation.
        capture_stacks: Record stacks for candidate loads / annotated
            stores (needed by the whitelist and bug reports).
        metrics: Optional :class:`~repro.obs.metrics.Metrics` registry;
            hooks bind their counters from it once at construction, so
            the disabled path costs one None-check per access.
        callsites: Optional :class:`~repro.instrument.callsite.
            CallSiteTable`. The engine passes one table per fuzzing run
            (interned ids must stay comparable across campaigns); a
            standalone context creates its own.
    """

    def __init__(self, annotations=None, taint_enabled=True,
                 capture_stacks=True, metrics=None, callsites=None):
        self.annotations = annotations
        self.taint_enabled = taint_enabled
        self.capture_stacks = capture_stacks
        self.metrics = metrics
        self.callsites = callsites if callsites is not None \
            else CallSiteTable()
        # Per-kind tuples of bound callbacks; an observer that keeps
        # :class:`Observer`'s no-op for a kind is left out of that kind.
        self._on_load = self._on_store = self._on_flush = ()
        self._on_fence = self._on_annotated_store = ()
        #: Sync-point controller (duck-typed: before_load / after_store).
        self.controller = None
        #: word offset -> frozenset of labels carried by the stored value.
        self._shadow = {}

    def add_observer(self, observer):
        """Register ``observer``; returns it.

        Callbacks are bound once, here, and dispatched in registration
        order. A callback the observer does not define, or inherits as
        :class:`Observer`'s no-op, is never called.
        """
        # Observers that resolve interned instruction ids expose a
        # ``callsites`` attribute; wire them to this context's table
        # unless they were constructed with one explicitly.
        if getattr(observer, "callsites", False) is None:
            observer.callsites = self.callsites
        for name in _CALLBACKS:
            callback = getattr(observer, name, None)
            if callback is None or getattr(callback, "__func__", None) \
                    is getattr(Observer, name):
                continue
            attr = "_" + name
            setattr(self, attr, getattr(self, attr) + (callback,))
        return observer

    # ------------------------------------------------------------------
    # shadow taint

    def shadow_store(self, addr, size, labels):
        if not self.taint_enabled:
            return
        shadow = self._shadow
        if labels:
            for word in words_of(addr, max(size, 1)):
                shadow[word] = labels
        elif shadow:
            for word in words_of(addr, max(size, 1)):
                shadow.pop(word, None)

    def shadow_load(self, addr, size):
        if not self.taint_enabled:
            return EMPTY
        shadow = self._shadow
        if not shadow:
            return EMPTY
        labels = EMPTY
        for word in words_of(addr, max(size, 1)):
            extra = shadow.get(word)
            if extra:
                labels = labels | extra
        return labels

    # ------------------------------------------------------------------
    # dispatch

    def dispatch_load(self, event):
        """Fan a load event out; returns labels minted by the checkers."""
        labels = EMPTY
        for on_load in self._on_load:
            minted = on_load(event)
            if minted:
                labels = labels | minted
        return labels

    def dispatch_store(self, event):
        for on_store in self._on_store:
            on_store(event)
        if self.annotations is not None and self._on_annotated_store:
            annotation = self.annotations.lookup(event.addr, event.size)
            if annotation is not None:
                for on_annotated_store in self._on_annotated_store:
                    on_annotated_store(annotation, event)

    def dispatch_flush(self, event):
        for on_flush in self._on_flush:
            on_flush(event)

    def dispatch_fence(self, event):
        for on_fence in self._on_fence:
            on_fence(event)
