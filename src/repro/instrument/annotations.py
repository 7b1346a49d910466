"""Lightweight annotations for persistent synchronization variables (§5).

The original tool exposes ``pm_sync_var_hint(size, init_val)`` as a Clang
annotation on variable/field *definitions*. Here a target declares each
synchronization-variable *type* once (name, word size, expected post-
recovery value) and registers the PM addresses of its instances as it lays
out structures. The checker flags stores to registered addresses and the
post-failure validator compares the recovered value against ``init_val``.
"""

from bisect import bisect_left


class SyncVarAnnotation:
    """One annotated synchronization-variable type.

    Attributes:
        name: Type name, e.g. ``"bucket_lock"`` — the dedup unit for
            PM Synchronization Inconsistencies ("same synchronization
            variable type", §6.2).
        size: Variable size in bytes.
        init_val: Expected value after a correct recovery.
    """

    __slots__ = ("name", "size", "init_val", "addrs")

    def __init__(self, name, size, init_val):
        self.name = name
        self.size = size
        self.init_val = init_val
        self.addrs = set()

    def __repr__(self):
        return "<SyncVarAnnotation %s size=%d init=%r instances=%d>" % (
            self.name, self.size, self.init_val, len(self.addrs))


class AnnotationRegistry:
    """All sync-var annotations of one target program."""

    def __init__(self):
        self._types = {}
        self._by_addr = {}
        #: Sorted registered addresses, rebuilt on the first lookup
        #: after a (un)registration; None while stale.
        self._starts = None

    def pm_sync_var_hint(self, name, size, init_val):
        """Declare a synchronization-variable type; idempotent by name."""
        annotation = self._types.get(name)
        if annotation is None:
            annotation = SyncVarAnnotation(name, size, init_val)
            self._types[name] = annotation
        return annotation

    def register_instance(self, name, addr):
        """Mark ``addr`` as an instance of the annotated type ``name``."""
        annotation = self._types[name]
        annotation.addrs.add(addr)
        self._by_addr[addr] = annotation
        self._starts = None

    def unregister_instance(self, addr):
        annotation = self._by_addr.pop(addr, None)
        if annotation is not None:
            annotation.addrs.discard(addr)
            self._starts = None

    def lookup(self, addr, size):
        """The annotation of the lowest registered address in
        ``[addr, addr+size)``, or None.

        Runs on every instrumented store: one bisection over the sorted
        registered addresses instead of a dict probe per byte.
        """
        by_addr = self._by_addr
        if not by_addr:
            return None
        starts = self._starts
        if starts is None:
            starts = self._starts = sorted(by_addr)
        index = bisect_left(starts, addr)
        if index < len(starts) and starts[index] < addr + max(size, 1):
            return by_addr[starts[index]]
        return None

    def types(self):
        return list(self._types.values())

    def declared_names(self):
        """The declared sync-var type names, as a set.

        pmlint's PM03 rule consumes this when a live registry is
        available: lock-like PM stores whose identifiers match no
        declared name are reported as unregistered (post-failure
        validation cannot check them).
        """
        return set(self._types)

    @property
    def annotation_count(self):
        """Number of annotated types — the "Annotation" column of Table 3."""
        return len(self._types)
