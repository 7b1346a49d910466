"""Instruction identifiers and stack traces for instrumented PM accesses.

The LLVM pass in the original system assigns each instrumented instruction
a unique integer ID. Here the "instruction" is the call site of a
:class:`~repro.instrument.hooks.PmView` method, identified by the caller's
``module:function:line``. Bug deduplication ("same store instruction",
§6.2) and the whitelist ("locations of codes", §4.4) both key on these.

Two representations exist:

* **Interned ints** — :class:`CallSiteTable` assigns each distinct call
  site a small integer the first time it is seen, cached per
  ``(f_code, f_lineno)`` so the hot path pays one frame fetch plus one
  dict hit instead of string formatting per access. Events, coverage
  sets, the priority queue, and sync-point bookkeeping all carry these.
* **Strings** — the table's string table resolves an id back to its
  ``module:function:line`` form at the detection boundary, so records,
  dedup keys, whitelist entries, and reports look exactly like before
  (and stay comparable across runs and parallel workers).

Stacks are interned lazily: a hook keeps its caller's frame and
:meth:`CallSiteTable.stack_names` walks it only when a checker creates
a candidate or record, so a table lists the call sites of every access
plus the stack frames of new findings — not every frame of every
interesting access.

Ids are canonicalized through the string: two code objects that format to
the same ``module:function:line`` share one id, keeping id↔string a
bijection (coverage counts cannot drift from string-keyed behaviour).

The module-level :func:`call_site`/:func:`stack_trace` functions remain
for uninstrumented callers (recovery views, tests) and always return
strings.
"""

import sys
from types import FrameType

_INTERNAL_PREFIXES = (
    "repro.instrument",
    "repro.pmem",
    "repro.runtime.scheduler",
)


def _describe(frame):
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    return "%s:%s:%d" % (module, code.co_name, frame.f_lineno)


class CallSiteTable:
    """Per-run interning table for call-site instruction IDs.

    One table spans all campaigns of a fuzzing run (the engine's skip
    carry-over, coverage sets, and priority queue compare ids across
    campaigns), created in :meth:`repro.core.engine.PMRace.run` and
    threaded through the campaign into the instrumentation context.
    """

    __slots__ = ("_by_frame", "_by_name", "_names", "_code_internal")

    def __init__(self):
        #: (f_code, f_lineno) -> interned id (the hot-path cache).
        self._by_frame = {}
        #: canonical string -> interned id (makes id↔string a bijection).
        self._by_name = {}
        #: interned id -> canonical string.
        self._names = []
        #: f_code -> bool: is the frame's module instrumentation-internal?
        self._code_internal = {}

    def __len__(self):
        return len(self._names)

    # ------------------------------------------------------------------
    # interning (hot path)

    def intern_name(self, text):
        """Intern an explicit ``module:function:line`` string."""
        by_name = self._by_name
        site_id = by_name.get(text)
        if site_id is None:
            site_id = len(self._names)
            by_name[text] = site_id
            self._names.append(text)
        return site_id

    def _intern_frame(self, frame):
        key = (frame.f_code, frame.f_lineno)
        site_id = self._by_frame.get(key)
        if site_id is None:
            site_id = self.intern_name(_describe(frame))
            self._by_frame[key] = site_id
        return site_id

    def intern_caller(self, skip=2):
        """Interned id of the first caller outside the instrumentation layer.

        Args:
            skip: Frames to skip before searching (the hook method itself).
        """
        frame = sys._getframe(skip)
        code_internal = self._code_internal
        while frame is not None:
            code = frame.f_code
            internal = code_internal.get(code)
            if internal is None:
                internal = frame.f_globals.get("__name__", "") \
                    .startswith(_INTERNAL_PREFIXES)
                code_internal[code] = internal
            if not internal:
                return self._intern_frame(frame)
            frame = frame.f_back
        return self.intern_name("<unknown>")

    def intern_stack(self, skip=2, limit=16):
        """Interned call-site ids from innermost outwards, as a tuple."""
        return self.intern_frames(sys._getframe(skip), limit)

    def intern_frames(self, frame, limit=16):
        """Interned ids of ``frame`` and its callers, innermost first,
        instrumentation frames skipped; at most ``limit`` ids."""
        frames = []
        code_internal = self._code_internal
        while frame is not None and len(frames) < limit:
            code = frame.f_code
            internal = code_internal.get(code)
            if internal is None:
                internal = frame.f_globals.get("__name__", "") \
                    .startswith(_INTERNAL_PREFIXES)
                code_internal[code] = internal
            if not internal:
                frames.append(self._intern_frame(frame))
            frame = frame.f_back
        return tuple(frames)

    # ------------------------------------------------------------------
    # resolution (detection boundary)

    def name(self, site_id):
        """``module:function:line`` of an interned id.

        Non-ids (already-resolved strings, ``None`` from uninstrumented
        events) pass through unchanged, so boundary code can resolve
        unconditionally.
        """
        names = self._names
        if type(site_id) is int and 0 <= site_id < len(names):
            return names[site_id]
        return site_id

    def names(self, site_ids):
        """Resolve a sequence of ids; returns a tuple of strings."""
        name = self.name
        return tuple(name(site_id) for site_id in site_ids)

    def stack_names(self, stack):
        """Resolve an event's stack to strings.

        ``stack`` is either the live frame a hook kept (walked and
        interned now, while the hook is still running, so every frame
        still sits on the line it called from) or a sequence of ids.
        """
        if isinstance(stack, FrameType):
            stack = self.intern_frames(stack)
        return self.names(stack)

    def snapshot(self):
        """The full string table, index == interned id (repro bundles)."""
        return list(self._names)


def call_site(skip=2):
    """Instruction ID (string form) of the first caller outside the
    instrumentation layer.

    Args:
        skip: Frames to skip before searching (the hook method itself).
    """
    frame = sys._getframe(skip)
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if not module.startswith(_INTERNAL_PREFIXES):
            return _describe(frame)
        frame = frame.f_back
    return "<unknown>"


def stack_trace(skip=2, limit=16):
    """Call-site list from innermost outwards, excluding instrumentation."""
    frames = []
    frame = sys._getframe(skip)
    while frame is not None and len(frames) < limit:
        module = frame.f_globals.get("__name__", "")
        if not module.startswith(_INTERNAL_PREFIXES):
            frames.append(_describe(frame))
        frame = frame.f_back
    return frames
