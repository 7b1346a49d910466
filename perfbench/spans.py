"""The traced run: per-layer self time and counts, measured from outside.

:class:`Spans` wraps public functions of each ``repro`` layer (see
:data:`LAYERS`) and charges wall time to layers *exclusively*: execution
is serialized (one simulated thread runs at a time, and the main
thread waits while they run), so every interval between two span
boundaries belongs to exactly one label -- the innermost open span of
the thread that is running. A layer's self time is thus its spans'
duration minus the part their child spans cover.

``Scheduler.yield_point`` is the handoff: the interval from a thread
entering it to the next span boundary on *any* thread is charged to
``runtime.handoff``, and a boundary on another thread than the one that
yielded counts as a switch. Time of a simulated thread outside every
span (thread start and exit, the per-op worker loop) and the main
thread's own share of ``run_campaign`` is ``unaccounted``.

Frame transparency: ``CallSiteTable.intern_caller`` and ``intern_stack``
name an access by the first stack frame outside ``repro.instrument``,
``repro.pmem`` and ``repro.runtime.scheduler``. A wrapper frame between
target code and ``PmView`` would otherwise become that frame and change
every instruction id, so each wrapper is compiled with a module name
under ``repro.instrument`` and is skipped like the hooks' own frames.
The traced run must reproduce the untraced run's ``result_fingerprint``
(``run.py`` checks it).

Spans of whole campaigns, engine runs, replays, shrinks, validation
drains and session writes are kept as records (name, start, end, parent,
thread, id) in memory and written out when the run ends; the
per-access spans are only summed.
"""

import collections
import importlib
import inspect
import json
import math
import os
import statistics
import threading
import time
import weakref

#: Module name the wrappers run under (see "Frame transparency").
WRAPPER_MODULE = "repro.instrument.perfbench_spans"

#: (module, class or None, function names, label) -- what is wrapped.
LAYERS = (
    ("repro.runtime.scheduler", "Scheduler", ("yield_point",),
     "runtime.handoff"),
    ("repro.instrument.hooks", "PmView",
     ("load_u64", "load_bytes", "store_u64", "store_bytes", "ntstore_u64",
      "ntstore_bytes", "cas_u64", "clwb", "sfence"), "instrument.hooks"),
    ("repro.instrument.context", "InstrumentationContext",
     ("dispatch_load", "dispatch_store", "dispatch_flush",
      "dispatch_fence"), "instrument.dispatch"),
    ("repro.instrument.context", "InstrumentationContext",
     ("shadow_load", "shadow_store"), "instrument.taint"),
    ("repro.pmem.memory", "PersistentMemory",
     ("load", "store", "load_persisted", "clwb", "clflush", "sfence",
      "nonpersisted_writers", "persist_all"), "pmem.ops"),
    ("repro.pmem.memory", "PersistentMemory", ("snapshot", "restore"),
     "pmem.restore"),
    ("repro.pmem.memory", "PersistentMemory", ("crash_image",),
     "pmem.crash_image"),
    ("repro.detect.checkers", "InconsistencyChecker",
     ("on_load", "on_store", "on_annotated_store"), "detect.checkers"),
    ("repro.detect.validation_service", "ValidationQueue", ("drain",),
     "detect.validation"),
    ("repro.detect.postfailure", "PostFailureValidator",
     ("replay", "validate"), "detect.validation"),
    ("repro.core.engine", "PMRace", ("run",), "core.engine"),
    ("repro.core.engine", None, ("run_campaign",), "unaccounted"),
    ("repro.core.checkpoints", "StateProvider", ("provide",),
     "core.checkpoints"),
    ("repro.core.coverage", "CoverageSet", ("merge",), "core.coverage"),
    ("repro.core.coverage", "BranchCoverageCollector",
     ("on_load", "on_store", "on_flush", "on_fence"), "core.coverage"),
    ("repro.core.coverage", "AliasCoverageCollector",
     ("on_load", "on_store"), "core.coverage"),
    ("repro.core.priority", "AccessProfiler", ("on_load", "on_store"),
     "core.priority"),
    ("repro.core.priority", "SharedAccessQueue", ("update_from", "fetch"),
     "core.priority"),
    ("repro.core.syncpoints", "SyncPointController",
     ("before_load", "after_store"), "core.syncpoints"),
    ("repro.core.corpus", "Corpus",
     ("load", "add_initial", "next_entry", "account", "settle", "export"),
     "core.corpus"),
    ("repro.core.session", None, ("run_fuzz_session",), "core.engine"),
    ("repro.core.session", "Session", ("write_checkpoint",),
     "core.session.checkpoint"),
    ("repro.core.session", None, ("append_jsonl",), "core.session.journal"),
    ("repro.core.session", "ImageStore", ("put",), "core.session.images"),
    ("repro.core.session", "Session", ("open", "load_checkpoint"),
     "core.session.load"),
    ("repro.replay.replayer", None, ("replay_campaign",), "replay.campaign"),
    ("repro.replay.minimize", None, ("replay_campaign",), "replay.campaign"),
    ("repro.replay.replayer", None, ("run_campaign",), "unaccounted"),
    ("repro.replay", None, ("replay_bundle",), "replay.bundle"),
    ("repro.replay.replayer", None, ("replay_bundle",), "replay.bundle"),
    ("repro.replay.minimize", None, ("replay_bundle",), "replay.bundle"),
    ("repro.replay", None, ("shrink_bundle",), "replay.shrink"),
    ("repro.replay.minimize", None, ("shrink_bundle",), "replay.shrink"),
)

#: Wrapped functions whose calls are kept as span records.
RECORDED = {
    ("PMRace", "run"): "core.engine.run",
    ("repro.core.engine", "run_campaign"): "core.campaign",
    ("repro.replay.replayer", "run_campaign"): "replay.run_campaign",
    ("ValidationQueue", "drain"): "detect.validation.drain",
    ("Session", "write_checkpoint"): "core.session.checkpoint",
    ("Session", "open"): "core.session.open",
    ("repro.core.session", "run_fuzz_session"): "core.session.run",
    ("repro.replay", "replay_bundle"): "replay.bundle",
    ("repro.replay", "shrink_bundle"): "replay.shrink",
}

#: PmView method -> access kind counted in ``instrument.accesses.*``.
ACCESS_KINDS = {"load_u64": "load", "load_bytes": "load",
                "store_u64": "store", "store_bytes": "store",
                "ntstore_u64": "ntstore", "ntstore_bytes": "ntstore",
                "cas_u64": "cas", "clwb": "flush", "sfence": "fence"}

#: Self-time labels reported as ``<label>_s``.
SELF_TIME_LABELS = (
    "runtime.handoff", "instrument.hooks", "instrument.taint",
    "instrument.dispatch", "pmem.ops", "pmem.restore", "pmem.crash_image",
    "detect.checkers", "detect.validation", "core.engine",
    "core.checkpoints", "core.coverage", "core.priority",
    "core.syncpoints", "core.corpus", "core.session.checkpoint",
    "core.session.journal", "core.session.images", "core.session.load",
    "replay.campaign", "replay.bundle", "replay.shrink", "targets.exec",
    "targets.recover", "unaccounted",
)

# The hot wrappers inline the accountant (no method calls per boundary).
# ``st`` is ``[time of the last boundary, label being charged, thread
# that entered the handoff or None]``; ``stacks`` maps a thread to its
# open labels.
_ENTER = '''
    now = perf()
    me = ident()
    self_s[st[1]] += now - st[0]
    st[0] = now
    if st[2] is not None:
        if st[2] != me:
            calls["runtime.switches"] += 1
        st[2] = None
    stack = stacks.get(me)
    if stack is None:
        stack = stacks[me] = []
    stack.append(label)
    st[1] = label
'''

_LEAVE = '''
        now = perf()
        self_s[st[1]] += now - st[0]
        st[0] = now
        if st[2] is not None:
            if st[2] != me:
                calls["runtime.switches"] += 1
            st[2] = None
        stack.pop()
        st[1] = stack[-1] if stack else "unaccounted"
'''

_PLAIN = ("def wrapper({params}):" + _ENTER + "    {count}\n"
          "    try:\n        return fn({args})\n    finally:" + _LEAVE)

_YIELD = ("def wrapper(self, kind=\"op\", reason=None):" + _ENTER
          + "    st[2] = me\n"
          "    calls[\"runtime.yields\"] += 1\n"
          "    if kind == \"spin\":\n"
          "        calls[\"runtime.spin_yields\"] += 1\n"
          "    try:\n        return fn(self, kind, reason)\n    finally:"
          + _LEAVE)

_POST = '''
def wrapper(*args, **kwargs):
    return post(fn(*args, **kwargs))
'''

_RECORDED = '''
def wrapper(*args, **kwargs):
    index = begin(label, name, args)
    try:
        result = fn(*args, **kwargs)
    finally:
        end(index)
    after(args, result)
    return result
'''


#: Names the wrapper sources use; a function with a parameter of one of
#: these names gets the ``*args, **kwargs`` form instead.
_RESERVED = frozenset({"fn", "label", "key", "calls", "perf", "ident",
                       "self_s", "st", "stacks", "now", "me", "stack"})


def _signature(fn):
    """``(params, args, defaults)`` source fragments repeating ``fn``'s
    own signature, so the wrapper packs no ``*args``/``**kwargs``."""
    try:
        parameters = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):
        parameters = None
    if parameters is None or any(
            p.kind is not p.POSITIONAL_OR_KEYWORD or p.name in _RESERVED
            for p in parameters):
        return "*args, **kwargs", "*args, **kwargs", {}
    params, args, defaults = [], [], {}
    for p in parameters:
        if p.default is p.empty:
            params.append(p.name)
        else:
            defaults["_default_" + p.name] = p.default
            params.append("%s=_default_%s" % (p.name, p.name))
        args.append(p.name)
    return ", ".join(params), ", ".join(args), defaults


def _compile(source, **names):
    if "{params}" in source:
        params, args, defaults = _signature(names["fn"])
        count = "calls[key] += 1" if names.get("key") else "pass"
        source = source.format(params=params, args=args, count=count)
        names.update(defaults)
    namespace = dict(names, __name__=WRAPPER_MODULE)
    exec(compile(source, "<perfbench span>", "exec"), namespace)
    wrapper = namespace["wrapper"]
    fn = names["fn"]
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    wrapper.__wrapped__ = fn
    return wrapper


class Spans:
    """Exclusive per-label wall time plus the counts named in LAYERS."""

    def __init__(self):
        self.self_s = collections.defaultdict(float)
        self.calls = collections.Counter()
        self.records = []
        self.crash_image_bytes = 0
        self.raw_records = 0
        self.kept_records = 0
        self.raw_candidates = 0
        self.productive = set()
        self.campaigns = 0
        self.replay_divergences = 0
        self.checkpoint_bytes = 0
        self.queue_stats = {}
        self._queue_serials = weakref.WeakKeyDictionary()
        self._run_keys = set()
        self._stacks = {}
        self._records_open = {}
        self._st = [time.perf_counter(), "bench", None]

    # ------------------------------------------------------------------
    # the accountant (called from the wrappers)

    def enter(self, label, key):
        """Open a span on this thread (the recorded wrappers' form of
        ``_ENTER``)."""
        st = self._st
        now = time.perf_counter()
        me = threading.get_ident()
        self.self_s[st[1]] += now - st[0]
        st[0] = now
        if st[2] is not None:
            if st[2] != me:
                self.calls["runtime.switches"] += 1
            st[2] = None
        if key is not None:
            self.calls[key] += 1
        self._stacks.setdefault(me, []).append(label)
        st[1] = label

    def leave(self):
        """Close this thread's innermost span (``_LEAVE``)."""
        st = self._st
        now = time.perf_counter()
        me = threading.get_ident()
        self.self_s[st[1]] += now - st[0]
        st[0] = now
        if st[2] is not None:
            if st[2] != me:
                self.calls["runtime.switches"] += 1
            st[2] = None
        stack = self._stacks[me]
        stack.pop()
        st[1] = stack[-1] if stack else "unaccounted"

    def begin(self, label, name, args):
        self.enter(label, name)
        ident = threading.get_ident()
        opened = self._records_open.setdefault(ident, [])
        parent = opened[-1] if opened else None
        index = len(self.records)
        self.records.append({"name": name, "start": self._st[0],
                             "end": None, "parent": parent,
                             "thread": ident, "id": self._span_id(name,
                                                                  args)})
        opened.append(index)
        return index

    def end(self, index):
        self.leave()
        self.records[index]["end"] = self._st[0]
        self._records_open[threading.get_ident()].pop()

    def _span_id(self, name, args):
        if name == "core.engine.run":
            self._run_keys = set()
            pmrace = args[0]
            return "%s/%d" % (pmrace.target.NAME, pmrace.config.base_seed)
        if name == "core.campaign":
            return self.campaigns
        if name in ("replay.bundle", "replay.shrink"):
            bundle = args[0]
            return "%s/%d#%d" % (bundle.target, bundle.base_seed,
                                 bundle.campaign_index)
        return None

    # ------------------------------------------------------------------
    # counts taken where the work happens

    def _after(self, name, args, result):
        if name == "core.campaign":
            self.campaigns += 1
            checker = result.checker
            self.raw_candidates += len(checker.candidates)
            for found in list(checker.inconsistencies) \
                    + list(checker.sync_inconsistencies):
                self.raw_records += 1
                key = found.dedup_key()
                if key not in self._run_keys:
                    self._run_keys.add(key)
                    self.kept_records += 1
        elif name == "detect.validation.drain":
            queue = args[0]
            self.queue_stats[self._queue_id(queue)] = queue.stats()
        elif name == "core.session.checkpoint":
            session = args[0]
            if result and os.path.exists(session.checkpoint_path):
                self.checkpoint_bytes += os.path.getsize(
                    session.checkpoint_path)

    def _queue_id(self, queue):
        serial = self._queue_serials.get(queue)
        if serial is None:
            serial = self._queue_serials[queue] = len(self.queue_stats)
        return serial

    def _count_crash_image(self, image):
        self.crash_image_bytes += len(image)
        return image

    def _mark_productive(self, added):
        if added:
            self.productive.add(self.campaigns)
        return added

    def _count_divergence(self, run):
        if run.divergence is not None:
            self.replay_divergences += 1
        return run

    # ------------------------------------------------------------------
    # installation

    def _wrap(self, label, fn, key=None, record=None):
        if record is None:
            return _compile(
                _YIELD if label == "runtime.handoff" else _PLAIN, fn=fn,
                label=label, key=key, calls=self.calls,
                perf=time.perf_counter, ident=threading.get_ident,
                self_s=self.self_s, st=self._st, stacks=self._stacks)
        spans = self

        def after(args, result):
            spans._after(record, args, result)
        return _compile(_RECORDED, fn=fn, begin=self.begin, end=self.end,
                        after=after, label=label, name=record)

    def install(self):
        """Wrap every function in LAYERS, plus every registered target
        class's ``exec_op``/``open`` and ``recover``."""
        for module_name, class_name, names, label in LAYERS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            for attr in names:
                self._patch(owner, attr, label,
                            record=RECORDED.get((class_name or module_name,
                                                 attr)),
                            key=self._key(class_name, attr, label))
        from repro.targets.registry import registered_classes

        for cls in registered_classes():
            for attr, label in (("exec_op", "targets.exec"),
                                ("open", "targets.exec"),
                                ("recover", "targets.recover")):
                if attr in vars(cls):
                    self._patch(cls, attr, label)
        from repro.core.coverage import CoverageSet
        from repro.pmem.memory import PersistentMemory
        from repro.replay import minimize, replayer

        self._patch_post(PersistentMemory, "crash_image",
                         self._count_crash_image)
        self._patch_post(CoverageSet, "merge", self._mark_productive)
        for module in (replayer, minimize):
            self._patch_post(module, "replay_campaign",
                             self._count_divergence)

    @staticmethod
    def _key(class_name, attr, label):
        if class_name == "PmView":
            return "instrument.accesses." + ACCESS_KINDS[attr]
        if (class_name, attr) == ("PostFailureValidator", "replay"):
            return "detect.validation.replays"
        if label == "pmem.crash_image":
            return "pmem.crash_images"
        return None

    def _patch(self, owner, attr, label, record=None, key=None):
        raw = vars(owner).get(attr) if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = self._wrap(label, raw.__func__, key, record)
            setattr(owner, attr, classmethod(wrapped))
            return
        setattr(owner, attr, self._wrap(label, raw, key, record))

    @staticmethod
    def _patch_post(owner, attr, post):
        """Pass every result of ``owner.attr`` through ``post``."""
        setattr(owner, attr, _compile(_POST, fn=getattr(owner, attr),
                                      post=post))

    # ------------------------------------------------------------------
    # results

    def _wall(self, name):
        return sum(r["end"] - r["start"] for r in self.records
                   if r["name"] == name and r["end"] is not None)

    def report(self, shrinks=()):
        """Per-layer metrics as ``{name: (value, unit)}``."""
        self.leave_all()
        campaign_walls = [r["end"] - r["start"] for r in self.records
                          if r["name"] == "core.campaign"
                          and r["end"] is not None]
        yields = self.calls["runtime.yields"]
        switches = self.calls["runtime.switches"]
        hits = sum(s["cache_hits"] for s in self.queue_stats.values())
        misses = sum(s["cache_misses"] for s in self.queue_stats.values())
        tests = sum(s.tests for s in shrinks)
        accepted = sum(1 for s in shrinks for step in s.steps
                       if step["reproduced"])
        out = {}
        for label in SELF_TIME_LABELS:
            name = "core.campaign.unaccounted" if label == "unaccounted" \
                else label
            out[name + "_s"] = (self.self_s.get(label, 0.0), "s")
        out.update({
            "runtime.yields": (yields, "count"),
            "runtime.spin_yields": (self.calls["runtime.spin_yields"],
                                    "count"),
            "runtime.switches": (switches, "count"),
            "runtime.switch_ratio": (_ratio(switches, yields), "ratio"),
            "pmem.crash_images": (self.calls["pmem.crash_images"], "count"),
            "pmem.crash_image_bytes": (self.crash_image_bytes, "bytes"),
            "detect.candidates": (self.raw_candidates, "count"),
            "detect.records": (self.raw_records, "count"),
            "detect.records_kept_ratio": (
                _ratio(self.kept_records, self.raw_records), "ratio"),
            "detect.validation.replays": (
                self.calls["detect.validation.replays"], "count"),
            "detect.validation.cache_hit_ratio": (
                _ratio(hits, hits + misses), "ratio"),
            "detect.validation.pending": (
                sum(s["awaiting_image"] for s in self.queue_stats.values()),
                "count"),
            "core.campaigns": (len(campaign_walls), "count"),
            "core.campaign_s.p50": (
                statistics.median(campaign_walls) if campaign_walls else 0.0,
                "s"),
            "core.campaign_s.p99": (percentile(campaign_walls, 0.99), "s"),
            "core.productive_campaign_ratio": (
                _ratio(len(self.productive), self.campaigns), "ratio"),
            "core.session.checkpoint_bytes": (self.checkpoint_bytes,
                                              "bytes"),
            "replay.campaign_wall_s": (self._wall("replay.run_campaign"),
                                       "s"),
            "replay.shrink_tests": (tests, "count"),
            "replay.shrink_accept_ratio": (_ratio(accepted, tests),
                                           "ratio"),
            "replay.op_reduction": (
                statistics.mean(s.op_reduction for s in shrinks)
                if shrinks else 0.0, "ratio"),
            "replay.divergences": (self.replay_divergences, "count"),
        })
        for kind in sorted(set(ACCESS_KINDS.values())):
            name = "instrument.accesses." + kind
            out[name] = (self.calls[name], "count")
        return out

    def leave_all(self):
        """Charge the time since the last boundary (end of the run)."""
        now = time.perf_counter()
        self.self_s[self._st[1]] += now - self._st[0]
        self._st[0] = now

    def write(self, path):
        """Write the span records (times relative to the first span)."""
        origin = self.records[0]["start"] if self.records else 0.0
        rows = [dict(r, start=r["start"] - origin,
                     end=None if r["end"] is None else r["end"] - origin)
                for r in self.records]
        with open(path, "w") as handle:
            json.dump({"spans": rows,
                       "self_s": dict(sorted(self.self_s.items()))},
                      handle)


def _ratio(part, whole):
    return part / whole if whole else 0.0


def percentile(values, share):
    """Nearest-rank percentile of ``values`` (``share`` in (0, 1]); 0.0
    for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    # round() first: 0.9 * 110 is 99.00000000000001 in floating point.
    rank = math.ceil(round(share * len(ordered), 9))
    return ordered[max(1, rank) - 1]
