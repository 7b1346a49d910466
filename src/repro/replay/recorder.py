"""Capture side of the reproducer subsystem.

Three pieces turn one fuzzing campaign into a replayable bundle:

* :class:`RecordingRandom` — a seeded ``random.Random`` that journals
  its primitive draws (``random()`` floats and ``getrandbits`` words)
  per campaign segment. The engine's privileged-election and
  cache-eviction RNGs are *shared streams* advanced across campaigns,
  so replaying campaign N standalone needs the draws it consumed, not
  the seed.
* :class:`ReplayRandom` — serves a journaled draw sequence back through
  the same two primitives (every derived method — ``choice``,
  ``randint``, ``shuffle`` — routes through them), falling back to a
  fresh seeded stream once the journal is exhausted or the call pattern
  diverges. It journals what it actually served, so a shrink candidate
  that reproduces can be re-captured exactly.
* :class:`CampaignCapture` — assembles the per-campaign bundle: config
  snapshot, op lists, sync-point entry and skips (resolved to
  ``module:function:line`` strings), the schedule decision vector from
  :class:`~repro.runtime.policies.RecordingPolicy`, and both RNG
  journals.

Draw journal encoding (JSON-safe): a ``random()`` draw is stored as its
float, a ``getrandbits(k)`` draw as the pair ``[k, value]``.
"""

import json
import random

from .bundle import BUNDLE_VERSION, ReproBundle, config_snapshot


class RecordingRandom(random.Random):
    """Seeded RNG journaling primitive draws per segment.

    ``begin_segment()`` starts a fresh journal (one per campaign);
    ``end_segment()`` returns it. Outside a segment the journal is off
    and the RNG behaves exactly like ``random.Random(seed)``.
    """

    def __init__(self, seed=None):
        super().__init__(seed)
        self._journal = None

    def begin_segment(self):
        self._journal = []

    def end_segment(self):
        journal, self._journal = self._journal, None
        return journal if journal is not None else []

    def random(self):
        value = super().random()
        if self._journal is not None:
            self._journal.append(value)
        return value

    def getrandbits(self, k):
        value = super().getrandbits(k)
        if self._journal is not None:
            self._journal.append([k, value])
        return value


class ReplayRandom(random.Random):
    """Serve a journaled draw sequence; seeded fallback past its end.

    The journal is consumed strictly in order. A type mismatch (the
    execution asks for ``random()`` where ``getrandbits`` was recorded,
    or a different bit width) means the run diverged from the
    recording; the journal is abandoned from that point and the
    fallback stream takes over — replay divergence is diagnosed by the
    schedule layer, never raised from inside an RNG.

    Like :class:`RecordingRandom`, served draws are journaled between
    ``begin_segment``/``end_segment`` so successful shrink candidates
    can be re-captured.
    """

    def __new__(cls, draws=(), fallback_seed=0):
        # Before Python 3.11, random.Random.__new__ seeds from the first
        # positional argument, which here is the (unhashable) journal.
        return super().__new__(cls, fallback_seed)

    def __init__(self, draws, fallback_seed=0):
        super().__init__(fallback_seed)
        self._draws = list(draws)
        self._index = 0
        self._dead = False
        self._journal = None

    @property
    def exhausted(self):
        """True once the journal no longer feeds draws."""
        return self._dead or self._index >= len(self._draws)

    def begin_segment(self):
        self._journal = []

    def end_segment(self):
        journal, self._journal = self._journal, None
        return journal if journal is not None else []

    def _next_recorded(self):
        if self._dead or self._index >= len(self._draws):
            return None
        entry = self._draws[self._index]
        self._index += 1
        return entry

    def random(self):
        entry = self._next_recorded()
        if isinstance(entry, float):
            value = entry
        else:
            if entry is not None:
                self._dead = True
            value = super().random()
        if self._journal is not None:
            self._journal.append(value)
        return value

    def getrandbits(self, k):
        entry = self._next_recorded()
        if isinstance(entry, (list, tuple)) and len(entry) == 2 \
                and entry[0] == k:
            value = entry[1]
        else:
            if entry is not None:
                self._dead = True
            value = super().getrandbits(k)
        if self._journal is not None:
            self._journal.append([k, value])
        return value


def _resolve_sites(site_ids, callsites):
    """Interned ids → sorted ``module:function:line`` strings."""
    return sorted(str(callsites.name(site_id)) for site_id in site_ids)


class CampaignCapture:
    """Accumulates one campaign's reproducer inputs, then mints bundles.

    Created by the engine right before ``run_campaign`` (so it snapshots
    the *initial* skip state the campaign actually received), finished
    right after with the recorded schedule and RNG journals, and asked
    for one bundle per newly kept record via :meth:`bundle_for`.
    """

    def __init__(self, target_name, config, base_seed, campaign_index,
                 seed_threads, entry, initial_skips):
        self.target_name = target_name
        self.config = config_snapshot(config)
        self.base_seed = base_seed
        self.campaign_index = campaign_index
        # Deep-copy via JSON: ops must not alias live mutator state.
        self.ops = json.loads(json.dumps([list(ops) for ops
                                          in seed_threads]))
        self.entry = entry
        self.initial_skips = dict(initial_skips or {})
        self._base = None

    def finish(self, decisions, priv_draws, evict_draws, callsites,
               first_key=None):
        """Freeze the campaign's recording into the shared bundle base."""
        entry_data = None
        if self.entry is not None:
            entry_data = {
                "addr": self.entry.addr,
                "loads": _resolve_sites(self.entry.load_instrs, callsites),
                "stores": _resolve_sites(self.entry.store_instrs, callsites),
                "frequency": self.entry.frequency,
            }
        self._base = {
            "version": BUNDLE_VERSION,
            "target": self.target_name,
            "config": self.config,
            "base_seed": self.base_seed,
            "campaign_index": self.campaign_index,
            "ops": self.ops,
            "entry": entry_data,
            "skips": {str(callsites.name(site)): count
                      for site, count in self.initial_skips.items()},
            "schedule": list(decisions),
            "priv_draws": list(priv_draws),
            "evict_draws": list(evict_draws),
            "callsites": callsites.snapshot(),
            "first_key": list(first_key) if first_key is not None else None,
        }
        return self

    @property
    def finished(self):
        return self._base is not None

    def bundle_for(self, record):
        """A bundle reproducing ``record`` (after :meth:`finish`)."""
        if self._base is None:
            raise RuntimeError("CampaignCapture.finish() was never called")
        data = dict(self._base)
        data["kind"] = record.kind
        data["dedup_key"] = list(record.dedup_key())
        data["verdict"] = record.verdict.value
        return ReproBundle(data)
