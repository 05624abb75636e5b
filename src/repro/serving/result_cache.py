"""Query-level result LRU with version-aware invalidation.

Caches complete lane answers (:class:`~repro.lanes.base.LaneResult`)
keyed on ``(keywords, k, algorithm, lane)`` together with the pipeline
**version** the result was computed against.
:class:`~repro.live.LiveReformulator` owns one of these, and its
``route`` is the only reader and writer: its ``version`` counter
increments on every rebuild,
so entries computed against an older pipeline are unreachable and get
evicted — stale suggestions are never served after an insert.

Eviction has two causes, reported separately through the gated
``repro.obs`` registry (``repro_result_cache_evictions_total`` with a
``reason`` label):

* ``capacity`` — LRU overflow;
* ``stale`` — the entry's version no longer matches (either swept in
  bulk by :meth:`ResultCache.evict_stale` after a rebuild, or dropped
  lazily when a lookup lands on an outdated entry).

Stored results are frozen dataclasses, returned as-is.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Sequence, Tuple

from repro import obs
from repro.errors import ReformulationError


@dataclass(frozen=True)
class ResultCacheStats:
    """Counter snapshot (mirrors the ``repro_result_cache_*`` series)."""

    hits: int
    misses: int
    evictions_capacity: int
    evictions_stale: int
    resident: int

    @property
    def evictions(self) -> int:
        """Total evictions, both causes."""
        return self.evictions_capacity + self.evictions_stale


class ResultCache:
    """LRU of complete lane answers, invalidated by pipeline version."""

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ReformulationError("result cache needs max_entries >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, Tuple[int, object]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions_capacity = 0
        self._evictions_stale = 0

    @staticmethod
    def key(
        keywords: Sequence[str], k: int, algorithm: str, lane: str = "hmm"
    ) -> Hashable:
        """Canonical cache key of one request.

        *lane* is :meth:`~repro.lanes.router.RouterConfig.cache_tag` —
        the requested lane plus, when a fallback chain applies to it,
        the chain and its threshold.  Different lanes (or the same lane
        with and without an active fallback chain) can return different
        suggestions for identical keywords, so the tag is part of the
        identity: a degraded ``relaxation`` answer can never be served
        for an ``hmm`` request.
        """
        return (tuple(keywords), int(k), algorithm, lane)

    # ------------------------------------------------------------------ #
    # lookup / insert
    # ------------------------------------------------------------------ #

    def get(self, key: Hashable, version: int):
        """The cached :class:`~repro.lanes.base.LaneResult`, or None on miss.

        An entry computed against a different *version* counts as a miss
        and is dropped on the spot (lazy staleness sweep).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                self._count("repro_result_cache_misses_total",
                            "Result-cache lookups that missed")
                return None
            entry_version, value = entry
            if entry_version != version:
                del self._entries[key]
                self._evictions_stale += 1
                self._count_eviction("stale")
                self._misses += 1
                self._count("repro_result_cache_misses_total",
                            "Result-cache lookups that missed")
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            self._count("repro_result_cache_hits_total",
                        "Result-cache lookups served from memory")
            return value

    def put(self, key: Hashable, version: int, result) -> None:
        """Store one lane result under *key* at *version*."""
        with self._lock:
            self._entries[key] = (int(version), result)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions_capacity += 1
                self._count_eviction("capacity")

    # ------------------------------------------------------------------ #
    # invalidation
    # ------------------------------------------------------------------ #

    def evict_stale(self, version: int) -> int:
        """Drop every entry not computed against *version*; returns count.

        Called by ``LiveReformulator`` right after a rebuild bumped its
        version, so the staleness gauge, the bypass counter and these
        evictions reconcile: every mutation-induced rebuild turns the
        whole resident set into ``stale`` evictions.
        """
        with self._lock:
            stale = [
                key for key, (entry_version, _results) in self._entries.items()
                if entry_version != version
            ]
            for key in stale:
                del self._entries[key]
            if stale:
                self._evictions_stale += len(stale)
                self._count_eviction("stale", len(stale))
            return len(stale)

    def clear(self) -> None:
        """Drop everything (not counted as evictions)."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> ResultCacheStats:
        """Counter snapshot."""
        with self._lock:
            return ResultCacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions_capacity=self._evictions_capacity,
                evictions_stale=self._evictions_stale,
                resident=len(self._entries),
            )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------ #
    # gated metric recording
    # ------------------------------------------------------------------ #

    @staticmethod
    def _count(name: str, help: str) -> None:
        obs.counter(name, help).inc()

    @staticmethod
    def _count_eviction(reason: str, amount: float = 1.0) -> None:
        obs.counter(
            "repro_result_cache_evictions_total",
            "Result-cache entries dropped",
            reason=reason,
        ).inc(amount)
