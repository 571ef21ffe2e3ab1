"""The one cache structure of the reproduction: a thread-safe LRU ``Store``.

PEAK compiles the tuning section under hundreds of option sets per tune
(paper Section 4.1), so every layer memoizes: whole compiles, pipeline
steps, generated Tier-1 code, and IR and program digests.  Each of those
caches is a :class:`Store`; its owner contributes only the key function
and, where the cache is bounded, the bound.

* A hit refreshes recency; a bounded store drops its least recently used
  entries past ``max_entries`` and counts them in ``evictions``.
* ``put`` keeps the first value stored under a key and returns it (the
  pass-prefix cache enriches the row it stored first).
* ``get_or_build`` builds a key once: concurrent callers wait for the
  builder and count as hits, and a build that raises stores nothing.

:class:`IdentityMemo` memoizes values derived from objects with no cheap
content key, by ``id()`` and a weak reference that must still point at
the caller's object (CPython reuses the ids of dead objects).
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Any, Callable, Generic, Hashable, TypeVar

__all__ = ["IdentityMemo", "Store"]

V = TypeVar("V")

_MISSING: Any = object()


class Store(Generic[V]):
    """Thread-safe LRU memo with hit, miss and eviction counters.

    Unbounded when *max_entries* is None.
    """

    def __init__(self, max_entries: int | None = None) -> None:
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, V] = OrderedDict()
        self._building: dict[Hashable, threading.Event] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def get(self, key: Hashable) -> V | None:
        """The value stored under *key* (a hit refreshes it), or None."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: V) -> V:
        """Store *value* under *key* unless a value is already held there;
        return the value held."""
        with self._lock:
            held = self._entries.get(key, _MISSING)
            if held is _MISSING:
                self._insert(key, value)
                return value
            self._entries.move_to_end(key)
            return held

    def get_or_build(self, key: Hashable, build: Callable[[], V]) -> tuple[V, bool]:
        """Return ``(value, hit)``, running *build* only when *key* is absent.

        Concurrent callers for one key are deduplicated: one builds (a
        miss), the others wait for it and count as hits.  If *build*
        raises, nothing is stored and a waiter retries the build.
        """
        while True:
            with self._lock:
                value = self._entries.get(key, _MISSING)
                if value is not _MISSING:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return value, True
                event = self._building.get(key)
                if event is None:
                    event = self._building[key] = threading.Event()
                    self.misses += 1
                    break
            event.wait()
        try:
            value = build()
            with self._lock:
                self._insert(key, value)
        finally:
            with self._lock:
                del self._building[key]
            event.set()
        return value, False

    def _insert(self, key: Hashable, value: V) -> None:
        # caller holds the lock
        self._entries[key] = value
        self._entries.move_to_end(key)
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1


class IdentityMemo(Store):
    """``compute(obj)`` memoized by object identity and an optional stamp.

    ``memo(obj, *stamp)`` keys on ``(id(obj), *stamp)``; the stamp lets a
    caller invalidate on mutation (a function's mutation counters).  An
    entry whose weak referent is not *obj* belongs to a dead object whose
    id was reused: it is recomputed, never served.
    """

    def __init__(self, compute: Callable[[Any], V], max_entries: int | None = None) -> None:
        super().__init__(max_entries)
        self._compute = compute

    def __call__(self, obj: Any, *stamp: Hashable) -> V:
        key = (id(obj), *stamp)
        entry = self.get(key)
        if entry is not None and entry[0]() is obj:
            return entry[1]
        value = self._compute(obj)
        with self._lock:
            self._insert(key, (weakref.ref(obj), value))
        return value
