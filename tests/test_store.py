"""The cache store's contracts, checked once for every cache built on it.

The version, pass-prefix, executable, code and digest caches are all
:class:`~repro.store.Store`\\ s; their own tests keep only what is specific
to them (keys, keep-first prefix rows, bit-identical compiles).
"""

from __future__ import annotations

import sys
import threading
import time
import weakref

import pytest

from repro.store import IdentityMemo, Store


class TestStore:
    def test_get_and_put_count_hits_and_misses(self):
        store = Store()
        assert store.get("k") is None
        store.put("k", "v")
        assert store.get("k") == "v"
        assert (store.hits, store.misses, len(store)) == (1, 1, 1)

    def test_hit_refreshes_recency(self):
        store = Store(max_entries=2)
        store.put("a", "A")
        store.put("b", "B")
        store.get("a")  # b is now the least recently used entry
        store.get_or_build("c", lambda: "C")
        assert len(store) == 2 and store.evictions == 1
        assert store.get("b") is None
        assert store.get_or_build("a", lambda: "A2") == ("A", True)

    def test_get_or_build_hit_refreshes_recency(self):
        store = Store(max_entries=2)
        store.get_or_build("a", lambda: "A")
        store.get_or_build("b", lambda: "B")
        store.get_or_build("a", lambda: "A2")
        store.put("c", "C")
        assert store.get("a") == "A" and store.get("b") is None

    def test_unbounded_store_never_evicts(self):
        store = Store()
        for i in range(100):
            store.get_or_build(i, object)
        assert len(store) == 100 and store.evictions == 0

    def test_clear_resets_entries_and_counters(self):
        store = Store(max_entries=1)
        store.put("a", 1)
        store.put("b", 2)
        store.get("b")
        store.get("a")
        assert (store.hits, store.misses, store.evictions) == (1, 1, 1)
        store.clear()
        assert len(store) == 0
        assert (store.hits, store.misses, store.evictions) == (0, 0, 0)

    def test_put_keeps_first_value(self):
        store = Store()
        first, second = object(), object()
        store.put("k", first)
        store.put("k", second)
        assert store.get("k") is first and len(store) == 1

    def test_put_returns_the_held_value(self):
        store = Store()
        first, second = object(), object()
        assert store.put("k", first) is first
        assert store.put("k", second) is first
        assert (store.hits, store.misses) == (0, 0), "put counts no lookup"

    def test_get_or_build_builds_once(self):
        store = Store()
        built = []

        def build():
            built.append(1)
            return object()

        v1, hit1 = store.get_or_build("k", build)
        v2, hit2 = store.get_or_build("k", build)
        assert (hit1, hit2) == (False, True) and v1 is v2
        assert built == [1]
        assert (store.hits, store.misses) == (1, 1)

    def test_concurrent_builds_are_deduplicated(self):
        store = Store()
        built = []

        def build():
            time.sleep(0.02)
            built.append(1)
            return "V"

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(store.get_or_build("k", build))
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert built == [1], "only one caller may run the build"
        assert sorted(hit for _, hit in results) == [False, True, True, True]
        assert (store.misses, store.hits) == (1, 3), "waiters count as hits"

    def test_failed_build_is_not_cached(self):
        store = Store()

        def boom():
            raise RuntimeError("pass pipeline exploded")

        with pytest.raises(RuntimeError):
            store.get_or_build("k", boom)
        assert len(store) == 0
        # the key is not poisoned: a later build succeeds
        assert store.get_or_build("k", lambda: "ok") == ("ok", False)

    def test_waiter_rebuilds_after_a_failed_build(self):
        store = Store()
        started, release = threading.Event(), threading.Event()

        def failing():
            started.set()
            release.wait(timeout=10)
            raise RuntimeError("first build fails")

        errors, results = [], []

        def first():
            try:
                store.get_or_build("k", failing)
            except RuntimeError as exc:
                errors.append(exc)

        t1 = threading.Thread(target=first)
        t1.start()
        assert started.wait(timeout=10)
        t2 = threading.Thread(
            target=lambda: results.append(store.get_or_build("k", lambda: "ok"))
        )
        t2.start()
        time.sleep(0.05)  # let the second caller block on the first build
        release.set()
        for t in (t1, t2):
            t.join(timeout=10)
            assert not t.is_alive()
        assert len(errors) == 1
        assert results == [("ok", False)]

    def test_threads_keep_the_counters_and_bound_consistent(self):
        """More threads than cores hammer a small store; no update is lost."""
        store = Store(max_entries=8)
        n_threads, n_ops = 8, 400
        builds = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work(seed):
                for i in range(n_ops):
                    key = (seed * 7 + i) % 16
                    if i % 3:
                        store.get_or_build(key, lambda k=key: builds.append(k) or k)
                    else:
                        store.get(key)

            threads = [
                threading.Thread(target=work, args=(s,)) for s in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert store.hits + store.misses == n_threads * n_ops
        assert len(store) <= 8
        assert len(builds) - store.evictions == len(store)


class TestIdentityMemo:
    class _Obj:
        pass

    def test_memoizes_by_identity(self):
        calls = []
        memo = IdentityMemo(lambda o: calls.append(o) or len(calls))
        a, b = self._Obj(), self._Obj()
        assert memo(a) == memo(a) == 1
        assert memo(b) == 2, "another object is computed, however equal"
        assert len(calls) == 2

    def test_stamp_invalidates(self):
        memo = IdentityMemo(lambda o: object())
        a = self._Obj()
        v0 = memo(a, 0)
        assert memo(a, 0) is v0
        assert memo(a, 1) is not v0

    def test_stale_id_entry_is_not_served(self):
        """An entry whose weak referent died is recomputed, even when a new
        object lands on its ``id`` (CPython reuses addresses)."""
        memo = IdentityMemo(lambda o: "fresh")
        husk = self._Obj()
        dead = weakref.ref(husk)
        del husk
        assert dead() is None
        obj = self._Obj()
        memo.put((id(obj),), (dead, "stale"))
        assert memo(obj) == "fresh"
        assert memo(obj) == "fresh"

    def test_bounded(self):
        memo = IdentityMemo(lambda o: 0, max_entries=2)
        objs = [self._Obj() for _ in range(5)]
        for o in objs:
            memo(o)
        assert len(memo) == 2 and memo.evictions == 3
