"""Tests for the cache simulator and address map."""

import numpy as np
import pytest

from repro.compiler import OptConfig, compile_version
from repro.machine import PENTIUM4, SPARC2, AddressMap, CacheSim
from repro.machine.jit import create_executor
from repro.workloads import get_workload


def small_cache(assoc=2):
    # 8 lines of 64 bytes, given associativity
    return CacheSim(size=512, line=64, assoc=assoc, hit_cycles=1.0, miss_cycles=50.0)


class TestCacheSim:
    def test_first_access_misses(self):
        c = small_cache()
        assert c.access(0) == 50.0
        assert c.misses == 1 and c.hits == 0

    def test_second_access_same_line_hits(self):
        c = small_cache()
        c.access(0)
        assert c.access(8) == 1.0  # same 64-byte line
        assert c.hits == 1

    def test_different_lines_miss(self):
        c = small_cache()
        c.access(0)
        assert c.access(64) == 50.0

    def test_lru_eviction(self):
        c = small_cache(assoc=2)  # 4 sets
        # three lines mapping to the same set: line_idx % 4 == 0
        a, b, d = 0, 4 * 64, 8 * 64
        c.access(a)
        c.access(b)
        c.access(d)  # evicts a (LRU)
        assert c.access(b) == 1.0  # still resident
        assert c.access(a) == 50.0  # was evicted

    def test_lru_order_updated_on_hit(self):
        c = small_cache(assoc=2)
        a, b, d = 0, 4 * 64, 8 * 64
        c.access(a)
        c.access(b)
        c.access(a)  # a is now MRU
        c.access(d)  # evicts b
        assert c.access(a) == 1.0
        assert c.access(b) == 50.0

    def test_flush_cools_cache(self):
        c = small_cache()
        c.access(0)
        c.flush()
        assert c.access(0) == 50.0

    def test_miss_rate(self):
        c = small_cache()
        c.access(0)
        c.access(0)
        assert c.miss_rate() == pytest.approx(0.5)
        c.reset_stats()
        assert c.miss_rate() == 0.0

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            CacheSim(size=100, line=64, assoc=2, hit_cycles=1, miss_cycles=10)

    def test_working_set_larger_than_cache_thrashes(self):
        c = small_cache(assoc=1)  # 8 sets, direct-mapped, 512 B
        addrs = list(range(0, 4096, 64))  # 64 lines round-robin
        for a in addrs:
            c.access(a)
        c.reset_stats()
        for a in addrs:
            c.access(a)  # second sweep still misses everywhere
        assert c.miss_rate() == 1.0

    def test_negative_addresses(self):
        """Negative addresses (Python wraparound indexes) floor-divide to
        negative line indices; slot compares must still be exact."""
        c = CacheSim(size=4096, line=32, assoc=1, hit_cycles=1.0,
                     miss_cycles=28.0)
        assert c.access(-1) == 28.0
        assert c.access(-1) == 1.0  # same (negative) line hits
        assert c.access(-33) == 28.0  # previous line, different slot

    def test_empty_slot_never_matches_any_line(self):
        """Fresh slots are None, which no line index (even -1) equals."""
        c = CacheSim(size=4096, line=32, assoc=1, hit_cycles=1.0,
                     miss_cycles=28.0)
        # line index of addr -32 .. -1 is -1; a fresh cache must miss
        assert c.access(-32) == 28.0


class _ReferenceLRU:
    """Per-set LRU lists written out plainly: the oracle for CacheSim."""

    def __init__(self, n_sets: int, assoc: int, line: int) -> None:
        self.sets = [[] for _ in range(n_sets)]
        self.assoc = assoc
        self.line = line
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        line = addr // self.line
        ways = self.sets[line % len(self.sets)]
        hit = line in ways
        if hit:
            ways.remove(line)
            self.hits += 1
        else:
            self.misses += 1
            if len(ways) == self.assoc:
                del ways[0]
        ways.append(line)
        return hit

    def flush(self) -> None:
        for ways in self.sets:
            ways.clear()


class TestAgainstReferenceLRU:
    """``access`` and ``flush`` in random interleavings keep the way
    lists, the MRU table and the counters of a plain LRU."""

    @pytest.mark.parametrize("assoc", [2, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_streams(self, assoc, seed):
        rng = np.random.default_rng(seed)
        c = CacheSim(size=1024, line=64, assoc=assoc, hit_cycles=1.0,
                     miss_cycles=50.0)
        ref = _ReferenceLRU(c.n_sets, assoc, 64)
        for _ in range(400):
            op = rng.random()
            # a span of 3*assoc lines per set, negative addresses included
            addrs = [int(a) for a in rng.integers(-1024, 2048, size=rng.integers(1, 12))]
            if op < 0.03:
                c.flush()
                ref.flush()
            else:
                for a in addrs:
                    assert c.access(a) == (1.0 if ref.access(a) else 50.0)
            assert c._sets == ref.sets
            assert c._mru == [w[-1] if w else None for w in ref.sets]
            assert (c.hits, c.misses) == (ref.hits, ref.misses)

    def test_flush_clears_the_mru_table_in_place(self):
        c = small_cache(assoc=2)
        table = c._mru
        for a in (0, 64, 4 * 64):
            c.access(a)
        assert table == [4, 1, None, None]
        c.flush()
        assert c._mru is table and table == [None] * 4

    def test_direct_mapped_cache_has_no_table(self):
        assert small_cache(assoc=1)._mru is None


class TestAddressMap:
    def test_line_aligned_bases(self):
        amap = AddressMap({"a": 10, "b": 20}, line=64)
        assert amap.bases["a"] % 64 == 0
        assert amap.bases["b"] % 64 == 0

    def test_arrays_do_not_overlap(self):
        amap = AddressMap({"a": 100, "b": 100}, line=64)
        a0, a_end = amap.address("a", 0), amap.address("a", 99)
        b0, b_end = amap.address("b", 0), amap.address("b", 99)
        assert a_end < b0 or b_end < a0

    def test_address_arithmetic(self):
        amap = AddressMap({"a": 10}, line=64)
        assert amap.address("a", 3) - amap.address("a", 0) == 24

    def test_for_env_ignores_scalars(self):
        env = {"n": 5, "a": np.zeros(10)}
        amap = AddressMap.for_env(env)
        assert "a" in amap.bases and "n" not in amap.bases

    def test_for_env_aliases_share_base(self):
        arr = np.zeros(16)
        env = {"p": arr, "a": arr, "b": np.zeros(16)}
        amap = AddressMap.for_env(env)
        assert amap.bases["p"] == amap.bases["a"]
        assert amap.bases["b"] != amap.bases["a"]

    def test_deterministic_layout(self):
        m1 = AddressMap({"x": 5, "y": 7}, line=32)
        m2 = AddressMap({"y": 7, "x": 5}, line=32)
        assert m1.bases == m2.bases



class TestResidentLines:
    #: total cycles of 20 warm gzip invocations at -O3 (train inputs, seed 0)
    GZIP_CYCLES = {
        "sparc2": "0x1.06db35345308ap+12",
        "pentium4": "0x1.900945b1a1169p+13",
    }

    @pytest.mark.parametrize("tier", (0, 1))
    @pytest.mark.parametrize("machine", (SPARC2, PENTIUM4), ids=lambda m: m.name)
    def test_gzip_lines_are_python_ints(self, machine, tier):
        """gzip subscripts with values read from int arrays, so its line
        indices are numpy integers; every line a miss or a reordering
        stores is a Python ``int`` at both tiers."""
        w = get_workload("gzip")
        ds = w.dataset("train")
        v = compile_version(w.ts, OptConfig.o3(), machine)
        ex = create_executor(machine, tier)
        rng = np.random.default_rng(0)
        cycles = sum(
            ex.run(v.exe, ds.env(rng, i), factors=v.factors).cycles for i in range(20)
        )
        assert cycles.hex() == self.GZIP_CYCLES[machine.name]
        contents = ex.cache.contents()
        if ex.cache.assoc == 1:
            lines = [x for x in contents if x is not None]
        else:
            lines = [x for ways in contents for x in ways]
            assert all(type(x) is int for x in ex.cache._mru if x is not None)
        assert len(lines) > 50
        assert all(type(x) is int for x in lines)
