"""A small set-associative LRU cache simulator.

The cache is the reason the improved RBR method exists (Section 2.4.2): the
first timed execution of a re-executed tuning section would otherwise run
cold while the second runs warm, biasing the comparison.  The simulator is
deliberately simple — one level, LRU, write-allocate — but it preserves that
preconditioning phenomenon, plus capacity behaviour for workloads whose data
exceeds the cache (EQUAKE's irregular accesses).
"""

from __future__ import annotations

from array import array
from itertools import chain, compress

import numpy as np

__all__ = ["CacheSim", "AddressMap"]

#: batches at least this long take the vectorized direct-mapped drain;
#: below it, numpy call overhead beats the savings
VECTOR_MIN_BATCH = 48


class CacheSim:
    """Set-associative LRU cache with per-access cost.

    An associative cache also keeps ``_mru``, one slot per set holding the
    set's most recently used line (``None`` while the set is empty):
    ``_mru[s] == (_sets[s][-1] if _sets[s] else None)`` whenever no Tier-1
    block is mid-flight.  It is a mirror for Tier-1 code, which checks
    residency with one compare against it; hits and misses here are still
    decided from the way lists.  Every non-MRU access updates it, and
    :meth:`flush` clears it in place, so compiled code may hold on to the
    list.  Direct-mapped caches need no table: ``_direct`` is one already.
    """

    __slots__ = (
        "line",
        "n_sets",
        "assoc",
        "hit_cycles",
        "miss_cycles",
        "_sets",
        "_direct",
        "_mru",
        "hits",
        "misses",
    )

    def __init__(
        self,
        size: int,
        line: int,
        assoc: int,
        hit_cycles: float,
        miss_cycles: float,
    ) -> None:
        if size % (line * assoc) != 0:
            raise ValueError("cache size must be a multiple of line*assoc")
        self.line = line
        self.assoc = assoc
        self.n_sets = size // (line * assoc)
        self.hit_cycles = hit_cycles
        self.miss_cycles = miss_cycles
        # each set is a list of resident line indices in LRU order (last =
        # most recent) — a line determines its set, so line equality within
        # a set is tag equality and no tag division is ever needed;
        # direct-mapped caches use a flat per-set line-index array instead
        # (None marks an empty slot)
        self._sets: list[list[int]] = [[] for _ in range(self.n_sets)]
        self._direct: list[int | None] | None = (
            [None] * self.n_sets if assoc == 1 else None
        )
        self._mru: list[int | None] | None = (
            [None] * self.n_sets if assoc > 1 else None
        )
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> float:
        """Access one address; returns the cycles the access cost."""
        line_idx = addr // self.line
        set_idx = line_idx % self.n_sets
        direct = self._direct
        if direct is not None:  # direct-mapped fast path
            if direct[set_idx] == line_idx:
                self.hits += 1
                return self.hit_cycles
            direct[set_idx] = line_idx
            self.misses += 1
            return self.miss_cycles
        ways = self._sets[set_idx]
        if ways and ways[-1] == line_idx:  # MRU fast path
            self.hits += 1
            return self.hit_cycles
        self._mru[set_idx] = line_idx
        try:
            ways.remove(line_idx)
        except ValueError:
            self.misses += 1
            ways.append(line_idx)
            if len(ways) > self.assoc:
                ways.pop(0)
            return self.miss_cycles
        self.hits += 1
        ways.append(line_idx)
        return self.hit_cycles

    def access_many(self, addrs) -> float:
        """Access a sequence of addresses; returns total cycles.

        Bit-identical to calling :meth:`access` per address and summing
        left-to-right — the Tier-1 executor drains each block's memory
        trace through this in one call.  The loop bodies are inlined (no
        per-access method call); long direct-mapped batches additionally
        go through a numpy path when both access costs are integral, in
        which case any summation order is exact.
        """
        hc = self.hit_cycles
        mc = self.miss_cycles
        line = self.line
        n_sets = self.n_sets
        total = 0.0
        hits = 0
        misses = 0
        if not hasattr(addrs, "__len__"):  # accept any iterable
            addrs = list(addrs)
        direct = self._direct
        if direct is not None:  # direct-mapped fast path
            if (
                len(addrs) >= VECTOR_MIN_BATCH
                and self._costs_integral
            ):
                return self._access_many_direct_vec(addrs)
            for addr in addrs:
                line_idx = addr // line
                set_idx = line_idx % n_sets
                if direct[set_idx] == line_idx:
                    hits += 1
                    total += hc
                else:
                    direct[set_idx] = line_idx
                    misses += 1
                    total += mc
            self.hits += hits
            self.misses += misses
            return total
        sets = self._sets
        mru = self._mru
        assoc = self.assoc
        for addr in addrs:
            line_idx = addr // line
            set_idx = line_idx % n_sets
            ways = sets[set_idx]
            if ways and ways[-1] == line_idx:  # MRU fast path
                hits += 1
                total += hc
                continue
            mru[set_idx] = line_idx
            try:
                ways.remove(line_idx)
            except ValueError:
                misses += 1
                total += mc
                ways.append(line_idx)
                if len(ways) > assoc:
                    ways.pop(0)
                continue
            hits += 1
            total += hc
            ways.append(line_idx)
        self.hits += hits
        self.misses += misses
        return total

    @property
    def _costs_integral(self) -> bool:
        return self.hit_cycles.is_integer() and self.miss_cycles.is_integer()

    def _access_many_direct_vec(self, addrs) -> float:
        """Vectorized direct-mapped batch access.

        Within a batch, an access hits iff the nearest previous access to
        the same set (in batch order) touched the same line — accesses to
        other sets cannot evict a direct-mapped slot.  A stable sort by set
        index turns that into a shifted-compare per run; the first access
        of each run compares against the stored line array, and the last
        access of each run writes the slot back.  Exactness: hit/miss
        outcomes are integer logic, and with integral per-access costs the
        total ``n_hits*hit + n_miss*miss`` equals the sequential float sum.
        """
        a = np.asarray(addrs, dtype=np.int64)
        line_idx = a // self.line
        set_idx = line_idx % self.n_sets
        order = np.argsort(set_idx, kind="stable")
        s_set = set_idx[order]
        s_line = line_idx[order]
        n = a.shape[0]
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(s_set[1:], s_set[:-1], out=first[1:])
        hit = np.empty(n, dtype=bool)
        np.equal(s_line[1:], s_line[:-1], out=hit[1:])
        hit[first] = False  # run heads: resolved against the stored lines
        direct = self._direct
        head_idx = np.flatnonzero(first)
        for i in head_idx:
            hit[i] = direct[s_set[i]] == s_line[i]
        # run tails leave their line in the slot (shift `first` left by one);
        # stored as Python ints so the JIT's int compares stay fast
        tail_idx = np.flatnonzero(np.append(first[1:], True))
        for i in tail_idx:
            direct[s_set[i]] = int(s_line[i])
        n_hits = int(np.count_nonzero(hit))
        n_misses = n - n_hits
        self.hits += n_hits
        self.misses += n_misses
        return n_hits * self.hit_cycles + n_misses * self.miss_cycles

    def flush(self) -> None:
        """Invalidate the entire cache (cold start)."""
        for ways in self._sets:
            ways.clear()
        if self._mru is not None:
            self._mru[:] = [None] * self.n_sets
        if self._direct is not None:
            self._direct = [None] * self.n_sets

    def contents(self) -> tuple[bytes, bytes]:
        """The resident lines as ``(ways, lines)``: per set (direct-mapped
        slot), the number of resident lines, and every resident line index
        as int64 bytes, set by set, each set least recently used first.
        :meth:`restore` puts them back."""
        direct = self._direct
        if direct is not None:
            ways = bytes(line is not None for line in direct)
            return ways, array("q", compress(direct, ways)).tobytes()
        sets = self._sets
        return bytes(map(len, sets)), array("q", chain.from_iterable(sets)).tobytes()

    def restore(self, ways: bytes, lines: bytes) -> None:
        """Make the resident lines what :meth:`contents` returned.

        In place, like :meth:`flush`: compiled code may hold the way
        lists, the slot array and the MRU table.
        """
        resident = array("q", lines).tolist()
        if self._direct is not None:
            it = iter(resident)
            self._direct[:] = [next(it) if w else None for w in ways]
            return
        at = 0
        for w, set_ways in zip(ways, self._sets):
            set_ways[:] = resident[at:at + w]
            at += w
        self._mru[:] = [w[-1] if w else None for w in self._sets]

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_rate(self) -> float:
        n = self.accesses
        return self.misses / n if n else 0.0


class AddressMap:
    """Assigns deterministic base addresses to a function's array variables.

    Arrays are laid out contiguously, each starting on a cache-line-aligned
    boundary, in sorted-name order — so the same workload touches the same
    address ranges in every invocation and the cache sees realistic reuse.
    Element size is 8 bytes for both int and float arrays.
    """

    ELEM_SIZE = 8

    def __init__(self, sizes: dict[str, int], line: int = 64, base: int = 0x10000) -> None:
        self.line = line
        self.bases: dict[str, int] = {}
        addr = base
        lo = hi = base
        for name in sorted(sizes):
            self.bases[name] = addr
            nbytes = sizes[name] * self.ELEM_SIZE
            # reachable bytes, including the negative-index wrap range
            # Python permits
            lo = min(lo, addr - nbytes)
            hi = max(hi, addr + nbytes)
            addr += ((nbytes + line - 1) // line) * line + line
        self.total_span = addr - base
        #: first address past the laid-out arrays
        self.end = addr
        #: cache lines spanned by every reachable address of the arrays;
        #: when this is below the cache's set count, no access can evict a
        #: line another access touched (Tier 1's windowed code relies on
        #: it).  ``None`` for callee frames, which are never windowed.
        self.window_lines: int | None = hi // line - lo // line if sizes else 0

    def address(self, array: str, index: int) -> int:
        """Byte address of ``array[index]``."""
        return self.bases[array] + index * self.ELEM_SIZE

    @classmethod
    def for_env(cls, env: dict[str, object], line: int = 64) -> "AddressMap":
        """Build an address map from an invocation environment.

        Names bound to the *same* underlying array object (pointer aliases,
        arrays passed through to callees) share one base address, so aliased
        accesses hit the same cache lines.
        """
        arrays = {
            name: value for name, value in env.items() if hasattr(value, "__len__")
        }
        canonical: dict[int, str] = {}
        aliases: dict[str, str] = {}
        sizes: dict[str, int] = {}
        for name in sorted(arrays):
            obj_id = id(arrays[name])
            if obj_id in canonical:
                aliases[name] = canonical[obj_id]
            else:
                canonical[obj_id] = name
                sizes[name] = len(arrays[name])
        amap = cls(sizes, line=line)
        for alias, target in aliases.items():
            amap.bases[alias] = amap.bases[target]
        return amap

    def for_call(
        self, args: dict[str, object], caller_env: dict[str, object]
    ) -> "AddressMap":
        """The address map of a callee frame whose array parameters are *args*.

        Each parameter takes the base of a caller name bound to the same
        array object (or of an earlier parameter sharing it), so the callee
        touches the caller's lines.  An array no caller name holds is laid
        out after this map's arrays.  This map is left unchanged.
        """
        frame = AddressMap({}, line=self.line, base=self.end)
        frame.window_lines = None
        line = self.line
        for pname, value in args.items():
            base = next(
                (
                    self.bases[cname]
                    for cname, cval in caller_env.items()
                    if cval is value and cname in self.bases
                ),
                None,
            )
            if base is None:
                base = next(
                    (frame.bases[q] for q in frame.bases if args[q] is value), None
                )
            if base is None:
                base = frame.end
                nbytes = len(value) * self.ELEM_SIZE
                frame.end += ((nbytes + line - 1) // line) * line + line
            frame.bases[pname] = base
        return frame

