"""A small set-associative LRU cache simulator.

The cache is the reason the improved RBR method exists (Section 2.4.2): the
first timed execution of a re-executed tuning section would otherwise run
cold while the second runs warm, biasing the comparison.  The simulator is
deliberately simple — one level, LRU, write-allocate — but it preserves that
preconditioning phenomenon, plus capacity behaviour for workloads whose data
exceeds the cache (EQUAKE's irregular accesses).
"""

from __future__ import annotations

__all__ = ["CacheSim", "AddressMap"]


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
            # a line read off an int array is a numpy integer: store an int
            direct[set_idx] = int(line_idx)
            self.misses += 1
            return self.miss_cycles
        ways = self._sets[set_idx]
        if ways and ways[-1] == line_idx:  # MRU fast path
            self.hits += 1
            return self.hit_cycles
        line_idx = int(line_idx)
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

    def flush(self) -> None:
        """Invalidate the entire cache (cold start)."""
        for ways in self._sets:
            ways.clear()
        if self._mru is not None:
            self._mru[:] = [None] * self.n_sets
        if self._direct is not None:
            self._direct = [None] * self.n_sets

    def contents(self) -> tuple:
        """The resident lines, as :meth:`restore` takes them: the slots
        (None: empty) when direct-mapped, else one tuple of line indices
        per set, least recently used first."""
        direct = self._direct
        if direct is not None:
            return tuple(direct)
        return tuple(map(tuple, self._sets))

    def restore(self, lines: tuple) -> None:
        """Make the resident lines what :meth:`contents` returned.

        In place, like :meth:`flush`: compiled code may hold the way
        lists, the slot array and the MRU table.
        """
        if self._direct is not None:
            self._direct[:] = lines
            return
        for set_ways, now in zip(self._sets, lines):
            set_ways[:] = now
        self._mru[:] = [w[-1] if w else None for w in self._sets]

    def apply_changes(self, changes: tuple) -> None:
        """Set each ``(set, lines)`` of *changes*, in place: *lines* are
        that set's entry of :meth:`contents`."""
        direct = self._direct
        if direct is not None:
            for s, line in changes:
                direct[s] = line
            return
        sets, mru = self._sets, self._mru
        for s, ways in changes:
            sets[s][:] = ways
            mru[s] = ways[-1] if ways else None

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
        #: cache lines spanned by every reachable address of the arrays;
        #: when this is below the cache's set count, no access can evict a
        #: line another access touched (Tier 1's windowed code relies on
        #: it).
        self.window_lines = hi // line - lo // line if sizes else 0

    def address(self, array: str, index: int) -> int:
        """Byte address of ``array[index]``."""
        return self.bases[array] + index * self.ELEM_SIZE

    @classmethod
    def for_env(cls, env: dict[str, object], line: int = 64) -> "AddressMap":
        """Build an address map from an invocation environment.

        Names bound to the *same* underlying array object (pointer aliases)
        share one base address, so aliased accesses hit the same cache
        lines.
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
