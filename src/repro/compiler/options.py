"""Optimization configurations: immutable sets of enabled flags."""

from __future__ import annotations

from typing import Iterable, Iterator

from .flags import ALL_FLAGS, FLAGS_BY_NAME

__all__ = ["OptConfig"]

#: every flag name in canonical (sorted) order; bit ``i`` of a config's mask
#: is ``_NAMES[i]``
_NAMES: tuple[str, ...] = tuple(sorted(FLAGS_BY_NAME))
_BIT: dict[str, int] = {name: 1 << i for i, name in enumerate(_NAMES)}


class OptConfig:
    """An immutable optimization option set ("a set of compiler optimization
    options" under which one *version* is generated).

    ``OptConfig.o3()`` is the baseline with all 38 options on — what the
    paper's programs are initially compiled with; search algorithms explore
    subsets of it.

    A config is one integer, a mask over the flags in canonical order (a
    tune keeps every config it rated, and a frozenset of 38 names costs
    2 KB); ``enabled`` builds the set on access.
    """

    __slots__ = ("_mask",)

    def __init__(self, enabled: Iterable[str] = ()) -> None:
        mask = 0
        unknown = []
        for name in enabled:
            bit = _BIT.get(name)
            if bit is None:
                unknown.append(name)
            else:
                mask |= bit
        if unknown:
            raise ValueError(f"unknown optimization flags: {sorted(set(unknown))}")
        object.__setattr__(self, "_mask", mask)

    @classmethod
    def _of_mask(cls, mask: int) -> "OptConfig":
        config = object.__new__(cls)
        object.__setattr__(config, "_mask", mask)
        return config

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("OptConfig is immutable")

    def __reduce__(self):
        return OptConfig, (self.key(),)

    # ----------------------------------------------------------------- #
    # constructors

    @classmethod
    def o3(cls) -> "OptConfig":
        """All 38 options on (the GCC ``-O3`` baseline)."""
        return cls(f.name for f in ALL_FLAGS)

    @classmethod
    def o0(cls) -> "OptConfig":
        """No optimization options."""
        return cls()

    @classmethod
    def of(cls, *names: str) -> "OptConfig":
        return cls(names)

    # ----------------------------------------------------------------- #

    @property
    def enabled(self) -> frozenset[str]:
        """The enabled flag names."""
        return frozenset(self.key())

    def is_enabled(self, name: str) -> bool:
        if name not in FLAGS_BY_NAME:
            raise ValueError(f"unknown optimization flag {name!r}")
        return name in self

    def without(self, *names: str) -> "OptConfig":
        """A copy with *names* switched off."""
        return OptConfig._of_mask(self._mask & ~OptConfig(names)._mask)

    def with_(self, *names: str) -> "OptConfig":
        """A copy with *names* switched on."""
        return OptConfig._of_mask(self._mask | OptConfig(names)._mask)

    def __contains__(self, name: str) -> bool:
        return bool(self._mask & _BIT.get(name, 0))

    def __iter__(self) -> Iterator[str]:
        return iter(self.key())

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __eq__(self, other: object) -> bool:
        if type(other) is not OptConfig:
            return NotImplemented
        return self._mask == other._mask

    def __hash__(self) -> int:
        return hash(self._mask)

    def __repr__(self) -> str:
        return f"OptConfig(enabled={set(self.key())!r})"

    def describe(self) -> str:
        """Compact description: which flags differ from -O3."""
        off = [n for n in _NAMES if n not in self]
        if not off:
            return "-O3"
        if len(off) <= 6:
            return "-O3 " + " ".join(f"-fno-{n}" for n in off)
        return f"-O3 minus {len(off)} flags"

    @property
    def mask(self) -> int:
        """The enabled flags as bits: bit ``i`` is the ``i``-th flag name in
        sorted order, the order in which a config lists its flags."""
        return self._mask

    def key(self) -> tuple[str, ...]:
        """A canonical hashable key (sorted tuple of enabled names)."""
        mask = self._mask
        return tuple(n for i, n in enumerate(_NAMES) if mask >> i & 1)
