"""Invocation feeds: the "running application" abstraction.

During tuning, the instrumented application runs and its TS gets invoked
with the inputs the dataset dictates.  A feed yields those invocations'
inputs in order; when a program run's invocations are exhausted, a new
run starts (charged to the ledger — tuning that needs more invocations than
one run provides costs extra whole-program executions, which is exactly the
accounting behind Fig. 7(c)/(d)).

Every program run replays the same input file: its input RNG is re-seeded
from the same seed, so run *k* sees exactly the environments of run 1.  An
:class:`InputReplay` therefore calls the generator for one run only, the
first time an input is needed, and keeps those environments as the pristine
copy of the input file.

The unit a feed hands out is an input *position*: an
:class:`~repro.machine.executor.Inputs` handle.  Its
:class:`~repro.machine.executor.InputFacts` (names, value types, array
shapes and the exact and float scalars: the env's part of the invocation
replay key) are computed once per position, from the pristine copy typed
as a hand-out binds it, and shared by every handle of that position;
equal names, sigs and shapes are stored once across positions.  Its env
is built on first access, so an invocation the machine replays builds
none, and :meth:`InputReplay.peek` reads a position's values (CBR's
context) without building one.  An env is a fresh copy, so a rating that
mutates its arrays (every TS writes some) never changes a later run's
inputs.  It follows that, unless the replay is live, a fresh hand-out of
a position (:meth:`~repro.machine.executor.Inputs.fresh`) equals an env
of that position that was written and then restored.  RBR relies on
this: when its executor has a replay store and its plan has no inspector
arrays, each of its three runs gets its own hand-out instead of one env
that it saves and restores (:mod:`repro.core.rating.rbr`).  Until its env
is built, such a hand-out holds exactly the position's contents, so the
store keys its runs by position, for versions that are not data-oblivious
too (:meth:`~repro.machine.executor.Executor.run`), and a run that is
replayed copies nothing.  The copies follow what the generator's own
output does, bound as the machine binds inputs
(:func:`~repro.machine.executor.unbox`):

* a 1-D ``float64`` array is handed out as a list of floats
  (``ndarray.tolist``); the pristine copy stays numpy, which holds a run's
  inputs in a quarter of the memory of boxed floats;
* any other array is handed out as an ``ndarray.copy``, and any other
  mutable object as a deep copy;
* an array bound to several names of one environment stays one array (or
  one list);
* an object the generator returns at several positions of a run (crafty's
  ``dirs`` table) is handed out itself, never copied or unboxed, so writes
  to it carry over exactly as when the generator hands it out again;
* immutable values (numbers, strings, numpy scalars) are shared as they are.

A replay that hands out such a shared object is :attr:`~InputReplay.live`:
what one invocation writes into it, a later position reads, so a run's
inputs depend on everything that ran before them.  A live replay's handles
carry the env, built at hand-out, and facts derived from it alone, so
nothing is kept per position.

The contract this relies on: the generator's output depends only on its RNG
and the position, and every object it returns at only one position of a run
is new on each call.  One replay may serve many feeds, also from several
threads: the batch engine gives every task of a worker the same replay.
Threads that race on a position's first handle compute equal facts.
"""

from __future__ import annotations

import copy
import functools
import threading
from typing import Callable, Iterator

import numpy as np

from ...machine.executor import InputFacts, Inputs, input_facts, is_float_vector
from ...runtime.ledger import TuningLedger

__all__ = ["InputReplay", "InvocationFeed"]

#: values a hand-out may share with the pristine copy
_IMMUTABLE = (int, float, complex, bool, str, bytes, type(None), np.generic)


class InputReplay:
    """One program run's invocation environments, generated once.

    Parameters
    ----------
    generator:
        ``generator(rng, i) -> env`` building the i'th invocation's inputs.
    n_per_run:
        invocations of the TS in one program run.
    seed:
        the seed of the run's input RNG.
    """

    def __init__(
        self,
        generator: Callable[[np.random.Generator, int], dict],
        n_per_run: int,
        seed: int = 0,
    ) -> None:
        self.generator = generator
        self.n_per_run = n_per_run
        self.seed = seed
        #: per position: (entries, simple); entries are (name, value, make),
        #: where ``make()`` produces the hand-out's copy of value (None:
        #: hand out value itself)
        self._positions: list[tuple[tuple, bool]] | None = None
        self._live = False
        self._lock = threading.Lock()
        #: per position: its InputFacts once it has a handle (never when live)
        self._facts: list[InputFacts | None] = [None] * n_per_run
        #: layouts and interned names, sigs and shapes (see ``input_facts``)
        self._layouts: dict = {}
        self._intern: dict = {}

    def _generate(self) -> list[tuple[tuple, bool]]:
        rng = np.random.default_rng(self.seed)
        envs = [self.generator(rng, i) for i in range(self.n_per_run)]
        # mutable objects returned at more than one position are live state
        # of the generator, not inputs of one invocation
        first_at: dict[int, int] = {}
        shared: set[int] = set()
        for pos, env in enumerate(envs):
            for value in env.values():
                if (
                    not isinstance(value, _IMMUTABLE)
                    and first_at.setdefault(id(value), pos) != pos
                ):
                    shared.add(id(value))
        self._live = bool(shared)
        positions = []
        for env in envs:
            entries = []
            seen: set[int] = set()
            simple = True
            for name, value in env.items():
                if isinstance(value, _IMMUTABLE) or id(value) in shared:
                    make = None
                else:
                    if is_float_vector(value):
                        make = value.tolist
                    elif isinstance(value, np.ndarray):
                        make = value.copy
                    else:
                        make = functools.partial(copy.deepcopy, value)
                    # one object under two names: copy it once per hand-out
                    simple = (
                        simple
                        and isinstance(value, np.ndarray)
                        and id(value) not in seen
                    )
                    seen.add(id(value))
                entries.append((name, value, make))
            positions.append((tuple(entries), simple))
        return positions

    def _generated(self) -> list[tuple[tuple, bool]]:
        positions = self._positions
        if positions is None:
            with self._lock:
                if self._positions is None:
                    self._positions = self._generate()
                positions = self._positions
        return positions

    @property
    def live(self) -> bool:
        """Whether some hand-out is an object shared across positions, whose
        contents carry writes from one invocation to a later one."""
        self._generated()
        return self._live

    def inputs(self, pos: int) -> Inputs:
        """The inputs at position *pos* of the run: a handle whose env is a
        fresh copy, built on first access."""
        facts = self._facts[pos]
        if facts is None:
            entries, _ = self._generated()[pos]
            if self._live:
                env = self.env(pos)
                return Inputs(input_facts(env, self._layouts), env)
            # the pristine values with the types a hand-out binds them as
            facts = self._facts[pos] = input_facts(
                {name: value for name, value, _ in entries},
                self._layouts,
                self._intern,
                tuple(list if _unboxed(v, make) else type(v) for _, v, make in entries),
            )
        return Inputs(facts, None, self, pos)

    def peek(self, pos: int) -> dict:
        """The values at position *pos* for reading only, as a hand-out
        binds them, without copying: a float vector reads as floats."""
        entries, _ = self._generated()[pos]
        return {
            name: _Floats(value) if _unboxed(value, make) else value
            for name, value, make in entries
        }

    def env(self, pos: int) -> dict:
        """A fresh copy of the environment at position *pos* of the run."""
        positions = self._positions
        if positions is None:
            positions = self._generated()
        entries, simple = positions[pos]
        if simple:
            return {name: make() if make else value for name, value, make in entries}
        memo: dict[int, object] = {}
        env = {}
        for name, value, make in entries:
            if make is None:
                env[name] = value
                continue
            out = memo.get(id(value))
            if out is None:
                out = memo[id(value)] = make()
            env[name] = out
        return env


def _unboxed(value: object, make: Callable | None) -> bool:
    """Whether a hand-out binds the pristine *value* as a list of floats."""
    return make is not None and is_float_vector(value)


class _Floats:
    """Read access to a pristine float vector as the list of floats a
    hand-out binds (``ndarray.tolist``), element by element."""

    __slots__ = ("_array",)

    def __init__(self, array: np.ndarray) -> None:
        self._array = array

    def __getitem__(self, i: int) -> float:
        return float(self._array[i])


class InvocationFeed:
    """Sequentially yields invocations' inputs from a dataset.

    Parameters
    ----------
    generator:
        ``generator(rng, i) -> env`` building the i'th invocation's inputs.
    n_per_run:
        invocations of the TS in one program run.
    non_ts_cycles:
        cycles the application spends outside the TS per run.
    ledger:
        tuning ledger charged at program-run boundaries.
    seed:
        base seed; each program run re-derives its input RNG from it, so the
        same dataset replays identically across runs (like re-running the
        application on the same input file).
    replay:
        the :class:`InputReplay` of (generator, n_per_run, seed) to draw
        from, shared with other feeds of the same dataset; by default the
        feed builds its own.
    """

    def __init__(
        self,
        generator: Callable[[np.random.Generator, int], dict],
        n_per_run: int,
        non_ts_cycles: float,
        ledger: TuningLedger,
        seed: int = 0,
        *,
        replay: InputReplay | None = None,
    ) -> None:
        if n_per_run <= 0:
            raise ValueError("a program run must contain at least one invocation")
        if replay is None:
            replay = InputReplay(generator, n_per_run, seed)
        elif (replay.generator, replay.n_per_run, replay.seed) != (
            generator, n_per_run, seed
        ):
            raise ValueError("the replay belongs to a different dataset or seed")
        self.generator = generator
        self.n_per_run = n_per_run
        self.non_ts_cycles = non_ts_cycles
        self.ledger = ledger
        self.seed = seed
        self.replay = replay
        self._index = 0

    @property
    def invocations_consumed(self) -> int:
        return self._index

    def next_env(self) -> Inputs:
        """The next invocation's inputs (see :meth:`InputReplay.inputs`)."""
        pos = self._index % self.n_per_run
        if pos == 0:
            self.ledger.start_program_run(self.non_ts_cycles)
        self._index += 1
        return self.replay.inputs(pos)

    def skip(self, n: int) -> None:
        """Advance past *n* invocations, charging the program runs they
        start as *n* calls to :meth:`next_env` would, without handing out
        their inputs."""
        npr = self.n_per_run
        start = self._index
        self._index += n
        # a run starts at every multiple of n_per_run in [start, start + n)
        for _ in range(-(-start // npr) * npr, self._index, npr):
            self.ledger.start_program_run(self.non_ts_cycles)

    def iter(self, n: int) -> Iterator[Inputs]:
        for _ in range(n):
            yield self.next_env()
