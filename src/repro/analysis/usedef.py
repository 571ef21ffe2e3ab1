"""Reaching definitions and use-def chains.

This is the ``Find_UD_Chain`` primitive of the paper's Fig. 1 context-variable
analysis.  Definition sites are per-statement; parameters carry a synthetic
*entry* definition (``DefSite.is_entry``), which is exactly the "m is the
entry statement" test in the paper's pseudo-code.

Kill semantics: an assignment to a scalar kills earlier definitions of the
same variable; array stores are may-defs and kill nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.function import Function
from .dataflow import solve_forward

__all__ = ["DefSite", "ReachingDefs"]


@dataclass(frozen=True, order=True)
class DefSite:
    """A definition site of *var*: a statement, or the function entry."""

    var: str
    label: str
    index: int  # statement index within the block; -1 for the entry pseudo-def

    ENTRY_LABEL = "<entry>"

    @property
    def is_entry(self) -> bool:
        return self.label == DefSite.ENTRY_LABEL

    @classmethod
    def entry(cls, var: str) -> "DefSite":
        return cls(var, cls.ENTRY_LABEL, -1)


class ReachingDefs:
    """Reaching-definitions solution for one function.

    ``reaching_before(label, i)`` gives the definitions reaching statement
    ``i`` of block ``label``; ``ud_chain(var, label, i)`` filters those to
    definitions of *var* — the paper's UD chain.
    """

    def __init__(self, fn: Function) -> None:
        self.fn = fn
        cfg = fn.cfg

        entry_defs = frozenset(DefSite.entry(p.name) for p in fn.params)

        def transfer(label: str, in_set: frozenset[DefSite]) -> frozenset[DefSite]:
            cur = set(in_set)
            for i, s in enumerate(cfg.blocks[label].stmts):
                self._apply(cur, label, i, s)
            return frozenset(cur)

        self._in, self._out = solve_forward(cfg, transfer, entry_value=entry_defs)

    @staticmethod
    def _apply(cur: set[DefSite], label: str, i: int, s) -> None:
        if s.is_scalar_def():
            var = s.target.name
            cur.difference_update({d for d in cur if d.var == var})
            cur.add(DefSite(var, label, i))
        else:
            cur.add(DefSite(s.target.array, label, i))

    # ------------------------------------------------------------------ #

    def reaching_before(self, label: str, index: int) -> frozenset[DefSite]:
        """Definitions reaching just before statement *index* of *label*.

        ``index`` may equal ``len(stmts)`` to query the point just before the
        terminator.
        """
        cur = set(self._in[label])
        stmts = self.fn.cfg.blocks[label].stmts
        for i in range(index):
            self._apply(cur, label, i, stmts[i])
        return frozenset(cur)

    def ud_chain(self, var: str, label: str, index: int) -> frozenset[DefSite]:
        """Definitions of *var* reaching the use at (*label*, *index*)."""
        return frozenset(
            d for d in self.reaching_before(label, index) if d.var == var
        )

    def ud_chain_at_terminator(self, var: str, label: str) -> frozenset[DefSite]:
        """UD chain for a use in the block terminator (control statement)."""
        nstmts = len(self.fn.cfg.blocks[label].stmts)
        return self.ud_chain(var, label, nstmts)

    def statement_at(self, site: DefSite):
        """Return the defining statement object for a non-entry site."""
        if site.is_entry:
            raise ValueError("entry pseudo-definition has no statement")
        return self.fn.cfg.blocks[site.label].stmts[site.index]
