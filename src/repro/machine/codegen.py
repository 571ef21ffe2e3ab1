"""Holds only ``_CODE_MEMO``, a store that nothing fills.

Neither tier generates per-block code: Tier 0 is the closure interpreter
of :mod:`.executor`, and Tier 1 (:mod:`.jit`) emits whole functions, so
the reference tier shares no generated code with the tier it checks.
"""

from __future__ import annotations

from ..store import Store

#: nothing fills it; perfbench/operations.py::reset_process_caches clears it
_CODE_MEMO: Store[object] = Store()
