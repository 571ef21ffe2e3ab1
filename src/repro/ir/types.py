"""Value types for the reproduction IR.

The IR is deliberately small: scalars (int/float/bool), 1-D arrays of ints or
floats, and pointers.  Two-dimensional data is expressed by affine flattening
in the front end (the :mod:`repro.ir.builder` provides helpers), which keeps
the executor and the dataflow analyses simple while still exercising the
paper's analyses (Fig. 1 treats "array references with constant subscripts"
and "pointers not changed within the tuning section" as scalars).
"""

from __future__ import annotations

import enum


class Type(enum.Enum):
    """The value types a variable may have."""

    INT = "int"
    FLOAT = "float"
    BOOL = "bool"
    INT_ARRAY = "int[]"
    FLOAT_ARRAY = "float[]"
    PTR = "ptr"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Type.{self.name}"


#: Types whose values are plain scalars in the sense of the paper's CBR
#: applicability test (Section 2.2): plain scalars qualify directly.
SCALAR_TYPES = frozenset({Type.INT, Type.FLOAT, Type.BOOL})

#: Array-valued types.
ARRAY_TYPES = frozenset({Type.INT_ARRAY, Type.FLOAT_ARRAY})


def is_scalar(ty: Type) -> bool:
    """Return ``True`` when *ty* is a plain scalar type."""
    return ty in SCALAR_TYPES


def is_array(ty: Type) -> bool:
    """Return ``True`` when *ty* is an array type."""
    return ty in ARRAY_TYPES


def element_type(ty: Type) -> Type:
    """Return the element type of an array type."""
    if ty is Type.INT_ARRAY:
        return Type.INT
    if ty is Type.FLOAT_ARRAY:
        return Type.FLOAT
    raise ValueError(f"{ty} is not an array type")
