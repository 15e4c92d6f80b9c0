"""Small dense 3x3 complex tensor wrapper shared across modules."""

from __future__ import annotations

import numpy as np

__all__ = ["ComplexTensor3"]


class ComplexTensor3:
    """Immutable 3x3 complex tensor, kept as bytes."""

    __slots__ = ("_data",)

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=complex)
        if arr.shape != (3, 3):
            raise ValueError("entries must form a 3x3 tensor")
        object.__setattr__(self, "_data", arr.tobytes())

    @property
    def entries(self):
        return np.frombuffer(self._data, dtype=complex).reshape(3, 3)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexTensor3 is immutable")

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.entries.astype(dtype)
        return self.entries

    def __repr__(self):
        return f"ComplexTensor3({self.entries.tolist()!r})"
