"""The two dense value types at seal dimension N: states and operators.

`StateVector` is a unit-norm complex amplitude vector and
`DenseOperator` a square complex matrix.  Both are immutable: their
arrays are checked at construction and read-only.  Amplitudes are complex
throughout even though the seals studied here have real coefficients:
probabilities only ever use the squared modulus, so generality is free.

Basis convention: message bit strings map to integers big-endian, i.e.
the first bit of the string is the most significant bit of the index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, unit_norm_weights


def _frozen_complex(values, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.ndim != ndim:
        raise ValidationError(f"expected a {ndim}-d array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitude vector over the N basis states."""

    amplitudes: np.ndarray

    def __init__(self, amplitudes) -> None:
        arr = _frozen_complex(amplitudes, ndim=1)
        if arr.size == 0:
            raise ValidationError("state vector must have at least one amplitude")
        unit_norm_weights(arr, "state vector")
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Dense N x N complex operator."""

    entries: np.ndarray

    def __init__(self, entries) -> None:
        arr = _frozen_complex(entries, ndim=2)
        if arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"operator must be square, got shape {arr.shape}")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]
