"""Dense complex state-vector and operator arithmetic at seal dimension N.

All values are immutable; every function is pure and safe to call from
concurrent workers.  Amplitudes are complex throughout even though the
seals studied here have real coefficients: probabilities only ever use
the squared modulus, so generality is free.

Basis convention: message bit strings map to integers big-endian, i.e.
the first bit of the string is the most significant bit of the index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import NORM_ATOL, UsageError, ValidationError


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
        norm_sq = float(np.sum(np.abs(arr) ** 2))
        if not abs(norm_sq - 1.0) <= NORM_ATOL:  # also rejects NaN
            raise ValidationError(
                f"state vector is not normalized: sum |a|^2 = {norm_sq!r}"
            )
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @classmethod
    def basis(cls, dim: int, index: int) -> "StateVector":
        """Computational basis state |index> in dimension dim."""
        if not 0 <= index < dim:
            raise UsageError(f"basis index {index} out of range for dim {dim}")
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls(amps)


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

    @classmethod
    def identity(cls, dim: int) -> "DenseOperator":
        return cls(np.eye(dim, dtype=complex))


def tensor_product(factors: Sequence[StateVector]) -> StateVector:
    """Tensor product of states, first factor most significant."""
    if not factors:
        raise UsageError("tensor_product requires at least one factor")
    amps = reduce(np.kron, (f.amplitudes for f in factors))
    return StateVector(amps)


def apply_and_normalize(
    op: DenseOperator, state: StateVector
) -> tuple[float, StateVector | None]:
    """Apply a measurement operator and renormalize.

    Returns (outcome probability ||op.state||^2, post-measurement state).
    A zero-norm result has probability 0 and no post state.
    """
    if op.dim != state.dim:
        raise UsageError(f"dimension mismatch: operator {op.dim}, state {state.dim}")
    raw = op.entries @ state.amplitudes
    prob = float(np.sum(np.abs(raw) ** 2))
    if prob <= 0.0:
        return 0.0, None
    return prob, StateVector(raw / np.sqrt(prob))


def fidelity(s1: StateVector, s2: StateVector) -> float:
    """|<s1|s2>|^2 — symmetric, phase-invariant, 1 iff equal up to phase."""
    if s1.dim != s2.dim:
        raise UsageError(f"dimension mismatch: {s1.dim} vs {s2.dim}")
    overlap = np.vdot(s1.amplitudes, s2.amplitudes)
    return float(min(abs(overlap) ** 2, 1.0))
