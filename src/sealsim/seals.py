"""Sealed-state construction and the verifier's pass/fail check.

Two constructions are supported:

- the general overlap model: the sealed state for message i' is
  sum_j c[i', j] |j>, one unit-norm coefficient row per message;
- the per-qubit product seal: each message bit b is encoded as
  cos(theta)|b> + sin(theta)|1-b>, so the overlap coefficients factor
  into per-bit cos/sin terms.

Angles are restricted to [0, pi/4]: beyond pi/4 the flipped bit becomes
more likely than the true one, which only relabels messages.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import reduce
from typing import Literal

import numpy as np

from .errors import UsageError, ValidationError, check_dim, unit_norm_weights
from .linalg import StateVector, fidelity, tensor_product

THETA_MAX = math.pi / 4


def _check_angle(theta: float, error: type[ValueError] = ValidationError) -> None:
    """Raise `error` unless 0 <= theta <= THETA_MAX (NaN fails too)."""
    if not 0.0 <= theta <= THETA_MAX:
        raise error(f"angle {theta} outside [0, pi/4]")


@dataclass(frozen=True, eq=False)
class OverlapMatrix:
    """N x N coefficient matrix; row i' is the sealed state for message i'."""

    coefficients: np.ndarray

    def __init__(self, coefficients) -> None:
        arr = np.array(coefficients, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"overlap matrix must be square, got {arr.shape}")
        unit_norm_weights(arr, "overlap matrix")
        arr.setflags(write=False)
        object.__setattr__(self, "coefficients", arr)

    @property
    def dim(self) -> int:
        return self.coefficients.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "OverlapMatrix":
        """Perfect seal: message i' is stored as the basis state |i'>."""
        return cls(np.eye(dim, dtype=complex))


@dataclass(frozen=True)
class ProductSealSpec:
    """Per-qubit seal of a bit string with one rotation angle per bit."""

    bits: str
    thetas: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.bits:
            raise ValidationError("bit string must be non-empty")
        if set(self.bits) - {"0", "1"}:
            raise ValidationError(f"bit string must be binary, got {self.bits!r}")
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        if len(self.thetas) != len(self.bits):
            raise ValidationError(
                f"need one angle per bit: {len(self.bits)} bits, "
                f"{len(self.thetas)} angles"
            )
        for t in self.thetas:
            _check_angle(t)

    @classmethod
    def shared_theta(cls, bits: str, theta: float) -> "ProductSealSpec":
        return cls(bits, (theta,) * len(bits))

    @property
    def num_bits(self) -> int:
        return len(self.bits)

    @property
    def dim(self) -> int:
        return 2 ** len(self.bits)

    @property
    def message(self) -> int:
        """Big-endian integer value of the bit string."""
        return int(self.bits, 2)


SealSource = Literal["general", "product"]


@dataclass(frozen=True, eq=False)
class SealedState:
    """A sealed state together with the message it encodes."""

    state: StateVector
    message: int
    source: SealSource

    def __post_init__(self) -> None:
        if not 0 <= self.message < self.state.dim:
            raise UsageError(
                f"message {self.message} out of range for dim {self.state.dim}"
            )


def seal_from_overlaps(overlaps: OverlapMatrix, message: int) -> SealedState:
    """Sealed state for one message row of the general overlap model."""
    if not 0 <= message < overlaps.dim:
        raise UsageError(f"message {message} out of range for dim {overlaps.dim}")
    state = StateVector(overlaps.coefficients[message])
    return SealedState(state=state, message=message, source="general")


def _bit_factor(theta: float) -> np.ndarray:
    # 2x2 factor relating a sealed bit to a candidate bit: diagonal cos
    # (bits agree), off-diagonal sin (bits differ).
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, c]], dtype=complex)


def overlap_matrix(spec: ProductSealSpec) -> OverlapMatrix:
    """Full overlap matrix of a product seal, varying the message row.

    Entry (i', j') is the product over bit positions of cos(theta_m) when
    bit m of j' equals bit m of i', else sin(theta_m).  The result is
    symmetric with unit-norm rows and columns.
    """
    check_dim(spec.dim)
    factors = [_bit_factor(t) for t in spec.thetas]
    return OverlapMatrix(reduce(np.kron, factors))


def product_seal(spec: ProductSealSpec) -> SealedState:
    """Sealed state of a product seal, built qubit by qubit."""
    check_dim(spec.dim)
    qubits = []
    for bit, theta in zip(spec.bits, spec.thetas):
        amps = np.zeros(2, dtype=complex)
        amps[int(bit)] = math.cos(theta)
        amps[1 - int(bit)] = math.sin(theta)
        qubits.append(StateVector(amps))
    return SealedState(
        state=tensor_product(qubits), message=spec.message, source="product"
    )


def verify_seal(
    original: SealedState, returned: StateVector, rng: np.random.Generator
) -> bool:
    """Projective check onto the original sealed state.

    Passes with probability fidelity(original, returned); deterministic
    for a fixed generator state.
    """
    if original.state.dim != returned.dim:
        raise UsageError(
            f"dimension mismatch: sealed {original.state.dim}, returned {returned.dim}"
        )
    return bool(rng.random() < fidelity(original.state, returned))


def load_overlap_matrix(path) -> OverlapMatrix:
    """Load an overlap matrix from JSON: {"dim": N, "rows": [[[re, im], ...], ...]}."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
            dim = int(payload["dim"])
            arr = np.asarray(payload["rows"], dtype=float)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # not UTF-8 JSON, no integer 'dim', ragged or non-numeric 'rows'
            raise ValidationError(f"{path}: malformed overlap file: {exc!r}") from exc
    if arr.shape != (dim, dim, 2):
        raise ValidationError(
            f"{path}: 'rows' must be a {dim}x{dim} array of [re, im] pairs, "
            f"got shape {arr.shape}"
        )
    return OverlapMatrix(arr[..., 0] + 1j * arr[..., 1])


def save_overlap_matrix(matrix: OverlapMatrix, path) -> None:
    """Write an overlap matrix in the JSON schema used by load_overlap_matrix."""
    coeffs = matrix.coefficients
    rows = [
        [[float(c.real), float(c.imag)] for c in row]
        for row in coeffs
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"dim": matrix.dim, "rows": rows}, fh)
        fh.write("\n")
