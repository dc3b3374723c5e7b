"""Error types, the shared input checks and the global dimension cap."""

import os

import numpy as np

DEFAULT_MAX_DIM = 4096
MAX_DIM_ENV_VAR = "SEALSIM_MAX_DIM"

NORM_ATOL = 1e-12


class UsageError(ValueError):
    """A caller passed arguments outside an operation's contract."""


class ValidationError(ValueError):
    """Input data violates a structural invariant (e.g. a non-unit row)."""


class ResourceError(RuntimeError):
    """The requested problem size exceeds the configured dense-algebra cap."""


def max_dim() -> int:
    """Current dense-dimension cap (overridable via SEALSIM_MAX_DIM)."""
    raw = os.environ.get(MAX_DIM_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError as exc:
        raise ResourceError(f"{MAX_DIM_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 2:
        raise ResourceError(f"{MAX_DIM_ENV_VAR} must be at least 2, got {value}")
    return value


def check_dim(n: int) -> int:
    """Raise ResourceError if an N-dimensional dense problem exceeds the cap."""
    cap = max_dim()
    if n > cap:
        raise ResourceError(
            f"dimension {n} exceeds the cap of {cap}; "
            f"set {MAX_DIM_ENV_VAR} to raise it"
        )
    return n


def check_unit_interval(name: str, value: float) -> float:
    """Return value if it lies in [0, 1], else raise UsageError (NaN too)."""
    if not 0.0 <= value <= 1.0:
        raise UsageError(f"{name} must lie in [0, 1], got {value}")
    return value


def unit_norm_weights(amplitudes: np.ndarray, what: str) -> np.ndarray:
    """|c|^2 of amplitudes whose squares sum to 1 along the last axis.

    Raises ValidationError when a sum is off by more than NORM_ATOL or is
    not finite, naming the offending rows of a stack.
    """
    weights = np.abs(amplitudes) ** 2
    total = weights.sum(axis=-1)
    bad = ~(np.abs(total - 1.0) <= NORM_ATOL)  # also rejects NaN and Inf
    if np.any(bad):
        if total.ndim == 0:
            raise ValidationError(f"{what} is not unit-norm: sum |c|^2 = {float(total)!r}")
        rows = np.flatnonzero(bad)
        raise ValidationError(
            f"{what} rows {rows.tolist()} are not unit-norm "
            f"(sum |c|^2 = {total.reshape(-1)[rows].tolist()})"
        )
    return weights


def real_weights(weights) -> np.ndarray:
    """Return weights as a float array, refusing a complex (amplitude) array.

    The caller vouches that each row is |c|^2 of a unit-norm row; only the
    dtype is tested here, so no norm is checked twice.
    """
    if np.iscomplexobj(weights):
        raise UsageError("expected weights |c|^2, got a complex (amplitude) array")
    return np.asarray(weights, dtype=float)
