"""Read-attack strategies against sealed states.

The measurement family is the one-parameter set of N operators

    Q_i = a(nu) * I + b(nu) * |i><i|,    i = 0 .. N-1,

with a = sqrt((1-nu)/N) and a + b = sqrt((1-nu)/N + nu).  These are the
unique nonnegative coefficients for which the family is complete
(N a^2 + 2ab + b^2 = 1) and the decode probability takes the form
(1-nu)/N + nu |c_i|^2 for a sealed state with amplitudes c.  nu = 0 is
a rescaled identity (no measurement), nu = 1 the full projective read.

The coin-toss strategy is the classical analog: with probability q
perform the honest computational-basis measurement, otherwise leave the
state untouched and report a uniform random guess.  Its decode
distribution equals the family's at nu = q; the post-measurement state
ensembles differ (the family's operators mix the identity and projector
branches coherently), so fidelities are reported per strategy and never
assumed equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError, check_dim, check_unit_interval, real_weights, unit_norm_weights


@dataclass(frozen=True)
class MeasurementFamily:
    """The N structured operators a*I + b*|i><i| for one nu."""

    nu: float
    dim: int
    a: float
    b: float

    @classmethod
    def from_nu(cls, dim: int, nu: float) -> "MeasurementFamily":
        """The family's coefficients at read strength nu (no dimension cap)."""
        if dim < 2:
            raise UsageError(f"dimension must be at least 2, got {dim}")
        check_unit_interval("nu", nu)
        a = math.sqrt((1.0 - nu) / dim)
        b = math.sqrt((1.0 - nu) / dim + nu) - a
        return cls(nu=float(nu), dim=dim, a=a, b=b)

    def operator(self, index: int) -> np.ndarray:
        """Dense N x N complex expansion of the operator targeting basis state index."""
        if not 0 <= index < self.dim:
            raise UsageError(f"operator index {index} out of range")
        entries = self.a * np.eye(self.dim, dtype=complex)
        entries[index, index] += self.b
        return entries

    def outcome_probabilities(self, weights: np.ndarray) -> np.ndarray:
        """||Q_i c||^2 for every i, from the weights |c|^2 of a sealed row c.

        The Monte Carlo samples this operator form; mc-validate checks it
        against analysis.decode_probabilities' closed form.
        """
        if weights.shape != (self.dim,):
            raise UsageError(f"dimension mismatch: family {self.dim}, weights {weights.shape}")
        a, b = self.a, self.b
        return a * a + (2.0 * a * b + b * b) * weights

    def completeness_deviation(self) -> float:
        """Max-entry deviation of sum_i Q_i^dag Q_i from the identity.

        Small dimensions accumulate the dense expansions directly.  Large
        ones use the exact identity Q^dag Q = a^2 I + (2ab + b^2)|i><i|:
        the sum is the diagonal matrix (N a^2 + 2ab + b^2) I (both paths
        agree, see the test suite).
        """
        n = self.dim
        if n <= 128:
            total = np.zeros((n, n), dtype=complex)
            for i in range(n):
                q = self.operator(i)
                total += q.conj().T @ q
            return float(np.max(np.abs(total - np.eye(n))))
        a, b = self.a, self.b
        return abs(n * a * a + (2.0 * a * b + b * b) - 1.0)


def measurement_family(n: int, nu: float) -> MeasurementFamily:
    """Build the complete N-operator family at read strength nu."""
    check_dim(n)
    return MeasurementFamily.from_nu(n, nu)


def coin_toss_probabilities(weights, read_probability: float) -> np.ndarray:
    """Analytic decode distribution of the coin-toss strategy.

    Summing the two branches: q * w_i from the honest measurement, w the
    weights |c|^2 of the sealed row, plus (1-q)/N from the uniform idle
    guess.  A stack of weight rows (N along the last axis) gives one
    distribution per row.
    """
    q = check_unit_interval("read probability", read_probability)
    weights = real_weights(weights)
    return q * weights + (1.0 - q) / weights.shape[-1]


def coin_toss_escape_probability(amplitude_row, read_probability: float) -> float | np.ndarray:
    """Analytic verifier pass rate for the coin-toss strategy.

    The idle branch returns the state untouched (fidelity 1); the honest
    branch collapses to |i> with probability |c_i|^2 and then passes
    with fidelity |c_i|^2, giving (1-q) + q * sum |c_i|^4.  A stack of
    amplitude rows gives an array with one pass rate per row.
    """
    q = check_unit_interval("read probability", read_probability)
    row = np.asarray(amplitude_row, dtype=complex)
    unit_norm_weights(row, "amplitude row")
    escape = (1.0 - q) + q * np.sum(np.abs(row) ** 4, axis=-1)
    return float(escape) if escape.ndim == 0 else escape


def _cumulative(weights: np.ndarray) -> np.ndarray:
    """Running sums of outcome weights, which must sum to 1 within 1e-9."""
    cumulative = np.cumsum(weights)
    total = cumulative[-1]
    if not math.isfinite(total) or abs(total - 1.0) > 1e-9:
        raise UsageError(f"outcome weights sum to {total}, expected 1")
    return cumulative


def _sample_index(cumulative: np.ndarray, uniforms):
    """Outcome index for a uniform draw, or an array of draws, by inverse CDF.

    `cumulative` holds the `_cumulative` running sums of the weights.
    """
    index = np.searchsorted(cumulative, uniforms * cumulative[-1], side="right")
    return np.minimum(index, len(cumulative) - 1)


class _GuideTable:
    """_sample_index over one cumulative table, looked up by bins of [0, 1).

    The table splits [0, 1) into K bins, K the power of two at or above
    16 N, and stores for bin k the outcomes of its lowest and highest
    draws, _sample_index(cumulative, k/K) and that of the double just
    below (k+1)/K.  u K is exact and u * total is monotone in u, so a
    draw in a bin whose two outcomes agree has that outcome; only draws
    in the other bins, which hold a step of the CDF, are searched.
    Calling the table on draws gives _sample_index(cumulative, draws),
    draw for draw.
    """

    def __init__(self, cumulative: np.ndarray) -> None:
        self.cumulative = cumulative
        self.bins = 1 << (16 * len(cumulative) - 1).bit_length()
        edges = np.arange(self.bins + 1) / self.bins
        self.first = _sample_index(cumulative, edges[:-1])
        self.split = self.first != _sample_index(cumulative, np.nextafter(edges[1:], 0.0))

    def __call__(self, uniforms: np.ndarray) -> np.ndarray:
        bins = (uniforms * self.bins).astype(np.intp)
        index = self.first[bins]
        searched = np.flatnonzero(self.split[bins])
        index[searched] = _sample_index(self.cumulative, uniforms[searched])
        return index
