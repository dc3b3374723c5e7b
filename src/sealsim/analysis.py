"""Closed-form analytics for attacked seals.

Everything here is exact finite-N arithmetic: decode probabilities,
the flat share of the attacker's posterior, Shannon mutual information
(base 2, uniform message prior), post-attack fidelities, and the
read-strength tradeoff sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attacks import AttackCoefficients
from .errors import NORM_ATOL, UsageError, ValidationError, check_unit_interval, unit_norm_weights
from .seals import OverlapMatrix, _check_angle

FLOOR_ATOL = 1e-15


@dataclass(frozen=True, eq=False)
class DecodeMatrix:
    """Row-stochastic matrix: entry (i', i) = P(decoded = i | message = i')."""

    probabilities: np.ndarray
    nu: float

    def __init__(self, probabilities, nu: float) -> None:
        arr = np.array(probabilities, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"decode matrix must be square, got {arr.shape}")
        n = arr.shape[0]
        row_sums = arr.sum(axis=1)
        if not np.max(np.abs(row_sums - 1.0)) <= NORM_ATOL:  # also rejects NaN
            raise ValidationError(f"decode rows must sum to 1, got {row_sums}")
        floor = (1.0 - nu) / n
        if np.min(arr) < floor - FLOOR_ATOL:
            raise ValidationError(
                f"decode entries fall below the flat floor {floor}: min {arr.min()}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "probabilities", arr)
        object.__setattr__(self, "nu", float(nu))

    @property
    def dim(self) -> int:
        return self.probabilities.shape[0]


@dataclass(frozen=True)
class TradeoffPoint:
    """One point of the information/disturbance tradeoff at read strength nu."""

    nu: float
    mutual_information: float
    guess_probability: float
    escape_probability: float
    flat_mass: float


def decode_probabilities(amplitude_row, nu: float) -> np.ndarray:
    """Decode distribution (1-nu)/N + nu |c_i|^2 for one sealed state.

    A stack of amplitude rows (N along the last axis) gives one
    distribution per row.
    """
    check_unit_interval("nu", nu)
    row = np.asarray(amplitude_row, dtype=complex)
    return (1.0 - nu) / row.shape[-1] + nu * unit_norm_weights(row, "amplitude row")


def decode_matrix(overlaps: OverlapMatrix, nu: float) -> DecodeMatrix:
    """Full decode matrix, one row per sealed message."""
    return DecodeMatrix(decode_probabilities(overlaps.coefficients, nu), nu)


def flat_posterior_mass(dm: DecodeMatrix, decoded: int) -> float:
    """Share of the posterior over messages explained by the flat component.

    Assumes a uniform message prior.  Given the decoded value, the
    posterior weight attributable to the (1-nu)/N term of every row is
    (1-nu) / sum_i' p(i', decoded); for doubly unit-norm overlap
    matrices at nu = 1/2 this is exactly 1/2, i.e. half the time the
    decoded value says nothing about the message.
    """
    if not 0 <= decoded < dm.dim:
        raise UsageError(f"decoded value {decoded} out of range for dim {dm.dim}")
    column_sum = float(np.sum(dm.probabilities[:, decoded]))
    if column_sum <= 0.0:
        raise UsageError(
            f"decoded value {decoded} has zero marginal probability; "
            "flat posterior mass is undefined"
        )
    return (1.0 - dm.nu) / column_sum


def mutual_information(dm: DecodeMatrix) -> float:
    """I(message; decoded) in bits under a uniform message prior.

    Computed as H(decoded) - H(decoded | message) with the convention
    0 log 0 = 0; clamped at 0 against floating-point cancellation.
    """
    probs = dm.probabilities
    marginal = probs.mean(axis=0)
    h_decoded = _entropy_bits(marginal)
    h_conditional = float(
        np.mean([_entropy_bits(row) for row in probs])
    )
    return max(h_decoded - h_conditional, 0.0)


def _entropy_bits(distribution: np.ndarray) -> float:
    p = np.asarray(distribution, dtype=float)
    positive = p[p > 0.0]
    return float(-np.sum(positive * np.log2(positive)))


def average_fidelity(amplitude_row, nu: float) -> float | np.ndarray:
    """Expected fidelity between a sealed state and its post-attack state.

    For the measurement family this is sum_i (a + b |c_i|^2)^2, the
    outcome-weighted fidelity of the renormalized post states; at nu = 1
    it collapses to sum_i |c_i|^4.  A stack of amplitude rows (N along
    the last axis) gives an array with one fidelity per row.
    """
    row = np.asarray(amplitude_row, dtype=complex)
    weights = unit_norm_weights(row, "amplitude row")
    coeffs = AttackCoefficients.from_nu(row.shape[-1], nu)
    fidelities = (coeffs.a + coeffs.b * weights) ** 2
    average = np.minimum(fidelities.sum(axis=-1), 1.0)
    return float(average) if average.ndim == 0 else average


def escape_probability(overlaps: OverlapMatrix, nu: float) -> float:
    """Message-averaged post-attack fidelity under a uniform prior."""
    return float(np.mean(average_fidelity(overlaps.coefficients, nu)))


def expected_flat_mass(dm: DecodeMatrix) -> float:
    """Flat posterior mass averaged over decoded outcomes.

    Weights each decoded value by its marginal probability; for any seal
    this expectation equals 1 - nu, the total weight of the attack's
    do-nothing component.
    """
    probs = dm.probabilities
    marginals = probs.mean(axis=0)
    live = marginals > 0.0
    # Same order of additions as flat_posterior_mass per column and then
    # a running total (cumsum): a pairwise sum of the terms, or of the
    # columns down axis 0, moves the 17-digit result by an ulp.
    column_sums = np.ascontiguousarray(probs.T).sum(axis=1)
    terms = marginals[live] * ((1.0 - dm.nu) / column_sums[live])
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def tradeoff_sweep(overlaps: OverlapMatrix, nu_grid) -> list[TradeoffPoint]:
    """Evaluate the tradeoff at every grid value of nu.

    Grid values must lie in [0, 1] and increase strictly.  Points are
    independent; output order follows the grid.
    """
    grid = [check_unit_interval("grid value", float(v)) for v in nu_grid]
    if not grid:
        raise UsageError("nu grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise UsageError("nu grid must be strictly increasing")

    points = []
    for nu in grid:
        dm = decode_matrix(overlaps, nu)
        guess = float(np.trace(dm.probabilities)) / dm.dim
        points.append(
            TradeoffPoint(
                nu=nu,
                mutual_information=mutual_information(dm),
                guess_probability=guess,
                escape_probability=escape_probability(overlaps, nu),
                flat_mass=expected_flat_mass(dm),
            )
        )
    return points


def bit_seal_point(theta: float, nu: float) -> tuple[float, float]:
    """(alpha, beta) for the single-bit seal: correct-read and detection odds.

    alpha is the probability the decoded bit matches the sealed bit,
    (1-nu)/2 + nu cos^2(theta); beta is 1 minus the average post-attack
    fidelity.  Both are reported as computed; no inequality between them
    is asserted here.
    """
    _check_angle(theta, UsageError)
    check_unit_interval("nu", nu)
    alpha = (1.0 - nu) / 2.0 + nu * math.cos(theta) ** 2
    row = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
    beta = 1.0 - average_fidelity(row, nu)
    return alpha, beta
