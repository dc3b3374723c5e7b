"""Closed-form analytics for attacked seals.

Everything here is exact finite-N arithmetic: decode probabilities,
the flat share of the attacker's posterior, Shannon mutual information
(base 2, uniform message prior), post-attack fidelities, and the
read-strength tradeoff sweep.

Every closed form reads the weights W = |c|^2 of the sealed rows.  They
are checked once, where amplitudes enter: `OverlapMatrix`, or
`errors.unit_norm_weights` for rows from anywhere else; a complex array,
which can only be amplitudes, is refused as weights.  Since each row
of W is non-negative and sums to 1 within NORM_ATOL, every decode row
(1-nu)/N + nu w sums to 1 within that tolerance and stays at or above
the flat floor (1-nu)/N; nothing here checks them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attacks import MeasurementFamily
from .errors import UsageError, check_unit_interval, real_weights, unit_norm_weights
from .seals import OverlapMatrix, _check_angle


@dataclass(frozen=True)
class TradeoffPoint:
    """One point of the information/disturbance tradeoff at read strength nu."""

    nu: float
    mutual_information: float
    guess_probability: float
    escape_probability: float
    flat_mass: float


def decode_probabilities(weights, nu: float) -> np.ndarray:
    """Decode distribution (1-nu)/N + nu w for the weights w = |c|^2 of a sealed row.

    A stack of weight rows (N along the last axis) gives one
    distribution per row.
    """
    check_unit_interval("nu", nu)
    weights = real_weights(weights)
    return (1.0 - nu) / weights.shape[-1] + nu * weights


def decode_matrix(overlaps: OverlapMatrix, nu: float) -> np.ndarray:
    """Read-only decode matrix: entry (i', i) = P(decoded = i | message = i')."""
    probs = decode_probabilities(overlaps.weights, nu)
    probs.setflags(write=False)
    return probs


def flat_posterior_masses(probs: np.ndarray, nu: float) -> np.ndarray:
    """Share of the posterior over messages explained by the flat component.

    One value per decoded outcome, under a uniform message prior.  Given
    the decoded value, the posterior weight attributable to the
    (1-nu)/N term of every row is (1-nu) / sum_i' p(i', decoded); for
    doubly unit-norm overlap matrices at nu = 1/2 this is exactly 1/2,
    i.e. half the time the decoded value says nothing about the message.
    Each column is summed in the order of the per-column
    flat_posterior_mass in tests/oracles.py, so the values are equal.
    """
    column_sums = _column_sums(probs)
    zero = np.flatnonzero(~(column_sums > 0.0))
    if zero.size:
        raise UsageError(
            f"decoded values {zero.tolist()} have zero marginal probability; "
            "flat posterior mass is undefined"
        )
    return (1.0 - nu) / column_sums


def _column_sums(probs: np.ndarray) -> np.ndarray:
    # Summing the contiguous rows of the transpose adds each column in
    # the same order as np.sum over that column alone; summing down
    # axis 0 does not.
    return np.ascontiguousarray(probs.T).sum(axis=1)


def mutual_information(probs: np.ndarray) -> float:
    """I(message; decoded) in bits under a uniform message prior.

    Computed as H(decoded) - H(decoded | message) with the convention
    0 log 0 = 0; clamped at 0 against floating-point cancellation.
    """
    marginal = probs.mean(axis=0)
    h_decoded = _entropy_bits(marginal)
    # Rows without zeros take one axis=1 reduction, which sums each row in
    # the same pairwise order as _entropy_bits; rows with zeros keep the
    # per-row path, which drops the zeros before summing.
    zero_free = probs.min(axis=1) > 0.0
    live = probs if zero_free.all() else probs[zero_free]
    terms = np.log2(live)
    terms *= live
    entropies = np.empty(probs.shape[0])
    entropies[zero_free] = -terms.sum(axis=1)
    entropies[~zero_free] = [_entropy_bits(row) for row in probs[~zero_free]]
    return max(h_decoded - float(np.mean(entropies)), 0.0)


def _entropy_bits(distribution: np.ndarray) -> float:
    p = np.asarray(distribution, dtype=float)
    positive = p[p > 0.0]
    return float(-np.sum(positive * np.log2(positive)))


def average_fidelity(weights, nu: float) -> float | np.ndarray:
    """Expected fidelity between a sealed state and its post-attack state.

    For the measurement family this is sum_i (a + b w_i)^2 over the
    weights w = |c|^2, the outcome-weighted fidelity of the renormalized
    post states; at nu = 1 it collapses to sum_i w_i^2.  A stack of
    weight rows (N along the last axis) gives an array with one fidelity
    per row.
    """
    weights = real_weights(weights)
    family = MeasurementFamily.from_nu(weights.shape[-1], nu)
    fidelities = (family.a + family.b * weights) ** 2
    average = np.minimum(fidelities.sum(axis=-1), 1.0)
    return float(average) if average.ndim == 0 else average


def escape_probability(overlaps: OverlapMatrix, nu: float) -> float:
    """Message-averaged post-attack fidelity under a uniform prior."""
    return float(np.mean(average_fidelity(overlaps.weights, nu)))


def expected_flat_mass(probs: np.ndarray, nu: float) -> float:
    """Flat posterior mass averaged over decoded outcomes.

    Weights each decoded value by its marginal probability; for any seal
    this expectation equals 1 - nu, the total weight of the attack's
    do-nothing component.
    """
    marginals = probs.mean(axis=0)
    live = marginals > 0.0
    # Same order of additions as flat_posterior_masses per column and
    # then a running total (cumsum): a pairwise sum of the terms, or of
    # the columns down axis 0, moves the 17-digit result by an ulp.
    column_sums = _column_sums(probs)
    terms = marginals[live] * ((1.0 - nu) / column_sums[live])
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def tradeoff_sweep(overlaps: OverlapMatrix, nu_grid) -> list[TradeoffPoint]:
    """Evaluate the tradeoff at every grid value of nu.

    Grid values must lie in [0, 1] and increase strictly.  Points are
    independent; output order follows the grid.  Each point equals
    decode_matrix, mutual_information, escape_probability and
    expected_flat_mass at that nu, bit for bit.
    """
    grid = [check_unit_interval("grid value", float(v)) for v in nu_grid]
    if not grid:
        raise UsageError("nu grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise UsageError("nu grid must be strictly increasing")
    weights = overlaps.weights
    return [_tradeoff_point(weights, nu) for nu in grid]


def _tradeoff_point(weights: np.ndarray, nu: float) -> TradeoffPoint:
    # One point per call, so no two decode matrices are alive at once
    # and the escape probability's temporary is freed before either.
    # The one-line bodies of escape_probability and decode_matrix stand
    # in for calls, so a profile of those two holds only direct callers.
    escape = float(np.mean(average_fidelity(weights, nu)))
    probs = decode_probabilities(weights, nu)
    return TradeoffPoint(
        nu=nu,
        mutual_information=mutual_information(probs),
        guess_probability=float(np.trace(probs)) / probs.shape[0],
        escape_probability=escape,
        flat_mass=expected_flat_mass(probs, nu),
    )


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
    beta = 1.0 - average_fidelity(unit_norm_weights(row, "bit seal"), nu)
    return alpha, beta
