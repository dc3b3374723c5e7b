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

from .errors import UsageError, check_dim, check_unit_interval
from .linalg import DenseOperator, StateVector, _renormalize
from .seals import SealedState


@dataclass(frozen=True)
class AttackCoefficients:
    """Coefficients (a, b) of the measurement family at a given nu."""

    nu: float
    dim: int
    a: float
    b: float

    @classmethod
    def from_nu(cls, dim: int, nu: float) -> "AttackCoefficients":
        if dim < 2:
            raise UsageError(f"dimension must be at least 2, got {dim}")
        check_unit_interval("nu", nu)
        a = math.sqrt((1.0 - nu) / dim)
        b = math.sqrt((1.0 - nu) / dim + nu) - a
        return cls(nu=float(nu), dim=dim, a=a, b=b)


@dataclass(frozen=True)
class MeasurementFamily:
    """The N structured operators a*I + b*|i><i| for one nu."""

    coeffs: AttackCoefficients

    @property
    def dim(self) -> int:
        return self.coeffs.dim

    @property
    def nu(self) -> float:
        return self.coeffs.nu

    def operator(self, index: int) -> DenseOperator:
        """Dense expansion of the operator targeting basis state index."""
        if not 0 <= index < self.dim:
            raise UsageError(f"operator index {index} out of range")
        entries = self.coeffs.a * np.eye(self.dim, dtype=complex)
        entries[index, index] += self.coeffs.b
        return DenseOperator(entries)

    def apply(self, index: int, state: StateVector) -> tuple[float, StateVector | None]:
        """Structured application of operator `index`; returns (prob, post)."""
        if state.dim != self.dim:
            raise UsageError(f"dimension mismatch: family {self.dim}, state {state.dim}")
        if not 0 <= index < self.dim:
            raise UsageError(f"operator index {index} out of range")
        raw = self.coeffs.a * state.amplitudes
        raw[index] += self.coeffs.b * state.amplitudes[index]
        return _renormalize(raw)

    def outcome_probabilities(self, state: StateVector) -> np.ndarray:
        """||Q_i state||^2 for every i, from the structured form."""
        if state.dim != self.dim:
            raise UsageError(f"dimension mismatch: family {self.dim}, state {state.dim}")
        a, b = self.coeffs.a, self.coeffs.b
        weights = np.abs(state.amplitudes) ** 2
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
                q = self.operator(i).entries
                total += q.conj().T @ q
            return float(np.max(np.abs(total - np.eye(n))))
        a, b = self.coeffs.a, self.coeffs.b
        return abs(n * a * a + (2.0 * a * b + b * b) - 1.0)


def measurement_family(n: int, nu: float) -> MeasurementFamily:
    """Build the complete N-operator family at read strength nu."""
    check_dim(n)
    return MeasurementFamily(AttackCoefficients.from_nu(n, nu))


@dataclass(frozen=True, eq=False)
class AttackOutcome:
    """Result of one attack round."""

    decoded: int | None
    post_state: StateVector
    acted: bool


def run_attack(
    sealed: SealedState, family: MeasurementFamily, rng: np.random.Generator
) -> AttackOutcome:
    """One round of the measurement-family attack (Lueders update)."""
    if sealed.state.dim != family.dim:
        raise UsageError(
            f"dimension mismatch: sealed {sealed.state.dim}, family {family.dim}"
        )
    probs = family.outcome_probabilities(sealed.state)
    outcome = int(_sample_index(probs, rng.random()))
    _, post = family.apply(outcome, sealed.state)
    assert post is not None  # sampled outcomes have positive probability
    return AttackOutcome(decoded=outcome, post_state=post, acted=True)


def coin_toss_attack(
    sealed: SealedState, read_probability: float, rng: np.random.Generator
) -> AttackOutcome:
    """One round of the coin-toss analog.

    With probability q, measure honestly in the computational basis and
    report the outcome; otherwise do nothing and report a uniform guess.
    Per round, the generator is consumed in a fixed order: coin, then
    either the honest-outcome draw or the guess draw.
    """
    q = check_unit_interval("read probability", read_probability)
    n = sealed.state.dim
    if rng.random() < q:
        weights = np.abs(sealed.state.amplitudes) ** 2
        outcome = int(_sample_index(weights, rng.random()))
        return AttackOutcome(
            decoded=outcome,
            post_state=StateVector.basis(n, outcome),
            acted=True,
        )
    guess = min(int(rng.random() * n), n - 1)
    return AttackOutcome(decoded=guess, post_state=sealed.state, acted=False)


def coin_toss_probabilities(amplitude_row, read_probability: float) -> np.ndarray:
    """Analytic decode distribution of the coin-toss strategy.

    Summing the two branches: q * |c_i|^2 from the honest measurement
    plus (1-q)/N from the uniform idle guess.
    """
    q = check_unit_interval("read probability", read_probability)
    row = np.asarray(amplitude_row, dtype=complex)
    weights = np.abs(row) ** 2
    return q * weights + (1.0 - q) / row.shape[0]


def coin_toss_escape_probability(amplitude_row, read_probability: float) -> float:
    """Analytic verifier pass rate for the coin-toss strategy.

    The idle branch returns the state untouched (fidelity 1); the honest
    branch collapses to |i> with probability |c_i|^2 and then passes
    with fidelity |c_i|^2, giving (1-q) + q * sum |c_i|^4.
    """
    q = check_unit_interval("read probability", read_probability)
    row = np.asarray(amplitude_row, dtype=complex)
    quartic = float(np.sum(np.abs(row) ** 4))
    return (1.0 - q) + q * quartic


def _sample_index(weights: np.ndarray, uniforms):
    """Outcome index for a uniform draw, or an array of draws, by inverse CDF.

    The weights must sum to 1 within 1e-9.
    """
    cumulative = np.cumsum(weights)
    total = cumulative[-1]
    if not math.isfinite(total) or abs(total - 1.0) > 1e-9:
        raise UsageError(f"outcome weights sum to {total}, expected 1")
    index = np.searchsorted(cumulative, uniforms * total, side="right")
    return np.minimum(index, len(weights) - 1)
