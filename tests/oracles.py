"""Reference paths the package's array code is checked against.

These are the dense and round-by-round forms that no command runs:
operator application with renormalization, fidelity, the tensor product
of per-qubit states, a family's dense N x N operators and the
completeness sum of the N of them, a single attack round and a single
verifier check, the per-column flat posterior mass and its
marginal-weighted sum, a sweep point's guess and
escape probabilities in 40-digit decimal arithmetic, the Holevo and
square-root-measurement ceilings of a seal's ensemble by a dense
eigendecomposition, the escape probability of the re-prepare read by
the Gram matrix, and `replay_experiment`, which walks the Monte Carlo
draw table one round at a time.  `sealsim.montecarlo`'s determinism
contract is stated against `replay_experiment` and `round_block`; the
tests assert that `run_experiment` and `draw_chunks` reproduce them
exactly.

States are plain complex amplitude rows, operators plain N x N complex
arrays and decode matrices plain N x N probability arrays, as in the
package.  Every state an oracle takes or makes passes
`sealsim.errors.unit_norm_weights`, the package's one norm check.

Everything here is plain and per item on purpose: a loop over rows,
outcomes or rounds is the point of an oracle, not a cost to remove.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import reduce
from typing import Sequence

import numpy as np

from sealsim.attacks import MeasurementFamily
from sealsim.errors import UsageError, check_dim, check_unit_interval, unit_norm_weights
from sealsim.montecarlo import (
    DRAWS_PER_ROUND,
    EmpiricalStats,
    ExperimentConfig,
    FamilyStrategy,
    _philox,
    _sample_index,
)


def unit_row(amplitudes) -> np.ndarray:
    """amplitudes as a read-only complex row, checked to be unit-norm."""
    row = np.array(amplitudes, dtype=complex)
    if row.ndim != 1 or row.size == 0:
        raise UsageError(f"a state is a non-empty 1-d row, got shape {row.shape}")
    unit_norm_weights(row, "state")
    row.setflags(write=False)
    return row


def basis_state(dim: int, index: int) -> np.ndarray:
    """Computational basis state |index> in dimension dim."""
    if not 0 <= index < dim:
        raise UsageError(f"basis index {index} out of range for dim {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return unit_row(amps)


def identity_operator(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def tensor_product(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor product of states, first factor most significant."""
    if not factors:
        raise UsageError("tensor_product requires at least one factor")
    return unit_row(reduce(np.kron, [unit_row(f) for f in factors]))


def apply_and_normalize(op: np.ndarray, state: np.ndarray) -> tuple[float, np.ndarray | None]:
    """Apply a measurement operator and renormalize.

    Returns (outcome probability ||op.state||^2, post-measurement state).
    A zero-norm result has probability 0 and no post state.
    """
    state = unit_row(state)
    if op.shape != (len(state), len(state)):
        raise UsageError(f"dimension mismatch: operator {op.shape}, state {len(state)}")
    return _renormalize(op @ state)


def _renormalize(raw: np.ndarray) -> tuple[float, np.ndarray | None]:
    """(||raw||^2, raw / ||raw||), or (0, None) for a zero vector."""
    prob = float(np.sum(np.abs(raw) ** 2))
    if prob <= 0.0:
        return 0.0, None
    return prob, unit_row(raw / np.sqrt(prob))


def fidelity(s1: np.ndarray, s2: np.ndarray) -> float:
    """|<s1|s2>|^2 — symmetric, phase-invariant, 1 iff equal up to phase."""
    s1, s2 = unit_row(s1), unit_row(s2)
    if len(s1) != len(s2):
        raise UsageError(f"dimension mismatch: {len(s1)} vs {len(s2)}")
    overlap = np.vdot(s1, s2)
    return float(min(abs(overlap) ** 2, 1.0))


def family_operator(family: MeasurementFamily, index: int) -> np.ndarray:
    """Dense N x N complex expansion a*I + b*|index><index| of operator `index`."""
    if not 0 <= index < family.dim:
        raise UsageError(f"operator index {index} out of range")
    check_dim(family.dim)
    entries = family.a * np.eye(family.dim, dtype=complex)
    entries[index, index] += family.b
    return entries


def family_apply(
    family: MeasurementFamily, index: int, state: np.ndarray
) -> tuple[float, np.ndarray | None]:
    """Structured application of operator `index` of the family; (prob, post)."""
    state = unit_row(state)
    if len(state) != family.dim:
        raise UsageError(f"dimension mismatch: family {family.dim}, state {len(state)}")
    if not 0 <= index < family.dim:
        raise UsageError(f"operator index {index} out of range")
    raw = family.a * state
    raw[index] += family.b * state[index]
    return _renormalize(raw)


def dense_completeness_deviation(family: MeasurementFamily) -> float:
    """Max-entry deviation from the identity of sum_i Q_i^dag Q_i, summed densely."""
    n = family.dim
    total = np.zeros((n, n), dtype=complex)
    for i in range(n):
        q = family_operator(family, i)
        total += q.conj().T @ q
    return float(np.max(np.abs(total - np.eye(n))))


@dataclass(frozen=True, eq=False)
class AttackOutcome:
    """Result of one attack round."""

    decoded: int | None
    post_state: np.ndarray
    acted: bool


def run_attack(
    sealed: np.ndarray, family: MeasurementFamily, rng: np.random.Generator
) -> AttackOutcome:
    """One round of the measurement-family attack (Lueders update) on a sealed row."""
    weights = unit_norm_weights(sealed, "sealed state")
    if len(sealed) != family.dim:
        raise UsageError(f"dimension mismatch: sealed {len(sealed)}, family {family.dim}")
    probs = family.outcome_probabilities(weights)
    outcome = int(_sample_index(np.cumsum(probs), rng.random()))
    _, post = family_apply(family, outcome, sealed)
    assert post is not None  # sampled outcomes have positive probability
    return AttackOutcome(decoded=outcome, post_state=post, acted=True)


def coin_toss_attack(
    sealed: np.ndarray, read_probability: float, rng: np.random.Generator
) -> AttackOutcome:
    """One round of the coin-toss analog on a sealed row.

    With probability q, measure honestly in the computational basis and
    report the outcome; otherwise do nothing and report a uniform guess.
    Per round, the generator is consumed in a fixed order: coin, then
    either the honest-outcome draw or the guess draw.
    """
    q = check_unit_interval("read probability", read_probability)
    weights = unit_norm_weights(sealed, "sealed state")
    n = len(sealed)
    if rng.random() < q:
        outcome = int(_sample_index(np.cumsum(weights), rng.random()))
        return AttackOutcome(decoded=outcome, post_state=basis_state(n, outcome), acted=True)
    guess = min(int(rng.random() * n), n - 1)
    return AttackOutcome(decoded=guess, post_state=sealed, acted=False)


def verify_seal(original: np.ndarray, returned: np.ndarray, rng: np.random.Generator) -> bool:
    """Projective check onto the original sealed row.

    Passes with probability fidelity(original, returned); deterministic
    for a fixed generator state.
    """
    if len(original) != len(returned):
        raise UsageError(f"dimension mismatch: sealed {len(original)}, returned {len(returned)}")
    return bool(rng.random() < fidelity(original, returned))


def flat_posterior_mass(probs: np.ndarray, nu: float, decoded: int) -> float:
    """(1-nu) / sum_i' p(i', decoded): one column of flat_posterior_masses."""
    dim = len(probs)
    if not 0 <= decoded < dim:
        raise UsageError(f"decoded value {decoded} out of range for dim {dim}")
    column_sum = float(np.sum(probs[:, decoded]))
    if column_sum <= 0.0:
        raise UsageError(
            f"decoded value {decoded} has zero marginal probability; "
            "flat posterior mass is undefined"
        )
    return (1.0 - nu) / column_sum


def expected_flat_mass(probs: np.ndarray, nu: float) -> float:
    """Flat posterior mass averaged over decoded outcomes, by the column sums.

    Weights each decoded value by its marginal probability; for any seal
    this expectation equals 1 - nu, the total weight of the attack's
    do-nothing component, which is what the sweep reports.
    """
    marginals = probs.mean(axis=0)
    live = marginals > 0.0
    # Same order of additions as flat_posterior_mass per column and then
    # a running total (cumsum): a pairwise sum of the terms, or of the
    # columns down axis 0, moves the 17-digit result by an ulp.
    column_sums = np.ascontiguousarray(probs.T).sum(axis=1)
    terms = marginals[live] * ((1.0 - nu) / column_sums[live])
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def exact_sweep_point(weights: np.ndarray, nu: float) -> tuple[Decimal, Decimal]:
    """(guess_prob, escape_prob) of a sweep point, to 40 significant digits.

    Each float weight and nu is read as the exact binary value it holds,
    so the result is the true value for the matrix the package built:
    guess = (1/N) sum_i ((1-nu)/N + nu W_ii), and escape = (1/N) sum_i'
    min(1, sum_i (a + b W_i'i)^2) with a = sqrt((1-nu)/N) and
    a + b = sqrt((1-nu)/N + nu).
    """
    with localcontext() as context:
        context.prec = 40
        n = len(weights)
        rows = [[Decimal(w) for w in row] for row in weights.tolist()]
        nu = Decimal(nu)
        flat = (1 - nu) / n
        guess = sum((flat + nu * rows[i][i] for i in range(n)), Decimal(0)) / n
        a = flat.sqrt()
        b = (flat + nu).sqrt() - a
        fidelities = (sum(((a + b * w) ** 2 for w in row), Decimal(0)) for row in rows)
        escape = sum((min(f, Decimal(1)) for f in fidelities), Decimal(0)) / n
    return guess, escape


def ensemble_ceilings(coefficients: np.ndarray) -> tuple[float, float]:
    """(chi, P_SRM) of the uniform ensemble of the rows c_i, by a dense eigh.

    With the Gram matrix G = C C^dag, the Holevo quantity chi = S(G/N), in
    bits, bounds the mutual information of any measurement, and the
    square-root measurement guesses right with P_SRM = (1/N) sum_i
    (sqrt G)_ii^2, whose square root bounds the guess probability of any
    measurement (Barnum-Knill).
    """
    n = len(coefficients)
    eigenvalues, vectors = np.linalg.eigh(coefficients @ coefficients.conj().T)
    eigenvalues = np.clip(eigenvalues, 0.0, None)  # rounding can leave tiny negatives
    shares = eigenvalues[eigenvalues > 0.0] / n
    chi = float(-np.sum(shares * np.log2(shares)))
    root = (vectors * np.sqrt(eigenvalues)) @ vectors.conj().T
    p_srm = float(np.sum(np.diag(root).real ** 2)) / n
    return chi, p_srm


def reprepare_escape(coefficients: np.ndarray) -> float:
    """Escape probability of the re-prepare read of the uniform ensemble of the rows c_i.

    The reader measures in the computational basis and sends on the
    sealed state of the outcome, not the basis state: message i gives
    outcome j with probability W_ij = |c_ij|^2, and c_j then passes the
    check on c_i with probability |G_ij|^2, where G = C C^dag.  So the
    escape is (1/N) sum_i sum_j W_ij |G_ij|^2.
    """
    gram = coefficients @ coefficients.conj().T
    weights = np.abs(coefficients) ** 2
    return float(np.sum(weights * np.abs(gram) ** 2)) / len(coefficients)


def draw_table(seed: int, trials: int) -> np.ndarray:
    """Uniform draws for all rounds: row r is round r's counter block."""
    flat = np.random.Generator(_philox(seed)).random(trials * DRAWS_PER_ROUND)
    return flat.reshape(trials, DRAWS_PER_ROUND)


def round_block(seed: int, round_index: int) -> np.ndarray:
    """Round r's draws obtained by jumping the counter, not replaying."""
    bg = _philox(seed)
    bg.advance(round_index)
    return np.random.Generator(bg).random(DRAWS_PER_ROUND)


class ScriptedRng:
    """Replays a fixed block of uniforms through the Generator.random API."""

    def __init__(self, values) -> None:
        self._values = iter(values)

    def random(self) -> float:
        return float(next(self._values))


def replay_experiment(config: ExperimentConfig) -> EmpiricalStats:
    """Round-by-round reference for run_experiment: attack, then verify."""
    sealed = config.sealed_row()
    n = len(sealed)
    draws = draw_table(config.seed, config.trials)

    family: MeasurementFamily | None = None
    if isinstance(config.strategy, FamilyStrategy):
        family = MeasurementFamily(nu=config.strategy.nu, dim=n)

    counts = np.zeros(n, dtype=np.int64)
    passes = 0
    for r in range(config.trials):
        rng = ScriptedRng(draws[r])
        if family is not None:
            outcome = run_attack(sealed, family, rng)
        else:
            outcome = coin_toss_attack(sealed, config.strategy.q, rng)
        counts[outcome.decoded] += 1
        if verify_seal(sealed, outcome.post_state, rng):
            passes += 1
    return EmpiricalStats(decode_counts=counts, pass_count=passes, trials=config.trials)
