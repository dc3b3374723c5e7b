"""Seeded replay of seal -> attack -> verify rounds.

Determinism contract: an experiment draws from one philox4x64
counter-based stream keyed by (base seed, 0), and round r owns exactly
one Philox counter block — the four doubles at stream positions
[4r, 4r+4).  A worker can jump straight to any round's block with
``Philox.advance(r)``, so results are bit-identical for a fixed seed
and trial count no matter how rounds are scheduled, and the generator
name is recorded in the emitted stats so runs are auditable.

Within its block a round consumes draws in a fixed order: measurement
family — outcome, verify; coin toss — coin, outcome-or-guess, verify.
Unused slots are discarded.  The bulk path vectorizes over the draw
table; `replay_experiment` walks the same table one round at a time
through the actual attack and verifier functions, and the test suite
asserts the two are identical.  (The bulk path's pass probabilities are
closed forms; they may differ from the replayed fidelities by rounding,
so a draw within an ulp of a threshold could split the two.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .attacks import (
    MeasurementFamily,
    _sample_index,
    coin_toss_attack,
    measurement_family,
    run_attack,
)
from .errors import UsageError, ValidationError, check_dim, check_unit_interval
from .seals import (
    OverlapMatrix,
    ProductSealSpec,
    SealedState,
    product_seal,
    seal_from_overlaps,
    verify_seal,
)

GENERATOR_NAME = "philox4x64"
CHI_SQUARE_LEVEL = 0.999
DRAWS_PER_ROUND = 4  # one Philox counter block


@dataclass(frozen=True, eq=False)
class ExplicitSealSpec:
    """A seal given directly as an overlap matrix plus the sealed message."""

    overlaps: OverlapMatrix
    message: int

    def describe(self) -> dict:
        return {"type": "general", "dim": self.overlaps.dim, "message": self.message}


@dataclass(frozen=True)
class FamilyStrategy:
    """Attack with the nu-parameterized measurement family."""

    nu: float

    def describe(self) -> dict:
        return {"type": "family", "nu": self.nu}


@dataclass(frozen=True)
class CoinTossStrategy:
    """Classical coin-toss attack with read probability q."""

    q: float

    def describe(self) -> dict:
        return {"type": "coin", "q": self.q}


SealSpec = Union[ProductSealSpec, ExplicitSealSpec]
Strategy = Union[FamilyStrategy, CoinTossStrategy]


def check_trials_and_seed(trials: int, seed: int) -> None:
    """Raise UsageError unless trials >= 1 and seed fits 64 unsigned bits."""
    if trials < 1:
        raise UsageError(f"trials must be at least 1, got {trials}")
    if not 0 <= seed < 2**64:
        raise UsageError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class ExperimentConfig:
    seal: SealSpec
    strategy: Strategy
    trials: int
    seed: int

    def __post_init__(self) -> None:
        check_trials_and_seed(self.trials, self.seed)

    def sealed_state(self) -> SealedState:
        if isinstance(self.seal, ProductSealSpec):
            return product_seal(self.seal)
        check_dim(self.seal.overlaps.dim)
        return seal_from_overlaps(self.seal.overlaps, self.seal.message)

    def describe(self) -> dict:
        seal_desc = (
            {"type": "product", "bits": self.seal.bits, "thetas": list(self.seal.thetas)}
            if isinstance(self.seal, ProductSealSpec)
            else self.seal.describe()
        )
        return {
            "seal": seal_desc,
            "strategy": self.strategy.describe(),
            "trials": self.trials,
            "seed": self.seed,
            "generator": GENERATOR_NAME,
        }


@dataclass(frozen=True, eq=False)
class EmpiricalStats:
    """Decode histogram and verifier pass count over all trials."""

    decode_counts: np.ndarray
    pass_count: int
    trials: int

    def __init__(self, decode_counts, pass_count: int, trials: int) -> None:
        counts = np.array(decode_counts, dtype=np.int64)
        if counts.ndim != 1:
            raise ValidationError("decode_counts must be a 1-d histogram")
        if int(counts.sum()) != trials:
            raise ValidationError(
                f"decode counts sum to {int(counts.sum())}, expected {trials}"
            )
        if not 0 <= pass_count <= trials:
            raise ValidationError(f"pass count {pass_count} outside [0, {trials}]")
        counts.setflags(write=False)
        object.__setattr__(self, "decode_counts", counts)
        object.__setattr__(self, "pass_count", int(pass_count))
        object.__setattr__(self, "trials", int(trials))


def draw_table(seed: int, trials: int) -> np.ndarray:
    """Uniform draws for all rounds: row r is round r's counter block."""
    bg = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    flat = np.random.Generator(bg).random(trials * DRAWS_PER_ROUND)
    return flat.reshape(trials, DRAWS_PER_ROUND)


def round_block(seed: int, round_index: int) -> np.ndarray:
    """Round r's draws obtained by jumping the counter, not replaying."""
    bg = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    bg.advance(round_index)
    return np.random.Generator(bg).random(DRAWS_PER_ROUND)


class _ScriptedRng:
    """Replays a fixed block of uniforms through the Generator.random API."""

    def __init__(self, values) -> None:
        self._values = iter(values)

    def random(self) -> float:
        return float(next(self._values))


def _family_tables(
    sealed: SealedState, family: MeasurementFamily
) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities p_i and per-outcome pass probabilities.

    Outcome i leaves (a c + b c_i |i>) / sqrt(p_i), whose fidelity with
    the sealed state c is (a + b |c_i|^2)^2 / p_i; an outcome that never
    occurs (p_i = 0) never passes.
    """
    a, b = family.coeffs.a, family.coeffs.b
    weights = np.abs(sealed.state.amplitudes) ** 2
    probs = family.outcome_probabilities(sealed.state)
    live = probs > 0.0
    pass_probs = np.zeros(family.dim)
    pass_probs[live] = np.minimum((a + b * weights[live]) ** 2 / probs[live], 1.0)
    return probs, pass_probs


def run_experiment(config: ExperimentConfig) -> EmpiricalStats:
    """Replay trials of seal -> attack -> verify; deterministic per config.

    Bit-identical to replay_experiment, which drives the per-round attack
    and verifier functions over the same draw table.
    """
    sealed = config.sealed_state()
    n = sealed.state.dim
    draws = draw_table(config.seed, config.trials)

    if isinstance(config.strategy, FamilyStrategy):
        family = measurement_family(n, config.strategy.nu)
        probs, pass_probs = _family_tables(sealed, family)
        outcomes = _sample_index(probs, draws[:, 0])
        passes = draws[:, 1] < pass_probs[outcomes]
    else:
        weights = np.abs(sealed.state.amplitudes) ** 2
        acted = draws[:, 0] < check_unit_interval("read probability", config.strategy.q)
        honest = _sample_index(weights, draws[:, 1])
        guesses = np.minimum((draws[:, 1] * n).astype(np.int64), n - 1)
        outcomes = np.where(acted, honest, guesses)
        # collapsed to |i>: passes with fidelity |c_i|^2; untouched: the
        # verifier sees the original back and passes
        passes = draws[:, 2] < np.where(acted, weights[honest], 1.0)

    counts = np.bincount(outcomes, minlength=n).astype(np.int64)
    return EmpiricalStats(
        decode_counts=counts,
        pass_count=int(np.count_nonzero(passes)),
        trials=config.trials,
    )


def replay_experiment(config: ExperimentConfig) -> EmpiricalStats:
    """Round-by-round reference path through the real attack and verifier."""
    sealed = config.sealed_state()
    n = sealed.state.dim
    draws = draw_table(config.seed, config.trials)

    family: MeasurementFamily | None = None
    if isinstance(config.strategy, FamilyStrategy):
        family = measurement_family(n, config.strategy.nu)

    counts = np.zeros(n, dtype=np.int64)
    passes = 0
    for r in range(config.trials):
        rng = _ScriptedRng(draws[r])
        if family is not None:
            outcome = run_attack(sealed, family, rng)
        else:
            outcome = coin_toss_attack(sealed, config.strategy.q, rng)
        counts[outcome.decoded] += 1
        if verify_seal(sealed, outcome.post_state, rng):
            passes += 1
    return EmpiricalStats(decode_counts=counts, pass_count=passes, trials=config.trials)


def chi_square_check(stats: EmpiricalStats, expected) -> tuple[float, bool]:
    """Pearson chi-square of the decode histogram against an expected row.

    Passes when the statistic is below the 99.9th percentile of the
    chi-square distribution with K-1 degrees of freedom, K being the
    number of cells with positive expected probability.  A nonzero count
    in a zero-probability cell fails outright; a single live cell passes.
    """
    expected = np.asarray(expected, dtype=float)
    if expected.shape != stats.decode_counts.shape:
        raise UsageError(
            f"expected row shape {expected.shape} does not match "
            f"histogram shape {stats.decode_counts.shape}"
        )
    if not abs(float(expected.sum()) - 1.0) <= 1e-9:
        raise UsageError(f"expected probabilities sum to {expected.sum()}, not 1")

    counts = stats.decode_counts.astype(float)
    live = expected > 0.0
    if np.any(counts[~live] > 0):
        return float("inf"), False
    expected_counts = expected[live] * stats.trials
    statistic = float(np.sum((counts[live] - expected_counts) ** 2 / expected_counts))
    df = expected_counts.size - 1
    return statistic, df == 0 or statistic < _chi_square_critical(df)


_EPS = 2.0**-53
_TINY = 1e-300  # keeps the Lentz denominators away from zero


def _upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for a > 0, x > 0.

    Power series for P = 1 - Q when x < a + 1, else the continued
    fraction for Q by the modified Lentz method.
    """
    prefactor = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        ap = a
        while abs(term) > abs(total) * _EPS:
            ap += 1.0
            term *= x / ap
            total += term
        return 1.0 - total * prefactor
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = _TINY if abs(d) < _TINY else d
        c = b + an / c
        c = _TINY if abs(c) < _TINY else c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return h * prefactor


def _chi_square_critical(df: int) -> float:
    """CHI_SQUARE_LEVEL quantile of chi-square with df degrees of freedom.

    Solves Q(df/2, x) = 1 - CHI_SQUARE_LEVEL for x by Halley steps from
    the Wilson-Hilferty approximation and returns 2x.  Within 1e-12
    relative of scipy.stats.chi2.ppf (tested for df 1..4095, 8191 and
    65535); scipy is not needed at run time.
    """
    from statistics import NormalDist  # here, off the import path of every command

    a = df / 2
    tail = 1.0 - CHI_SQUARE_LEVEL
    z = NormalDist().inv_cdf(CHI_SQUARE_LEVEL)
    s = 2.0 / (9.0 * df)
    x = a * (1.0 - s + z * math.sqrt(s)) ** 3
    for _ in range(100):
        f = _upper_gamma(a, x) - tail
        # dQ/dx = -x^(a-1) e^-x / Gamma(a); (d2Q/dx2) / (dQ/dx) = (a-1)/x - 1
        slope = -math.exp((a - 1.0) * math.log(x) - x - math.lgamma(a))
        t = f / slope
        step = t / (1.0 - 0.5 * min(1.0, t * ((a - 1.0) / x - 1.0)))
        x -= step
        # cubic convergence: after a step this small, x is exact to the
        # rounding noise of Q itself
        if abs(step) <= 1e-10 * x:
            return 2.0 * x
    raise ArithmeticError(f"chi-square quantile did not converge for df={df}")


def stats_record(config: ExperimentConfig, stats: EmpiricalStats) -> dict:
    """JSON-ready record: {config, decode_counts, pass_count, trials}."""
    return {
        "config": config.describe(),
        "decode_counts": [int(c) for c in stats.decode_counts],
        "pass_count": stats.pass_count,
        "trials": stats.trials,
    }
