"""Seeded Monte Carlo of seal -> attack -> verify rounds.

Determinism contract: an experiment draws from one philox4x64
counter-based stream keyed by (base seed, 0), and round r owns exactly
one Philox counter block — the four 64-bit words at stream positions
[4r, 4r+4).  A worker can jump straight to any round's block with
``Philox.advance(r)``, so results are bit-identical for a fixed seed
and trial count no matter how rounds are scheduled, and the generator
name is recorded in the emitted stats so runs are auditable.

The draws are the raw words of the bit generator, whose stream numpy
keeps stable (NEP 19), not the output of a `Generator` method, which it
does not.  `_uniform` turns a word w into the double (w >> 11) * 2**-53,
bit for bit the one `Generator.random` makes of the same word.

Within its block a round consumes draws in a fixed order: measurement
family — outcome, verify; coin toss — coin, outcome-or-guess, verify.
Unused slots are discarded and never converted.  `run_experiment` walks
the draw table block by block: one bit generator yields consecutive
blocks of at most CHUNK_ROUNDS rounds, each block is vectorized and its
histogram and pass count are added to the totals, so memory is
O(CHUNK_ROUNDS) for any trial count and the counts do not depend on the
block size.

The reference this contract is checked against lives in the test
suite, not here: `tests/oracles.py::replay_experiment` walks the whole
table one round at a time through a per-round attack and verifier, and
`tests/oracles.py::round_block` reaches round r's block by jumping the
counter, both drawing through `Generator.random`; the tests assert that
both agree with `run_experiment` and `draw_chunks`.  (The bulk path's
pass probabilities are closed forms; they may differ from the replayed
fidelities by rounding, so a draw within an ulp of a threshold could
split the two.)

Sampler contract: an outcome draw u in [0, 1) selects, by inverse CDF,
`attacks._sample_index(cumulative, u)`: the first outcome whose running
weight sum exceeds u times the total, or the last outcome if none does.
`run_experiment` builds an `attacks._GuideTable` once per run and looks
each draw up in it, searching only the draws that land in a bin holding
a step of the CDF; it selects that same outcome for every draw, so the
counts do not depend on the table.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Union

import numpy as np

from .attacks import MeasurementFamily, _GuideTable, _cumulative, measurement_family
from .errors import UsageError, ValidationError, check_dim, check_unit_interval, unit_norm_weights
from .seals import OverlapMatrix, ProductSealSpec, product_seal

GENERATOR_NAME = "philox4x64"
CHI_SQUARE_LEVEL = 0.999
DRAWS_PER_ROUND = 4  # one Philox counter block
CHUNK_ROUNDS = 1 << 12  # rounds per bulk block: 128 KiB of words, which stay in cache


@dataclass(frozen=True, eq=False)
class ExplicitSealSpec:
    """A seal given directly as an overlap matrix plus the sealed message."""

    overlaps: OverlapMatrix
    message: int

    def __post_init__(self) -> None:
        # a negative message would index a row from the end
        if not 0 <= self.message < self.overlaps.dim:
            raise UsageError(f"message {self.message} out of range for dim {self.overlaps.dim}")
        check_dim(self.overlaps.dim)

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

    def sealed_row(self) -> np.ndarray:
        """The read-only, unit-norm amplitude row of the sealed message."""
        if isinstance(self.seal, ProductSealSpec):
            return product_seal(self.seal)
        return self.seal.overlaps.coefficients[self.seal.message]

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


def _philox(seed: int) -> np.random.Philox:
    """The experiment's bit generator: philox4x64 keyed by (seed, 0)."""
    return np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))


def draw_chunks(seed: int, trials: int) -> Iterator[np.ndarray]:
    """The draw table's raw words in consecutive blocks of at most CHUNK_ROUNDS rounds.

    Each block is a uint64 array shaped (rounds, 4), one counter block
    per round; `_uniform` reads a slot as a draw.  One bit generator
    serves every block, so round r keeps stream positions [4r, 4r+4) and
    `_uniform` of the concatenated blocks is the whole draw table.
    """
    bit_generator = _philox(seed)
    for start in range(0, trials, CHUNK_ROUNDS):
        rounds = min(CHUNK_ROUNDS, trials - start)
        yield bit_generator.random_raw(rounds * DRAWS_PER_ROUND).reshape(rounds, DRAWS_PER_ROUND)


def _uniform(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from raw words: the top 53 bits, as Generator.random makes them."""
    return (words >> 11) * 2.0**-53


def _family_tables(
    weights: np.ndarray, family: MeasurementFamily
) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities p_i and per-outcome pass probabilities from |c|^2.

    Outcome i leaves (a c + b c_i |i>) / sqrt(p_i), whose fidelity with
    the sealed state c is (a + b |c_i|^2)^2 / p_i; an outcome that never
    occurs (p_i = 0) never passes.
    """
    a, b = family.a, family.b
    probs = family.outcome_probabilities(weights)
    live = probs > 0.0
    pass_probs = np.zeros(family.dim)
    pass_probs[live] = np.minimum((a + b * weights[live]) ** 2 / probs[live], 1.0)
    return probs, pass_probs


def run_experiment(config: ExperimentConfig) -> EmpiricalStats:
    """Replay trials of seal -> attack -> verify; deterministic per config.

    Bit-identical to tests/oracles.py::replay_experiment, which drives a
    per-round attack and verifier over the same draw table.  The tables
    are built once; the rounds are tallied in draw_chunks blocks.
    """
    weights = unit_norm_weights(config.sealed_row(), "sealed state")
    n = len(weights)

    if isinstance(config.strategy, FamilyStrategy):
        family = measurement_family(n, config.strategy.nu)
        probs, pass_probs = _family_tables(weights, family)
        sample = _GuideTable(_cumulative(probs))

        def tally(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            outcomes = sample(_uniform(words[:, 0]))
            return outcomes, _uniform(words[:, 1]) < pass_probs[outcomes]

    else:
        q = check_unit_interval("read probability", config.strategy.q)
        sample = _GuideTable(_cumulative(weights))

        def tally(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            acted = _uniform(words[:, 0]) < q
            read = _uniform(words[:, 1])
            honest = sample(read)
            guesses = np.minimum((read * n).astype(np.int64), n - 1)
            # collapsed to |i>: passes with fidelity |c_i|^2; untouched: the
            # verifier sees the original back and passes
            passes = _uniform(words[:, 2]) < np.where(acted, weights[honest], 1.0)
            return np.where(acted, honest, guesses), passes

    counts = np.zeros(n, dtype=np.int64)
    pass_count = 0
    for words in draw_chunks(config.seed, config.trials):
        outcomes, passes = tally(words)
        counts += np.bincount(outcomes, minlength=n)
        pass_count += int(np.count_nonzero(passes))
    return EmpiricalStats(decode_counts=counts, pass_count=pass_count, trials=config.trials)


def chi_square_check(stats: EmpiricalStats, expected) -> tuple[float, bool]:
    """Pearson chi-square of the decode histogram against an expected row.

    Passes when the statistic is below the 99.9th percentile of the
    chi-square distribution with K-1 degrees of freedom, K being the
    number of cells with positive expected probability: exactly when its
    upper tail Q(df/2, statistic/2) exceeds 1 - CHI_SQUARE_LEVEL.  A
    nonzero count in a zero-probability cell fails outright; a single
    live cell, or a statistic of 0, passes without a tail probability.
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
    if df == 0 or statistic == 0.0:
        return statistic, True
    if statistic == math.inf:  # overflowed: Q(a, inf) = 0, which _upper_gamma cannot reach
        return statistic, False
    return statistic, _upper_gamma(df / 2, statistic / 2) > 1.0 - CHI_SQUARE_LEVEL


def escape_band_check(stats: EmpiricalStats, escape: float) -> tuple[float, float, bool]:
    """(rate, three_sigma, ok): the pass rate against the analytic escape probability.

    Passes when the rate lies within 3 binomial sigma of `escape`.  The
    1e-9 floor keeps the degenerate endpoints (escape exactly 0 or 1,
    sigma = 0) from failing on representation noise.
    """
    rate = stats.pass_count / stats.trials
    three_sigma = 3.0 * math.sqrt(max(escape * (1.0 - escape), 0.0) / stats.trials)
    return rate, three_sigma, abs(rate - escape) <= max(three_sigma, 1e-9)


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


def stats_record(config: ExperimentConfig, stats: EmpiricalStats) -> dict:
    """JSON-ready record: {config, decode_counts, pass_count, trials}."""
    return {
        "config": config.describe(),
        "decode_counts": [int(c) for c in stats.decode_counts],
        "pass_count": stats.pass_count,
        "trials": stats.trials,
    }
