"""Built-in fixture suite checking every security claim mechanically.

Each check_* returns its report lines, a list of (ok, text) pairs: every
line carries its own verdict, and informational lines carry True.
run_claims names every claim once, by key and description, and numbers
them in order; _guarded turns each check's lines into a ClaimResult,
which passes only if every line does; the CLI renders the results as a
PASS/FAIL report and the acceptance tests assert them one by one.
Tolerances are pinned here, not in the callers:

- exact algebra (completeness, closed forms, the two seal constructions): 1e-12
- probability floors: 1e-15
- sampled statistics: 3 sigma binomial bands, chi-square at 99.9%
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .analysis import (
    average_fidelity,
    bit_seal_point,
    decode_matrix,
    decode_probabilities,
    escape_probability,
    flat_posterior_masses,
    mutual_information,
)
from .attacks import MeasurementFamily, coin_toss_probabilities
from .errors import ResourceError, max_dim
from .montecarlo import (
    GENERATOR_NAME,
    CoinTossStrategy,
    ExperimentConfig,
    FamilyStrategy,
    check_trials_and_seed,
    validate,
)
from .seals import OverlapMatrix, ProductSealSpec, overlap_matrix, product_seal, product_states

EXACT_ATOL = 1e-12
FLOOR_ATOL = 1e-15

THETA_GRID = (0.0, math.pi / 12, math.pi / 6, math.pi / 4)
THETA_GRID_LABEL = "{0, pi/12, pi/6, pi/4}"
SUITE_MAX_BITS = 6

COMPLETENESS_DIMS = (2, 4, 16, 256, 4096)
NU_GRID_COARSE = (0.0, 0.25, 0.5, 0.75, 1.0)
NU_GRID_FINE = tuple(np.linspace(0.0, 1.0, 11))


@dataclass(frozen=True)
class ClaimResult:
    number: int
    key: str
    description: str
    passed: bool
    details: tuple[str, ...] = ()


Lines = list[tuple[bool, str]]  # what a check_* returns: one (ok, text) per report line


@cache
def seal_suite():
    """Every (bits m, shared theta) overlap matrix on the canonical grid.

    Built once per process: the matrices are read-only.
    """
    return tuple(
        (m, theta, overlap_matrix(ProductSealSpec.shared_theta("0" * m, theta)))
        for m in range(1, SUITE_MAX_BITS + 1)
        for theta in THETA_GRID
    )


@cache
def _experiment(config: ExperimentConfig) -> dict:
    """The checks of montecarlo.validate, once per config: claim 7 reuses claim 5's first run.

    run_claims empties the cache as it starts, so earlier reports' runs
    are not kept and the cache does not grow with the reports a process
    makes.
    """
    return validate(config)["checks"]


def _fmt(value: float) -> str:
    return format(value, ".6e")


def check_povm_completeness() -> Lines:
    """Sum of Q^dag Q equals the identity for every (N, nu) on the grid."""
    worst = 0.0
    worst_at = (0, 0.0)
    for n in COMPLETENESS_DIMS:
        for nu in NU_GRID_COARSE:
            dev = MeasurementFamily(nu=nu, dim=n).completeness_deviation()
            if dev > worst:
                worst, worst_at = dev, (n, nu)
    return [
        (worst <= EXACT_ATOL,
         f"max |sum Q^dag Q - I| = {_fmt(worst)} at N={worst_at[0]}, nu={worst_at[1]}"),
        (True, f"grid: N in {COMPLETENESS_DIMS}, nu in {NU_GRID_COARSE}"),
    ]


def _random_unit_rows(seed: int, n: int, count: int) -> np.ndarray:
    rng = np.random.default_rng([seed, n])
    rows = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _dense_operators(family: MeasurementFamily) -> np.ndarray:
    """ops[i] = a I + b |i><i|, the family's N operators as one (N, N, N) array."""
    n = family.dim
    diag = np.arange(n)
    ops = np.zeros((n, n, n), dtype=complex)
    ops[:, diag, diag] = family.a
    ops[diag, diag, diag] += family.b
    return ops


def _decode_closed_form_gap(seed: int) -> float:
    """Max |closed form - dense ||Q_i psi||^2| over the claim-2 grid."""
    worst = 0.0
    for n in (2, 4, 16):
        rows = _random_unit_rows(seed, n, 100)
        weights = np.abs(rows) ** 2
        for nu in NU_GRID_FINE:
            ops = _dense_operators(MeasurementFamily(nu=nu, dim=n))
            # raw[i, r] = Q_i rows[r]; summing over the contiguous last axis
            # matches ||Q psi||^2 of tests/oracles.py's apply_and_normalize
            # bit for bit
            raw = rows @ ops.transpose(0, 2, 1)
            dense = np.sum(np.abs(raw) ** 2, axis=-1).T
            closed = decode_probabilities(weights, nu)
            worst = max(worst, float(np.max(np.abs(dense - closed))))
    return worst


def check_decode_closed_form(seed: int) -> Lines:
    """Closed-form decode probabilities match dense operator application."""
    worst = _decode_closed_form_gap(seed)
    return [
        (worst <= EXACT_ATOL,
         f"max |closed - dense| = {_fmt(worst)} over 100 rows x N in (2,4,16) x 11 nu"),
    ]


def check_decode_floor() -> Lines:
    """At nu = 1/2 every decode entry is at least 1/(2N)."""
    worst_margin = float("inf")
    for m, theta, om in seal_suite():
        floor = 1.0 / (2.0 * om.dim)
        margin = float(np.min(decode_matrix(om, 0.5))) - floor
        worst_margin = min(worst_margin, margin)
    return [
        (worst_margin >= -FLOOR_ATOL,
         f"min entry - 1/(2N) = {_fmt(worst_margin)} over bits<= {SUITE_MAX_BITS}, "
         f"theta in {THETA_GRID_LABEL}"),
    ]


def check_flat_posterior() -> Lines:
    """At nu = 1/2 half the posterior is flat for every decoded value."""
    worst = 0.0
    for m, theta, om in seal_suite():
        masses = flat_posterior_masses(decode_matrix(om, 0.5), 0.5)
        worst = max(worst, float(np.max(np.abs(masses - 0.5))))
    return [(worst <= EXACT_ATOL, f"max |flat mass - 1/2| = {_fmt(worst)}")]


MC_FIXTURES = (
    ProductSealSpec.shared_theta("0", math.pi / 6),
    ProductSealSpec.shared_theta("10", math.pi / 12),
    ProductSealSpec.shared_theta("0110", math.pi / 4),
)


def check_escape_floor(seed: int, trials: int) -> Lines:
    """At nu = 1/2 the attack escapes detection at least half the time."""
    worst = float("inf")
    for m, theta, om in seal_suite():
        worst = min(worst, escape_probability(om, 0.5))
    lines = [(worst >= 0.5, f"min message-averaged fidelity = {_fmt(worst)} (analytic, >= 0.5)")]

    for spec in MC_FIXTURES:
        band = _experiment(ExperimentConfig(spec, FamilyStrategy(0.5), trials, seed))["escape"]
        lines.append((
            band["pass"],
            f"bits={spec.bits} pass rate {band['empirical']:.6f} vs analytic "
            f"{band['analytic']:.6f} (3 sigma = {_fmt(band['three_sigma'])}): "
            f"{'ok' if band['pass'] else 'OUT OF BAND'}",
        ))
    return lines


def check_fidelity_collapse(seed: int) -> Lines:
    """At nu = 1 the average fidelity is sum |c|^4, vanishing for flat seals."""
    worst = 0.0
    for n in (2, 4, 16):
        rows = _random_unit_rows(seed, n, 50)
        quartic = np.sum(np.abs(rows) ** 4, axis=-1)
        fidelity = average_fidelity(np.abs(rows) ** 2, 1.0)
        worst = max(worst, float(np.max(np.abs(fidelity - quartic))))
    lines = [(worst <= EXACT_ATOL, f"max |fidelity - sum |c|^4| = {_fmt(worst)} on random rows")]

    for m in (1, 4, 10):
        n = 2**m
        spec = ProductSealSpec.shared_theta("0" * m, math.pi / 4)
        value = average_fidelity(np.abs(product_seal(spec)) ** 2, 1.0)
        ok = abs(value - 1.0 / n) <= EXACT_ATOL
        lines.append((
            ok,
            f"uniform seal m={m}: fidelity {value:.10g} vs 1/N = {1.0 / n:.10g}: "
            f"{'ok' if ok else 'MISMATCH'}",
        ))
    return lines


def check_coin_toss_equivalence(seed: int, trials: int) -> Lines:
    """Coin toss at q reproduces the family's decode distribution at nu = q."""
    exact = all(
        np.array_equal(coin_toss_probabilities(weights, q), decode_probabilities(weights, q))
        for weights in (om.weights for m, _, om in seal_suite() if m <= 4)
        for q in (0.25, 0.5, 0.9)
    )
    lines = [(
        exact,
        f"analytic coin-toss row == decode row at q in (0.25, 0.5, 0.9): "
        f"{'exact' if exact else 'MISMATCH'}",
    )]

    # each run is judged against its strategy's own row: the same row here.
    # The family run is claim 5's first, which _experiment runs once
    spec = MC_FIXTURES[0]
    escapes = []
    for label, strategy in (
        ("family nu=1/2", FamilyStrategy(nu=0.5)),
        ("coin q=1/2", CoinTossStrategy(q=0.5)),
    ):
        checks = _experiment(ExperimentConfig(spec, strategy, trials, seed))
        chi = checks["chi_square"]
        escapes.append(checks["escape"]["analytic"])
        lines.append((
            chi["pass"],
            f"{label}: chi-square {chi['statistic']:.4f} vs same expected row: "
            f"{'pass' if chi['pass'] else 'FAIL'} at 99.9%",
        ))
    # the equivalence is distribution-level only; the post-state
    # ensembles differ, so escape probabilities are shown side by side
    # without any equality assertion
    lines.append((
        True,
        f"escape probabilities differ by design: family {escapes[0]:.6f}, coin {escapes[1]:.6f}",
    ))
    return lines


def check_zero_information() -> Lines:
    """Mutual information endpoints: zero without reading, log2 N only if perfect."""
    worst = 0.0
    for m, theta, om in seal_suite():
        worst = max(worst, mutual_information(decode_matrix(om, 0.0)))

    flat = overlap_matrix(ProductSealSpec.shared_theta("000", math.pi / 4))
    worst_flat = max(
        mutual_information(decode_matrix(flat, nu)) for nu in NU_GRID_FINE
    )

    worst_perfect = 0.0
    for n in (2, 8, 16):
        mi = mutual_information(decode_matrix(OverlapMatrix.identity(n), 1.0))
        worst_perfect = max(worst_perfect, abs(mi - math.log2(n)))
    return [
        (worst <= EXACT_ATOL, f"max MI at nu=0 = {_fmt(worst)} bits over the seal suite"),
        (worst_flat <= EXACT_ATOL,
         f"max MI of theta=pi/4 seal over 11 nu = {_fmt(worst_flat)} bits"),
        (worst_perfect <= EXACT_ATOL,
         f"max |MI - log2 N| for projective read of perfect seals = {_fmt(worst_perfect)}"),
    ]


def check_bit_seal() -> Lines:
    """Single-bit seal at nu = 1/2: detection probability beta stays <= 1/2."""
    lines = []
    for theta in THETA_GRID:
        alpha, beta = bit_seal_point(theta, 0.5)
        lines.append((
            beta <= 0.5 + EXACT_ATOL,
            f"theta={theta:.6f}: alpha={alpha:.6f} beta={beta:.6f} "
            f"alpha+beta={alpha + beta:.6f}",
        ))
    lines.append((True, "reference bound alpha + beta <= 9/8 = 1.125 (reported, not asserted)"))
    return lines


def check_cross_construction() -> Lines:
    """Qubit-by-qubit sealing equals the overlap-matrix row, every message."""
    cases = [((theta,) * m, om) for m, theta, om in seal_suite()]
    # a mixed-angle spot check to cover unequal thetas
    mixed = ProductSealSpec("101", (0.0, math.pi / 12, math.pi / 4))
    cases.append((mixed.thetas, overlap_matrix(mixed)))
    worst = 0.0
    for thetas, om in cases:
        states = product_states(thetas, np.arange(om.dim))
        dev = float(np.max(np.abs(states - om.coefficients)))
        worst = max(worst, dev)
    return [(worst <= EXACT_ATOL, f"max amplitude deviation = {_fmt(worst)}")]


def _guarded(number: int, key: str, description: str, check, *args) -> ClaimResult:
    """Run one check into its report entry; a failing line or a crash fails the claim.

    Resource-limit errors still propagate: hitting the dimension cap or
    running out of memory is an environment problem, not a refuted claim.
    """
    try:
        lines = check(*args)
    except (ResourceError, MemoryError):
        raise
    except Exception as exc:  # noqa: BLE001 - deliberate: report and continue
        description = "check raised instead of completing"
        lines = [(False, f"{type(exc).__name__}: {exc}")]
    passed = all(ok for ok, _ in lines)
    return ClaimResult(number, key, description, passed, tuple(text for _, text in lines))


def run_claims(seed: int = 42, trials: int = 100_000) -> list[ClaimResult]:
    """Run every claim check; deterministic for fixed (seed, trials).

    A seed or trials that is not an integer or is out of range, or a
    malformed dimension cap, raise UsageError before any check runs, so
    they are never reported as refuted claims.
    """
    trials, seed = check_trials_and_seed(trials, seed)
    max_dim()
    _experiment.cache_clear()
    # built per call, not at import, so that a check_* replaced on the
    # module (a test double, a timing wrapper) is the one that runs
    claims = (
        ("povm-completeness", "measurement family is complete at every (N, nu)",
         check_povm_completeness),
        ("decode-closed-form",
         "decode row (1-nu)/N + nu|c|^2 matches brute-force ||Q psi||^2",
         check_decode_closed_form, seed),
        ("decode-floor", "every message keeps probability >= 1/(2N) of any decoded value",
         check_decode_floor),
        ("flat-posterior-half", "decoded values carry a 50% chance the message was anything",
         check_flat_posterior),
        ("escape-floor", "nu = 1/2 escapes verification at least half the time",
         check_escape_floor, seed, trials),
        ("fidelity-collapse", "full projective read cannot escape: fidelity falls as 1/N",
         check_fidelity_collapse, seed),
        ("coin-toss-equivalence", "coin toss and family attacks share one decode distribution",
         check_coin_toss_equivalence, seed, trials),
        ("zero-information-endpoints",
         "no reading or flat seals yield zero bits; perfect read yields log2 N",
         check_zero_information),
        ("bit-seal-consistency", "bit-seal detection probability stays within beta <= 1/2",
         check_bit_seal),
        ("cross-construction", "tensor and overlap-row constructions agree for all messages",
         check_cross_construction),
    )
    return [_guarded(number, *claim) for number, claim in enumerate(claims, 1)]


def format_report(results: list[ClaimResult], seed: int, trials: int) -> str:
    """Deterministic plain-text report, one PASS/FAIL line per claim."""
    lines = [
        "seal attack claims report",
        f"seed={seed} trials={trials} generator={GENERATOR_NAME}",
        "",
    ]
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        lines.append(f"[{result.number:2d}] {status}  {result.key}: {result.description}")
        for detail in result.details:
            lines.append(f"      {detail}")
    passed = sum(r.passed for r in results)
    lines.append("")
    verdict = "PASS" if passed == len(results) else "FAIL"
    lines.append(f"result: {verdict} ({passed}/{len(results)} claims hold)")
    return "\n".join(lines) + "\n"
