"""Command-line front end.

Subcommands: decode-matrix, sweep, mc-validate, claims.  Exit codes:
0 success, 1 claim failure, 2 usage error, 3 resource limit.  All output
is deterministic given the flags (including --seed); CSV uses a dot
decimal separator and LF line endings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .analysis import (
    average_fidelity,
    decode_matrix,
    decode_probabilities,
    tradeoff_sweep,
)
from .attacks import coin_toss_escape_probability, coin_toss_probabilities
from .claims import format_report, run_claims
from .errors import ResourceError, UsageError, ValidationError, check_dim
from .montecarlo import (
    CoinTossStrategy,
    ExperimentConfig,
    ExplicitSealSpec,
    FamilyStrategy,
    chi_square_check,
    run_experiment,
    stats_record,
)
from .seals import OverlapMatrix, ProductSealSpec, load_overlap_matrix, overlap_matrix

DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 42


def _sig(value: float) -> str:
    """12-significant-digit, locale-independent number formatting."""
    return format(float(value), ".12g")


def _add_seal_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bits", help="message bit string for a product seal")
    parser.add_argument(
        "--theta", type=float, help="shared per-qubit angle in radians, in [0, pi/4]"
    )
    parser.add_argument(
        "--thetas", help="comma-separated per-qubit angles in radians"
    )
    parser.add_argument(
        "--lambda-file", dest="lambda_file", help="JSON overlap-matrix file"
    )


def _product_spec_from_args(args) -> ProductSealSpec:
    if args.thetas is not None and args.theta is not None:
        raise UsageError("pass either --theta or --thetas, not both")
    if args.thetas is not None:
        try:
            angles = tuple(float(t) for t in args.thetas.split(","))
        except ValueError as exc:
            raise UsageError(f"could not parse --thetas {args.thetas!r}") from exc
        return ProductSealSpec(args.bits, angles)
    if args.theta is None:
        raise UsageError("--bits requires --theta or --thetas")
    return ProductSealSpec.shared_theta(args.bits, args.theta)


def _seal_from_args(args) -> ProductSealSpec | OverlapMatrix:
    """Resolve the seal flags to exactly one source: bits or a loaded matrix."""
    if (args.bits is None) == (args.lambda_file is None):
        raise UsageError("pass exactly one seal source: --bits or --lambda-file")
    if args.bits is not None:
        return _product_spec_from_args(args)
    om = load_overlap_matrix(args.lambda_file)
    check_dim(om.dim)
    return om


def _overlaps_from_args(args) -> OverlapMatrix:
    """Resolve the seal flags to an overlap matrix."""
    seal = _seal_from_args(args)
    return overlap_matrix(seal) if isinstance(seal, ProductSealSpec) else seal


def _parse_grid(text: str) -> list[float]:
    """Grid syntax: 'a,b,c' literal values or 'start:stop:count' linspace."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid {text!r} must be start:stop:count")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise UsageError(f"could not parse grid {text!r}") from exc
        if count < 2:
            raise UsageError("grid count must be at least 2")
        return [float(v) for v in np.linspace(start, stop, count)]
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"could not parse grid {text!r}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_decode_matrix(args) -> int:
    om = _overlaps_from_args(args)
    dm = decode_matrix(om, args.nu)
    if args.format == "json":
        payload = {
            "dim": dm.dim,
            "nu": dm.nu,
            "probabilities": [[float(p) for p in row] for row in dm.probabilities],
            "row_sums": [float(s) for s in dm.probabilities.sum(axis=1)],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    header = ",".join(f"p{i}" for i in range(dm.dim)) + ",row_sum"
    lines = [header]
    for row in dm.probabilities:
        lines.append(",".join(_sig(p) for p in row) + "," + _sig(row.sum()))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    om = _overlaps_from_args(args)
    points = tradeoff_sweep(om, _parse_grid(args.grid))
    if args.format == "json":
        payload = [
            {
                "nu": p.nu,
                "mi_bits": p.mutual_information,
                "guess_prob": p.guess_probability,
                "escape_prob": p.escape_probability,
                "flat_mass": p.flat_mass,
            }
            for p in points
        ]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    lines = ["nu,mi_bits,guess_prob,escape_prob,flat_mass"]
    for p in points:
        lines.append(
            ",".join(
                _sig(v)
                for v in (
                    p.nu,
                    p.mutual_information,
                    p.guess_probability,
                    p.escape_probability,
                    p.flat_mass,
                )
            )
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_mc_validate(args) -> int:
    if (args.nu is None) == (args.coin_q is None):
        raise UsageError("pass exactly one strategy: --nu or --coin-q")
    seal = _seal_from_args(args)
    if isinstance(seal, OverlapMatrix):
        if not 0 <= args.message < seal.dim:
            raise UsageError(f"--message {args.message} out of range for dim {seal.dim}")
        seal = ExplicitSealSpec(overlaps=seal, message=args.message)

    if args.nu is not None:
        strategy = FamilyStrategy(nu=args.nu)
    else:
        strategy = CoinTossStrategy(q=args.coin_q)

    config = ExperimentConfig(seal=seal, strategy=strategy, trials=args.trials, seed=args.seed)
    sealed_row = config.sealed_state().state.amplitudes

    if isinstance(strategy, FamilyStrategy):
        expected = decode_probabilities(sealed_row, strategy.nu)
        escape = average_fidelity(sealed_row, strategy.nu)
    else:
        expected = coin_toss_probabilities(sealed_row, strategy.q)
        escape = coin_toss_escape_probability(sealed_row, strategy.q)

    stats = run_experiment(config)
    statistic, chi_ok = chi_square_check(stats, expected)
    rate = stats.pass_count / stats.trials
    sigma = math.sqrt(max(escape * (1.0 - escape), 0.0) / stats.trials)
    # the 1e-9 floor keeps the degenerate endpoints (escape exactly 0 or
    # 1, sigma = 0) from failing on representation noise
    escape_ok = abs(rate - escape) <= max(3.0 * sigma, 1e-9)

    record = stats_record(config, stats)
    record["checks"] = {
        "chi_square": {"statistic": statistic, "pass": chi_ok},
        "escape": {
            "analytic": escape,
            "empirical": rate,
            "three_sigma": 3.0 * sigma,
            "pass": escape_ok,
        },
    }
    _emit(json.dumps(record, indent=2) + "\n", args.out)
    return 0 if (chi_ok and escape_ok) else 1


def _cmd_claims(args) -> int:
    results = run_claims(seed=args.seed, trials=args.trials)
    _emit(format_report(results, args.seed, args.trials), args.out)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sealsim",
        description="Exact and Monte Carlo analysis of read-attacks on quantum string seals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dm = sub.add_parser("decode-matrix", help="print the decode-probability matrix")
    _add_seal_flags(p_dm)
    p_dm.add_argument("--nu", type=float, required=True, help="read strength in [0, 1]")
    p_dm.add_argument("--format", choices=("csv", "json"), default="csv")
    p_dm.add_argument("--out", help="write output to a file instead of stdout")
    p_dm.set_defaults(func=_cmd_decode_matrix)

    p_sweep = sub.add_parser("sweep", help="information/disturbance tradeoff sweep")
    _add_seal_flags(p_sweep)
    p_sweep.add_argument(
        "--grid",
        default="0:1:21",
        help="nu grid: comma list 'a,b,c' or linspace 'start:stop:count'",
    )
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", help="write output to a file instead of stdout")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_mc = sub.add_parser("mc-validate", help="sample rounds and check the closed forms")
    _add_seal_flags(p_mc)
    p_mc.add_argument("--message", type=int, default=0, help="sealed message for --lambda-file")
    p_mc.add_argument("--nu", type=float, help="measurement-family read strength")
    p_mc.add_argument("--coin-q", dest="coin_q", type=float, help="coin-toss read probability")
    p_mc.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p_mc.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_mc.add_argument("--out", help="write output to a file instead of stdout")
    p_mc.set_defaults(func=_cmd_mc_validate)

    p_claims = sub.add_parser("claims", help="run the built-in claims suite")
    p_claims.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p_claims.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_claims.add_argument("--out", help="write output to a file instead of stdout")
    p_claims.set_defaults(func=_cmd_claims)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("resource error: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
