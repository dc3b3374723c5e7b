"""Command-line front end.

Subcommands: decode-matrix, sweep, mc-validate, claims.  Exit codes:
0 success, 1 claim failure, 2 usage error, 3 resource limit.  All output
is deterministic given the flags (including --seed); CSV uses a dot
decimal separator and LF line endings.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from .analysis import average_fidelity, decode_matrix, decode_probabilities, tradeoff_sweep
from .attacks import coin_toss_escape_probability, coin_toss_probabilities
from .claims import format_report, run_claims
from .errors import ResourceError, UsageError, ValidationError, unit_norm_weights
from .montecarlo import (
    CoinTossStrategy,
    ExperimentConfig,
    ExplicitSealSpec,
    FamilyStrategy,
    chi_square_check,
    escape_band_check,
    run_experiment,
    stats_record,
)
from . import seals
from .seals import OverlapMatrix, ProductSealSpec, overlap_matrix

DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 42
# a step of 1e-5 on [0, 1]; each point of a sweep holds memory until the output is written
MAX_GRID_POINTS = 100_001


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


def _cache_entry(head: bytes, rows: bytes) -> str | None:
    """Path of the cached matrix for an overlap file read as head and rows.

    The directory is $XDG_CACHE_HOME/sealsim, else ~/.cache/sealsim;
    None if neither is an absolute path or a keyed source cannot be read.
    The name is a BLAKE2b digest of the bytes read and of everything
    that makes the values parsed from them: the source files of the
    parser and of this cache, and the Python and numpy versions.  So a
    changed sealsim never reads an entry that another version wrote.
    """
    try:
        # the built-in module, not hashlib, which maps OpenSSL's libcrypto
        from _blake2 import blake2b
    except ImportError:
        from hashlib import blake2b

    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(root):
        return None
    try:
        sources = []
        for name in (seals.__file__, __file__):
            with open(name, "rb") as fh:
                sources.append(fh.read())
    except OSError:
        return None
    key = blake2b(digest_size=32)
    for part in (*sources, sys.version.encode(), np.__version__.encode(), head, rows):
        # each part's length keeps the split between parts out of the collisions
        key.update(len(part).to_bytes(8, "little"))
        key.update(part)
    return os.path.join(root, "sealsim", key.hexdigest() + ".npy")


def _read_entry(entry: str, dim: int) -> OverlapMatrix | None:
    """The cached matrix, or None unless entry is a dim x dim complex128 .npy of unit rows.

    The header is checked before any data is read, so a corrupt entry
    cannot make the loader allocate more than the matrix it expects.
    """
    try:
        with open(entry, "rb") as fh:
            if np.lib.format.read_magic(fh) != (1, 0):
                return None
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
            if shape != (dim, dim) or fortran_order or dtype != np.complex128:
                return None
            # one byte more than the matrix, so that a long entry fails the reshape too
            data = fh.read(16 * dim * dim + 1)
        return OverlapMatrix(np.frombuffer(data, dtype=dtype).reshape(dim, dim))
    except (OSError, ValueError):
        # missing, unreadable, not a .npy file, or values OverlapMatrix refuses
        return None


def _write_entry(entry: str, coefficients: np.ndarray) -> None:
    """Cache coefficients at entry, the one file left in its directory.

    The file is written under a temporary name and renamed, so a reader
    never sees it half written.  If the directory cannot be written the
    matrix is not cached, silently.
    """
    directory, name = os.path.split(entry)
    temp = f"{entry}.{os.getpid()}.tmp"
    try:
        os.makedirs(directory, exist_ok=True)
        with open(temp, "wb") as fh:
            np.lib.format.write_array(fh, coefficients, version=(1, 0), allow_pickle=False)
        os.replace(temp, entry)
        for other in os.listdir(directory):
            if other != name:
                with contextlib.suppress(OSError):
                    os.unlink(os.path.join(directory, other))
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(temp)


def _load_lambda_file(path) -> OverlapMatrix:
    """seals.load_overlap_matrix(path), reusing the matrix last loaded from the same bytes.

    A command in a fresh process would otherwise parse the numbers of a
    file it loaded before again.  "dim" is checked against the cap before
    the cache is looked at, a cached matrix passes OverlapMatrix's checks
    like a parsed one, and a matrix is cached only once they accepted it.
    """
    dim, head, rows = seals._read_overlap_file(path)
    # the key hashes these copies, not the file, which may change meanwhile
    entry = _cache_entry(head, rows)
    if entry is not None and (cached := _read_entry(entry, dim)) is not None:
        return cached
    matrix = seals._parse_overlap_rows(path, dim, rows)
    if entry is not None:
        _write_entry(entry, matrix.coefficients)
    return matrix


def _seal_from_args(args) -> ProductSealSpec | OverlapMatrix:
    """Resolve the seal flags to exactly one source: bits or a loaded matrix."""
    if (args.bits is None) == (args.lambda_file is None):
        raise UsageError("pass exactly one seal source: --bits or --lambda-file")
    if args.bits is not None:
        return _product_spec_from_args(args)
    return _load_lambda_file(args.lambda_file)


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
        if not 2 <= count <= MAX_GRID_POINTS:
            raise UsageError(f"grid count must be between 2 and {MAX_GRID_POINTS}")
        return [float(v) for v in np.linspace(start, stop, count)]
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"could not parse grid {text!r}") from exc


def _emit_parts(parts: Iterable[str], out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.writelines(parts)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(parts)


def _json_float_list(values: list[float], indent: int) -> str:
    """A list of floats as json.dumps(indent=2) lays it out at this depth.

    repr of a float is the text json writes for it.
    """
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(map(repr, values)) + "\n" + " " * indent + "]"


def _decode_matrix_json(probs: np.ndarray, nu: float) -> Iterator[str]:
    """The text of json.dumps(payload, indent=2), one matrix row at a time."""
    yield f'{{\n  "dim": {len(probs)},\n  "nu": {nu!r},\n  "probabilities": [\n    '
    for i, row in enumerate(probs):
        yield ("" if i == 0 else ",\n    ") + _json_float_list(row.tolist(), 4)
    row_sums = _json_float_list(probs.sum(axis=1).tolist(), 2)
    yield f'\n  ],\n  "row_sums": {row_sums}\n}}\n'


def _decode_matrix_csv(probs: np.ndarray) -> Iterator[str]:
    """The CSV lines of the decode matrix, one matrix row at a time.

    "%.12g" % x is the text _sig(x) gives; one format string per matrix
    formats a whole row and its sum in a single operation.
    """
    yield ",".join(f"p{i}" for i in range(len(probs))) + ",row_sum\n"
    line = ",".join(["%.12g"] * (probs.shape[1] + 1)) + "\n"
    for row in probs:
        yield line % (*row.tolist(), row.sum())


def _cmd_decode_matrix(args) -> int:
    probs = decode_matrix(_overlaps_from_args(args), args.nu)
    if args.format == "json":
        stream = _decode_matrix_json(probs, args.nu)
    else:
        stream = _decode_matrix_csv(probs)
    _emit_parts(stream, args.out)
    return 0


def _cmd_sweep(args) -> int:
    points = tradeoff_sweep(_overlaps_from_args(args), _parse_grid(args.grid))
    # one column per TradeoffPoint field, in field order
    columns = ("nu", "mi_bits", "guess_prob", "escape_prob", "flat_mass")
    rows = [dataclasses.astuple(p) for p in points]
    if args.format == "json":
        text = json.dumps([dict(zip(columns, row)) for row in rows], indent=2)
    else:
        text = "\n".join([",".join(columns)] + [",".join(map(_sig, row)) for row in rows])
    _emit_parts((text, "\n"), args.out)
    return 0


def _cmd_mc_validate(args) -> int:
    if (args.nu is None) == (args.coin_q is None):
        raise UsageError("pass exactly one strategy: --nu or --coin-q")
    seal = _seal_from_args(args)
    if isinstance(seal, OverlapMatrix):
        seal = ExplicitSealSpec(overlaps=seal, message=0 if args.message is None else args.message)
    elif args.message is not None:
        raise UsageError("--message applies to --lambda-file; with --bits the bits are the message")

    if args.nu is not None:
        strategy = FamilyStrategy(nu=args.nu)
    else:
        strategy = CoinTossStrategy(q=args.coin_q)

    config = ExperimentConfig(seal=seal, strategy=strategy, trials=args.trials, seed=args.seed)
    sealed_row = config.sealed_row()
    weights = unit_norm_weights(sealed_row, "sealed state")

    if isinstance(strategy, FamilyStrategy):
        expected = decode_probabilities(weights, strategy.nu)
        escape = average_fidelity(weights, strategy.nu)
    else:
        expected = coin_toss_probabilities(weights, strategy.q)
        escape = coin_toss_escape_probability(sealed_row, strategy.q)

    stats = run_experiment(config)
    statistic, chi_ok = chi_square_check(stats, expected)
    rate, three_sigma, escape_ok = escape_band_check(stats, escape)

    record = stats_record(config, stats)
    record["checks"] = {
        "chi_square": {"statistic": statistic, "pass": chi_ok},
        "escape": {
            "analytic": escape,
            "empirical": rate,
            "three_sigma": three_sigma,
            "pass": escape_ok,
        },
    }
    _emit_parts((json.dumps(record, indent=2), "\n"), args.out)
    return 0 if (chi_ok and escape_ok) else 1


def _cmd_claims(args) -> int:
    results = run_claims(seed=args.seed, trials=args.trials)
    _emit_parts((format_report(results, args.seed, args.trials),), args.out)
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
    p_mc.add_argument(
        "--message", type=int, help="sealed message for --lambda-file (default 0)"
    )
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
    # `python -m sealsim.cli` runs the one entry that `python -m sealsim` runs
    from .__main__ import run

    run()
