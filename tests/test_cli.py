import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sealsim import cli, seals
from sealsim.analysis import decode_matrix
from sealsim.cli import (
    _decode_matrix_csv,
    _decode_matrix_json,
    _parse_grid,
    main,
)
from sealsim.errors import ResourceError, UsageError
from sealsim.seals import (
    OverlapMatrix,
    ProductSealSpec,
    _load_lambda_file,
    load_overlap_matrix,
    overlap_matrix,
    save_overlap_matrix,
)

DATA = Path(__file__).parent / "data"

PI6 = repr(math.pi / 6)
PI12 = repr(math.pi / 12)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def identity4(tmp_path):
    path = tmp_path / "identity4.json"
    save_overlap_matrix(OverlapMatrix.identity(4), path)
    return str(path)


class TestDecodeMatrix:
    def test_single_bit_pi6(self, capsys):
        code, out, _ = run_cli(
            capsys, "decode-matrix", "--bits", "0", "--theta", PI6, "--nu", "0.5"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "p0,p1,row_sum"
        assert lines[1] == "0.625,0.375,1"
        assert lines[2] == "0.375,0.625,1"

    def test_flat_at_nu_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "decode-matrix", "--bits", "00", "--theta", "0", "--nu", "0"
        )
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            assert line == "0.25,0.25,0.25,0.25,1"

    def test_lambda_file_identity(self, capsys, identity4):
        code, out, _ = run_cli(
            capsys, "decode-matrix", "--lambda-file", identity4, "--nu", "1"
        )
        assert code == 0
        rows = [line.split(",")[:-1] for line in out.strip().split("\n")[1:]]
        assert np.allclose(np.array(rows, dtype=float), np.eye(4))

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "decode-matrix", "--bits", "0", "--theta", PI6, "--nu", "0.5",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 2 and payload["nu"] == 0.5
        assert payload["probabilities"][0] == [0.625, 0.375]

    @pytest.mark.parametrize("nu", ["0", "0.37", "1"])
    @pytest.mark.parametrize(
        "seal",
        [
            ("--lambda-file", str(DATA / "random16.json")),
            ("--lambda-file", str(DATA / "sparse16.json")),
            ("--bits", "1", "--theta", "0.3"),
            ("--bits", "0110101", "--theta", "0.3"),
            ("--bits", "1011001110", "--theta", "0.45"),
        ],
        ids=["random16", "sparse16", "m1", "m7", "m10"],
    )
    def test_json_bytes_equal_json_dumps(self, capsys, seal, nu):
        if seal[0] == "--lambda-file":
            overlaps = load_overlap_matrix(seal[1])
        else:
            overlaps = overlap_matrix(ProductSealSpec.shared_theta(seal[1], float(seal[3])))
        probs = decode_matrix(overlaps, float(nu))
        payload = {
            "dim": overlaps.dim,
            "nu": float(nu),
            "probabilities": [[float(p) for p in row] for row in probs],
            "row_sums": [float(s) for s in probs.sum(axis=1)],
        }
        expected = json.dumps(payload, indent=2) + "\n"
        code, out, _ = run_cli(capsys, "decode-matrix", *seal, "--nu", nu, "--format", "json")
        assert code == 0 and out == expected

    def test_json_out_file_has_the_stdout_bytes(self, capsys, tmp_path):
        argv = ("decode-matrix", "--lambda-file", str(DATA / "random16.json"), "--nu", "0.37",
                "--format", "json")
        _, expected, _ = run_cli(capsys, *argv)
        path = tmp_path / "dm.json"
        code, out, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("kind", ["random", "product", "special-values"])
    def test_json_text_is_json_dumps(self, kind):
        if kind == "random":
            probs = np.random.default_rng(12).random((24, 24))
        elif kind == "product":
            overlaps = overlap_matrix(ProductSealSpec("10110", (0.1, 0.2, 0.3, 0.4, 0.5)))
            probs = decode_matrix(overlaps, 0.37)
        else:
            special = [0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 1e16, 1.0]
            # every rotation, so each value sits in every column
            probs = np.array([np.roll(special, k) for k in range(len(special))])
        payload = {
            "dim": len(probs),
            "nu": 0.37,
            "probabilities": probs.tolist(),
            "row_sums": probs.sum(axis=1).tolist(),
        }
        text = "".join(_decode_matrix_json(probs, 0.37))
        assert text == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("kind", ["uniform", "wide-exponents", "special-values"])
    def test_csv_text_is_the_per_value_sig_text(self, kind):
        rng = np.random.default_rng(12)
        if kind == "uniform":
            probs = rng.random((24, 24))
        elif kind == "wide-exponents":
            probs = rng.choice([-1.0, 1.0], (24, 24)) * 10.0 ** rng.uniform(-323, 308, (24, 24))
        else:
            special = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1 / 3, 1.0,
                       math.inf, math.nan]
            # every rotation, so each value sits in every column and some rows sum to inf or nan
            probs = np.array([np.roll(special, k) for k in range(len(special))])
        expected = [",".join(f"p{i}" for i in range(len(probs))) + ",row_sum\n"]
        expected += [
            ",".join(format(v, ".12g") for v in [*row.tolist(), row.sum()]) + "\n" for row in probs
        ]
        assert list(_decode_matrix_csv(probs)) == expected

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "dm.csv"
        code, out, _ = run_cli(
            capsys,
            "decode-matrix", "--bits", "0", "--theta", "0", "--nu", "1",
            "--out", str(path),
        )
        assert code == 0 and out == ""
        text = path.read_bytes().decode()
        assert "\r" not in text
        assert text.split("\n")[1] == "1,0,1"


class TestSweep:
    def test_csv_header_and_flat_seal(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--bits", "0", "--theta", repr(math.pi / 4),
            "--grid", "0,0.25,0.5,0.75,1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "nu,mi_bits,guess_prob,escape_prob,flat_mass"
        assert len(lines) == 6
        for line in lines[1:]:
            assert line.split(",")[1] == "0"  # flat seal carries no information

    def test_monotone_information_antitone_escape(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--bits", "0110", "--theta", PI12, "--grid", "0:1:21"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        mi = [float(r[1]) for r in rows]
        escape = [float(r[3]) for r in rows]
        assert len(rows) == 21
        assert all(b >= a - 1e-12 for a, b in zip(mi, mi[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(escape, escape[1:]))

    def test_endpoints_match_decode_matrix_values(self, capsys):
        code, sweep_out, _ = run_cli(
            capsys, "sweep", "--bits", "0", "--theta", PI6, "--grid", "0,1"
        )
        assert code == 0
        guess_end = float(sweep_out.strip().split("\n")[-1].split(",")[2])

        code, dm_out, _ = run_cli(
            capsys, "decode-matrix", "--bits", "0", "--theta", PI6, "--nu", "1"
        )
        assert code == 0
        rows = [line.split(",")[:-1] for line in dm_out.strip().split("\n")[1:]]
        trace = sum(float(rows[i][i]) for i in range(2))
        assert guess_end == pytest.approx(trace / 2, abs=1e-12)

    def test_deterministic_output(self, capsys):
        args = ("sweep", "--bits", "01", "--theta", PI12, "--grid", "0:1:11")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--bits", "0", "--theta", "0", "--grid", "0,1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["nu"] == 0.0 and payload[1]["nu"] == 1.0


class TestMcValidate:
    def test_family_run_schema_and_exit(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mc-validate", "--bits", "0", "--theta", PI6, "--nu", "0.5",
            "--trials", "20000", "--seed", "42",
        )
        assert code == 0
        record = json.loads(out)
        assert record["config"]["generator"] == "philox4x64"
        assert record["config"]["seed"] == 42
        assert sum(record["decode_counts"]) == record["trials"] == 20000
        assert 0 <= record["pass_count"] <= record["trials"]
        assert record["checks"]["chi_square"]["pass"] is True
        assert record["checks"]["escape"]["pass"] is True

    def test_coin_strategy(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mc-validate", "--bits", "10", "--theta", PI12, "--coin-q", "0.5",
            "--trials", "20000", "--seed", "1",
        )
        assert code == 0
        record = json.loads(out)
        assert record["config"]["strategy"] == {"type": "coin", "q": 0.5}

    def test_lambda_file_with_message(self, capsys, identity4):
        code, out, _ = run_cli(
            capsys,
            "mc-validate", "--lambda-file", identity4, "--message", "2",
            "--nu", "1", "--trials", "2000", "--seed", "0",
        )
        assert code == 0
        record = json.loads(out)
        assert record["decode_counts"][2] == 2000
        assert record["pass_count"] == 2000

    def test_lambda_file_message_defaults_to_zero(self, capsys, identity4):
        code, out, _ = run_cli(
            capsys,
            "mc-validate", "--lambda-file", identity4,
            "--nu", "1", "--trials", "2000", "--seed", "0",
        )
        assert code == 0
        assert json.loads(out)["decode_counts"][0] == 2000

    @pytest.mark.parametrize("message", ["9", "-4", "0"])
    def test_message_with_bits_is_a_usage_error(self, capsys, message):
        # with --bits the bit string is the message; a --message used to
        # be ignored silently
        code, out, err = run_cli(
            capsys,
            "mc-validate", "--bits", "0110", "--theta", "0.5", "--nu", "0.5",
            "--trials", "2000", "--message", message,
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--message" in err

    @pytest.mark.parametrize("message", ["16", "-1"])
    def test_message_out_of_range_is_a_usage_error(self, capsys, message):
        # -1 would otherwise seal the last row
        code, out, err = run_cli(
            capsys,
            "mc-validate", "--lambda-file", str(DATA / "random16.json"), "--nu", "0.5",
            "--trials", "2000", "--message", message,
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "out of range" in err

    def test_thetas_list(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mc-validate", "--bits", "01", "--thetas", f"0,{PI6}",
            "--nu", "0.5", "--trials", "2000", "--seed", "9",
        )
        assert code == 0


class TestUsageErrors:
    def test_missing_seal_source(self, capsys):
        code, _, err = run_cli(capsys, "decode-matrix", "--nu", "0.5")
        assert code == 2 and "seal source" in err

    def test_both_seal_sources(self, capsys, identity4):
        code, _, err = run_cli(
            capsys,
            "decode-matrix", "--bits", "0", "--theta", "0",
            "--lambda-file", identity4, "--nu", "0.5",
        )
        assert code == 2

    def test_bits_without_theta(self, capsys):
        code, _, err = run_cli(capsys, "decode-matrix", "--bits", "0", "--nu", "0.5")
        assert code == 2 and "--theta" in err

    @pytest.mark.parametrize("angle", [("--theta", "0.3"), ("--thetas", "0.3,0.4")], ids=" ".join)
    @pytest.mark.parametrize(
        "command",
        [("sweep",), ("decode-matrix", "--nu", "0.5"), ("mc-validate", "--nu", "0.5")],
        ids=" ".join,
    )
    def test_an_angle_with_lambda_file_is_a_usage_error(self, capsys, command, angle):
        # a --lambda-file seal has no angles, so the flag would have no effect
        code, out, err = run_cli(
            capsys, *command, "--lambda-file", str(DATA / "random16.json"), *angle
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--theta" in err

    def test_both_strategies(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "mc-validate", "--bits", "0", "--theta", "0",
            "--nu", "0.5", "--coin-q", "0.5",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            pytest.param(flags, message, id=" ".join(flags))
            for flags, message in [
                (("--nu", "7"), "nu must lie in [0, 1], got 7.0"),
                (("--coin-q", "nan"), "read probability must lie in [0, 1], got nan"),
                (("--nu", "7", "--trials", "0"), "nu must lie in [0, 1], got 7.0"),
            ]
        ],
    )
    def test_mc_strategy_out_of_range_is_named_first(self, capsys, flags, message):
        # the strategy is checked when built, before the trial count
        code, out, err = run_cli(capsys, "mc-validate", "--bits", "0", "--theta", "0", *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_nu_out_of_range(self, capsys):
        code, _, _ = run_cli(
            capsys, "decode-matrix", "--bits", "0", "--theta", "0", "--nu", "1.5"
        )
        assert code == 2

    def test_theta_out_of_range(self, capsys):
        code, _, _ = run_cli(
            capsys, "decode-matrix", "--bits", "0", "--theta", "1.0", "--nu", "0.5"
        )
        assert code == 2

    def test_bad_grid(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--bits", "0", "--theta", "0", "--grid", "1,0.5"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            pytest.param(flags, message, id=" ".join(flags))
            for flags, message in [
                (("--theta", "0.3", "--thetas", "0.3"), "pass either --theta or --thetas, not both"),
                (("--thetas", "0.3,x"), "could not parse --thetas '0.3,x'"),
                (("--theta", "0", "--grid", "0:1"), "grid '0:1' must be start:stop:count"),
                (("--theta", "0", "--grid", "a:1:3"), "could not parse grid 'a:1:3'"),
                (("--theta", "0", "--grid", "0.2,x"), "could not parse grid '0.2,x'"),
                (("--theta", "0.3", "--grid", "0.2,0.2"), "nu grid must be strictly increasing"),
            ]
        ],
    )
    def test_malformed_angle_or_grid_is_one_error_line(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "sweep", "--bits", "0", *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("grid", ["0:1:1", "0:1:100002", "0:1:100000000"])
    def test_grid_count_out_of_range(self, capsys, monkeypatch, grid):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linspace ran before the count was checked")

        monkeypatch.setattr(np, "linspace", refuse)
        code, out, err = run_cli(capsys, "sweep", "--bits", "0", "--theta", "0", "--grid", grid)
        assert (code, out) == (2, "")
        assert err == "error: grid count must be between 2 and 100001\n"

    @pytest.mark.parametrize("grid", ["0:inf:3", "inf:1:3"])
    def test_grid_endpoint_out_of_range_is_named(self, capsys, grid):
        code, out, err = run_cli(capsys, "sweep", "--bits", "0", "--theta", "0", "--grid", grid)
        assert (code, out) == (2, "")
        assert err == "error: grid value must lie in [0, 1], got inf\n"

    def test_grid_count_at_the_bound(self):
        grid = _parse_grid("0:1:100001")
        assert len(grid) == 100_001
        assert (grid[0], grid[1], grid[-1]) == (0.0, 1e-05, 1.0)

    @pytest.mark.parametrize(
        "flags",
        [
            ("--seed", "-1", "--trials", "1000"),
            ("--trials", "0"),
            ("--seed", str(2**64)),
        ],
        ids=" ".join,
    )
    def test_claims_out_of_range_flags(self, capsys, flags):
        # a bad seed or trial count is a usage error, not a refuted claim
        code, out, err = run_cli(capsys, "claims", *flags)
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize(
        "command",
        [("claims",), ("mc-validate", "--bits", "01", "--theta", "0.3", "--nu", "0.5")],
        ids=" ".join,
    )
    def test_trials_beyond_int64_exit_2_at_once(self, command):
        # a count the int64 histogram cannot hold would otherwise run until killed
        result = subprocess.run(
            [sys.executable, "-m", "sealsim", *command, "--trials", "99999999999999999999999"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("error: trials must be at most 2**63 - 1")

    def test_missing_lambda_file(self, capsys):
        code, _, _ = run_cli(
            capsys, "decode-matrix", "--lambda-file", "/nonexistent.json", "--nu", "0.5"
        )
        assert code == 2


NON_FINITE_COMMANDS = (
    ("sweep",),
    ("decode-matrix", "--nu", "0.5"),
    ("decode-matrix", "--nu", "0.5", "--format", "json"),
    ("mc-validate", "--nu", "0.5", "--trials", "100"),
)


class TestNonFiniteAmplitudes:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("command", NON_FINITE_COMMANDS, ids=" ".join)
    def test_lambda_file_is_a_usage_error(self, capsys, tmp_path, bad, command):
        # json accepts NaN and Infinity tokens; the norm checks must not
        path = tmp_path / "non_finite.json"
        rows = [[[bad, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        path.write_text(json.dumps({"dim": 2, "rows": rows}))
        code, out, err = run_cli(capsys, *command, "--lambda-file", str(path))
        assert code == 2
        assert err.startswith("error:")
        assert out == ""


MALFORMED_LAMBDA_FILES = {
    "truncated-json": b'{"dim": 2, "rows": [[[1, 0], [0',
    "non-integer-dim": b'{"dim": "abc", "rows": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}',
    "ragged-rows": b'{"dim": 2, "rows": [[[1, 0], [0, 0]], [[1, 0]]]}',
    "non-numeric-amplitude": b'{"dim": 2, "rows": [[["one", 0], [0, 0]], [[0, 0], [1, 0]]]}',
    "not-utf8": b'{"dim": 2, "rows": "\xff\xfe"}',
    "float-dim": b'{"dim": 2.9, "rows": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}',
    "string-dim": b'{"dim": "2", "rows": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}',
    "bool-dim": b'{"dim": true, "rows": [[[1, 0]]]}',
    "duplicate-key": b'{"dim": 3, "dim": 2, "rows": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}',
    "extra-key": b'{"dim": 2, "rows": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "note": 1}',
    "number-outside-its-pair": (
        b'{"dim": 2, "rows": [[[0.6, 0.0], [0.0, 0.8]], [[0.8, 0.0], -0.6[,0.0]]]}'
    ),
    "directory": None,
}


class TestMalformedLambdaFile:
    @pytest.mark.parametrize("kind", MALFORMED_LAMBDA_FILES)
    @pytest.mark.parametrize(
        "command",
        (("sweep",), ("decode-matrix", "--nu", "0.5"), ("mc-validate", "--nu", "0.5", "--trials", "100")),
        ids=" ".join,
    )
    def test_is_a_usage_error(self, capsys, tmp_path, kind, command):
        content = MALFORMED_LAMBDA_FILES[kind]
        path = tmp_path
        if content is not None:
            path = tmp_path / "malformed.json"
            path.write_bytes(content)
        code, out, err = run_cli(capsys, *command, "--lambda-file", str(path))
        assert code == 2
        assert err.startswith("error:")
        assert out == ""


# a head whose "dim" and "rows" are fine, but whose third key nests objects
# deeper than json.loads recurses
DEEP_HEAD = b"".join((
    b'{"dim": 2, "x": ', b'{"a": ' * 100_000, b"1", b"}" * 100_000,
    b', "rows": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}',
))

# files the loader must refuse without a warning or traceback on the way: once,
# the first was accepted, the infinite imaginary part of the second warned in a
# multiply, the third overflowed when its modulus was squared and the fourth
# ended in a RecursionError traceback with exit 1
REFUSED_UNDER_W_ERROR = {
    "number-outside-its-pair": MALFORMED_LAMBDA_FILES["number-outside-its-pair"],
    "infinite-imaginary-part": (
        b'{"dim": 2, "rows": [[[0.6, 0.0], [0.0, 0.8]], [[0.8, 0.0], [-0.6, Infinity]]]}'
    ),
    "too-large-to-square": b'{"dim": 1, "rows": [[[1e200, 0.0]]]}',
    "head-nested-too-deep": DEEP_HEAD,
}


@pytest.mark.parametrize("kind", REFUSED_UNDER_W_ERROR)
@pytest.mark.parametrize(
    "command", (("sweep",), ("mc-validate", "--nu", "0.5", "--trials", "100")), ids=" ".join
)
def test_a_refused_file_exits_2_without_a_traceback_under_w_error(tmp_path, kind, command):
    path = tmp_path / "malformed.json"
    path.write_bytes(REFUSED_UNDER_W_ERROR[kind])
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "sealsim", *command, "--lambda-file", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache-home")},
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


class TestOneByOneFile:
    """N = 1, which the loader accepts: the read learns nothing and disturbs nothing."""

    @pytest.fixture
    def one(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_bytes(b'{"dim": 1, "rows": [[[1.0, 0.0]]]}')
        return str(path)

    def test_sweep_prints_zero_information_and_full_guess_and_escape(self, capsys, one):
        code, out, err = run_cli(capsys, "sweep", "--lambda-file", one, "--grid", "0,0.5,1")
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "nu,mi_bits,guess_prob,escape_prob,flat_mass",
            "0,0,1,1,1",
            "0.5,0,1,1,0.5",
            "1,0,1,1,0",
        ]

    @pytest.mark.parametrize("strategy", (("--nu", "0.5"), ("--coin-q", "0.5")), ids=" ".join)
    def test_mc_validate_passes_every_trial(self, capsys, one, strategy):
        code, out, err = run_cli(
            capsys, "mc-validate", "--lambda-file", one, *strategy, "--trials", "1000"
        )
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert (record["decode_counts"], record["pass_count"]) == ([1000], 1000)
        assert record["checks"]["chi_square"]["pass"] and record["checks"]["escape"]["pass"]


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty cache directory for this test alone."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache-home"))
    return tmp_path / "cache-home" / "sealsim"


@pytest.fixture
def json_loads_calls(monkeypatch):
    """The number of json.loads calls made so far, as a one-item list."""
    calls = [0]
    real = json.loads

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    return calls


def entries(cache: Path) -> list[Path]:
    return sorted(cache.iterdir()) if cache.exists() else []


def write_npy(entry: Path, coefficients: np.ndarray) -> None:
    """The .npy container that entries were written in before they were the bare bytes."""
    with entry.open("wb") as fh:
        np.lib.format.write_array(fh, coefficients, version=(1, 0), allow_pickle=False)


BLAKE2_RUN = """
import runpy, sys
if sys.argv.pop(1) == "hidden":
    sys.modules["_blake2"] = None  # any import of _blake2 now raises ImportError
runpy.run_module("sealsim", run_name="__main__", alter_sys=True)
"""


class TestLambdaFileCache:
    @pytest.mark.parametrize("name", ("random16.json", "sparse16.json", "random64.json", "product"))
    def test_a_hit_equals_a_miss_bit_for_bit(self, tmp_path, cache, json_loads_calls, name):
        path = DATA / name
        if name == "product":
            path = tmp_path / "product.json"
            spec = ProductSealSpec("01101", (0.0, 0.1, 0.3, 0.5, math.pi / 4))
            save_overlap_matrix(overlap_matrix(spec), path)
        miss = _load_lambda_file(path).coefficients
        assert json_loads_calls[0] == 2 and len(entries(cache)) == 1  # the head, then the rows
        (entry,) = entries(cache)
        assert entry.read_bytes() == miss.tobytes()  # the native bytes alone, 16 N^2 of them
        hit = _load_lambda_file(path).coefficients
        assert json_loads_calls[0] == 3  # the head alone
        assert hit.tobytes() == miss.tobytes() == load_overlap_matrix(path).coefficients.tobytes()
        assert hit.dtype == miss.dtype and hit.shape == miss.shape
        assert not hit.flags.writeable

    def test_the_library_loader_caches_nothing(self, cache, json_loads_calls):
        for _ in range(2):
            load_overlap_matrix(DATA / "random16.json")
        assert json_loads_calls[0] == 4  # parsed both times
        assert not cache.parent.exists()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda entry, coefficients: entry.write_bytes(entry.read_bytes()[:-1]),
            lambda entry, coefficients: entry.write_bytes(entry.read_bytes() + b"\0"),
            lambda entry, coefficients: entry.write_bytes(b""),
            lambda entry, coefficients: entry.write_bytes(coefficients[:8, :8].tobytes()),
            lambda entry, coefficients: entry.write_bytes((2 * coefficients).tobytes()),
            lambda entry, coefficients: entry.write_bytes(
                np.where(np.arange(coefficients.size) == 5, np.nan, coefficients.ravel()).tobytes()
            ),
            lambda entry, coefficients: entry.write_bytes(coefficients.byteswap().tobytes()),
            write_npy,
        ],
        ids=[
            "one-byte-short", "one-byte-long", "empty", "wrong-dim", "doubled", "nan",
            "byte-swapped", "npy-container",
        ],
    )
    def test_a_bad_entry_is_a_miss_and_is_replaced(self, cache, json_loads_calls, corrupt):
        path = DATA / "random16.json"
        expected = _load_lambda_file(path).coefficients
        (entry,) = entries(cache)
        good = entry.read_bytes()
        corrupt(entry, expected)
        assert entries(cache) == [entry] and entry.read_bytes() != good
        before = json_loads_calls[0]
        assert _load_lambda_file(path).coefficients.tobytes() == expected.tobytes()
        assert json_loads_calls[0] - before == 2  # parsed again
        assert entries(cache) == [entry] and entry.read_bytes() == good

    def test_a_cache_of_the_other_byte_order_is_never_read(
        self, cache, json_loads_calls, monkeypatch
    ):
        path = DATA / "random16.json"
        _load_lambda_file(path)
        monkeypatch.setattr(sys, "byteorder", {"little": "big", "big": "little"}[sys.byteorder])
        _load_lambda_file(path)
        assert json_loads_calls[0] == 4  # parsed again
        assert len(entries(cache)) == 2

    def test_an_entry_of_the_older_format_is_removed_by_the_next_write(self, cache):
        cache.mkdir(parents=True)
        older = cache / ("0" * 64 + ".npy")
        np.save(older, np.eye(16, dtype=complex))
        _load_lambda_file(DATA / "random16.json")
        (entry,) = entries(cache)
        assert entry != older and entry.suffix == ".raw"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"dim": 2, "rows": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]}', "not unit-norm"),
            (
                '{"dim": 2, "rows": [[[1, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]}',
                "malformed overlap file",
            ),
            ('{"dim": 1, "rows": [[[NaN, 0]]]}', "not unit-norm"),
        ],
        ids=["non-unit", "ragged", "nan"],
    )
    def test_a_malformed_file_is_never_cached(self, tmp_path, cache, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        for _ in range(2):
            with pytest.raises(UsageError, match=message):
                _load_lambda_file(path)
            assert entries(cache) == []

    def test_the_cap_is_checked_before_a_hit(self, cache, monkeypatch):
        _load_lambda_file(DATA / "random16.json")
        assert len(entries(cache)) == 1
        monkeypatch.setenv("SEALSIM_MAX_DIM", "8")
        with pytest.raises(ResourceError):
            _load_lambda_file(DATA / "random16.json")

    @pytest.mark.parametrize("kind", ["not-a-directory", "read-only"])
    def test_an_unwritable_cache_is_no_cache(self, tmp_path, monkeypatch, capsys, kind):
        if kind == "read-only" and os.geteuid() == 0:
            pytest.skip("root may write to a read-only directory")
        home = tmp_path / "cache-home"
        if kind == "not-a-directory":
            home.write_text("")
        else:
            (home / "sealsim").mkdir(parents=True)
            (home / "sealsim").chmod(0o555)
        monkeypatch.setenv("XDG_CACHE_HOME", str(home))
        path = DATA / "random16.json"
        arr = np.asarray(json.loads(path.read_text(encoding="utf-8"))["rows"], dtype=float)
        expected = arr.view(np.complex128)[..., 0].tobytes()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for _ in range(2):
                    assert _load_lambda_file(path).coefficients.tobytes() == expected
            left = sorted(home.rglob("*")) if home.is_dir() else []
        finally:
            if kind == "read-only":
                (home / "sealsim").chmod(0o755)
        assert caught == []
        assert capsys.readouterr() == ("", "")
        assert left == ([home / "sealsim"] if kind == "read-only" else [])  # nothing cached

    def test_a_missing_builtin_blake2_is_no_cache(self, tmp_path):
        # hashlib takes BLAKE2 from the same module, so no key can be made without it
        command = ("sweep", "--lambda-file", str(DATA / "random16.json"))
        runs = {
            hidden: subprocess.run(
                [sys.executable, "-c", BLAKE2_RUN, hidden, *command],
                capture_output=True,
                env={**os.environ, "XDG_CACHE_HOME": str(tmp_path / hidden)},
                timeout=120,
            )
            for hidden in ("hidden", "present")
        }
        assert (runs["hidden"].returncode, runs["hidden"].stderr) == (0, b"")
        assert runs["hidden"].stdout == runs["present"].stdout
        assert not (tmp_path / "hidden").exists()
        assert len(entries(tmp_path / "present" / "sealsim")) == 1

    def test_two_files_that_alternate_are_parsed_once_each(self, cache, json_loads_calls):
        for name in ("random16.json", "sparse16.json") * 2:
            _load_lambda_file(DATA / name)
        assert json_loads_calls[0] == 2 * 2 + 2  # two misses, then two hits that read the head
        assert len(entries(cache)) == 2

    def test_a_third_file_evicts_the_oldest_entry(self, cache, json_loads_calls):
        _load_lambda_file(DATA / "random16.json")
        (oldest,) = entries(cache)
        # a second older than the next entry, whatever the grain of the file clock
        os.utime(oldest, ns=(oldest.stat().st_mtime_ns - 10**9,) * 2)
        _load_lambda_file(DATA / "sparse16.json")
        (newer,) = set(entries(cache)) - {oldest}
        stale = cache / f"{oldest.name}.123.tmp"  # left by a writer that died
        stale.write_bytes(b"")
        _load_lambda_file(DATA / "random64.json")
        (newest,) = set(entries(cache)) - {newer}
        assert newest != oldest and not stale.exists()
        before = json_loads_calls[0]
        _load_lambda_file(DATA / "sparse16.json")
        assert json_loads_calls[0] - before == 1  # still cached
        _load_lambda_file(DATA / "random16.json")
        assert json_loads_calls[0] - before == 1 + 2  # evicted, so parsed again
        assert oldest in entries(cache) and len(entries(cache)) == 2

    @pytest.mark.parametrize(
        "edit",
        [(b'{"dim": 16,', b'{"dim":16 ,'), (b"]]]}", b"]]] }"), (b"[[[0.1", b"[[[ 0.1")],
        ids=["head", "tail", "rows"],
    )
    def test_the_key_is_the_content_not_the_path(self, tmp_path, cache, json_loads_calls, edit):
        copy = tmp_path / "copy.json"
        copy.write_bytes((DATA / "random16.json").read_bytes())
        _load_lambda_file(DATA / "random16.json")
        _load_lambda_file(copy)
        assert json_loads_calls[0] == 3  # a hit
        text = copy.read_bytes()
        assert text.count(edit[0]) == 1
        copy.write_bytes(text.replace(*edit))
        _load_lambda_file(copy)
        assert json_loads_calls[0] == 5  # a miss

    @pytest.mark.parametrize(
        "module, parsed_again", [(seals, True), (cli, False)], ids=["parser-and-cache", "cli"]
    )
    def test_only_a_changed_loader_misses_an_older_entry(
        self, tmp_path, cache, json_loads_calls, monkeypatch, module, parsed_again
    ):
        # seals holds the parser and the entry format, so its source alone is keyed
        path = DATA / "random16.json"
        _load_lambda_file(path)
        (older,) = entries(cache)
        # the same code under a source one byte longer, as an edited sealsim would have
        changed = tmp_path / "changed.py"
        changed.write_bytes(Path(module.__file__).read_bytes() + b"\n")
        monkeypatch.setattr(module, "__file__", str(changed))
        _load_lambda_file(path)
        assert json_loads_calls[0] == (4 if parsed_again else 3)
        assert len(entries(cache)) == (2 if parsed_again else 1)


IMPORT_PROBE = """
import sys
from sealsim.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert not scipy_modules(), scipy_modules()
assert "hashlib" not in sys.modules
main(["sweep", "--bits", "010", "--theta", "0.3"])
main(["decode-matrix", "--bits", "010", "--theta", "0.3", "--nu", "0.5"])
main(["decode-matrix", "--bits", "010", "--theta", "0.3", "--nu", "0.5", "--format", "json"])
# a miss that writes the overlap-matrix cache, then a hit: the key is hashed
# with the built-in BLAKE2, so neither maps OpenSSL's libcrypto through hashlib
main(["sweep", "--lambda-file", sys.argv[1]])
main(["sweep", "--lambda-file", sys.argv[1]])
assert not scipy_modules(), scipy_modules()
assert "hashlib" not in sys.modules and "_hashlib" not in sys.modules
main(["claims", "--trials", "1000"])
main(["mc-validate", "--bits", "01", "--theta", "0.3", "--nu", "0.5", "--trials", "1000"])
main(["mc-validate", "--bits", "01", "--theta", "0.3", "--coin-q", "0.5", "--trials", "1000"])
assert not scipy_modules(), scipy_modules()
"""


def test_commands_without_chi_square_never_import_scipy():
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(DATA / "random16.json")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr


SCIPY_BLOCK_RUN = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from sealsim.cli import main
sys.exit(main(sys.argv[2:]))
"""

CHI_SQUARE_COMMANDS = (
    ("claims", "--trials", "1000"),
    ("mc-validate", "--bits", "01", "--theta", "0.3", "--nu", "0.5", "--trials", "1000"),
    ("mc-validate", "--bits", "01", "--theta", "0.3", "--coin-q", "0.5", "--trials", "1000"),
)


@pytest.mark.parametrize("command", CHI_SQUARE_COMMANDS, ids=" ".join)
def test_chi_square_commands_run_without_scipy(command):
    runs = {
        mode: subprocess.run(
            [sys.executable, "-c", SCIPY_BLOCK_RUN, mode, *command],
            capture_output=True,
            text=True,
            timeout=300,
        )
        for mode in ("blocked", "open")
    }
    for result in runs.values():
        assert result.returncode == 0, result.stderr
    assert runs["blocked"].stdout == runs["open"].stdout


class TestLambdaFileSources:
    @pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="needs /dev/stdin")
    def test_piped_file_prints_the_same_bytes(self):
        # a pipe cannot be mapped: the loader reads it in full
        path = DATA / "random16.json"
        runs = [
            subprocess.run(
                [sys.executable, "-m", "sealsim", "sweep", "--lambda-file", source],
                input=path.read_bytes() if source == "/dev/stdin" else b"",
                capture_output=True,
                timeout=120,
            )
            for source in (str(path), "/dev/stdin")
        ]
        assert [r.returncode for r in runs] == [0, 0], runs[1].stderr
        assert runs[0].stdout and runs[1].stdout == runs[0].stdout

    @pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="needs /dev/stdin")
    def test_a_piped_head_above_the_cap_exits_3_before_the_pipe_ends(self):
        # the writer holds the pipe open: the command has only the head to go on
        with subprocess.Popen(
            [sys.executable, "-m", "sealsim", "sweep", "--lambda-file", "/dev/stdin"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "SEALSIM_MAX_DIM": "64"},
        ) as proc:
            try:
                proc.stdin.write(b'{"dim": 100000, "rows": [[[1.0, 0.0], ')
                proc.stdin.flush()
                code = proc.wait(timeout=30)
            finally:
                proc.kill()
            out, err = proc.stdout.read(), proc.stderr.read()
        assert (code, out) == (3, b"")
        assert err == (
            b"resource error: dimension 100000 exceeds the cap of 64; "
            b"set SEALSIM_MAX_DIM to raise it\n"
        )

    @pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="needs /dev/stdin")
    @pytest.mark.parametrize(
        "text, code",
        [
            # the head alone decides, so a malformed tail is never read
            (b'{"dim": 100000, "rows": [[[1.0, 0.0]', 3),
            # "rows" comes first, so the cap waits for the whole stream
            (b'{"rows": [[[1.0, 0.0]]], "dim": 100000}', 3),
            (b'{"dim": 2, "rows": [[[1.0, 0.0]', 2),
        ],
        ids=["dim-first-malformed-tail", "dim-last", "under-the-cap-malformed"],
    )
    def test_a_piped_file_s_cap_is_read_from_its_head_or_at_its_end(self, text, code):
        result = subprocess.run(
            [sys.executable, "-m", "sealsim", "sweep", "--lambda-file", "/dev/stdin"],
            input=text,
            capture_output=True,
            env={**os.environ, "SEALSIM_MAX_DIM": "64"},
            timeout=120,
        )
        assert (result.returncode, result.stdout) == (code, b"")
        assert result.stderr.startswith(b"resource error:" if code == 3 else b"error:")

    @pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="needs /dev/stdin")
    def test_a_piped_head_nested_too_deep_exits_2_without_a_traceback_under_w_error(self):
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "sealsim"]
            + ["sweep", "--lambda-file", "/dev/stdin"],
            input=DEEP_HEAD,
            capture_output=True,
            timeout=60,
        )
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr.startswith(b"error: /dev/stdin: malformed overlap file")
        assert b"Traceback" not in result.stderr

    def test_empty_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_bytes(b"")
        code, out, err = run_cli(capsys, "sweep", "--lambda-file", str(path))
        assert code == 2 and out == ""
        assert "malformed overlap file" in err


class TestResourceLimit:
    def test_oversized_seal_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv("SEALSIM_MAX_DIM", "4")
        code, _, err = run_cli(
            capsys, "decode-matrix", "--bits", "0000", "--theta", "0", "--nu", "0.5"
        )
        assert code == 3 and "resource" in err

    def test_env_override_raises_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("SEALSIM_MAX_DIM", "16")
        code, _, _ = run_cli(
            capsys, "decode-matrix", "--bits", "0000", "--theta", "0", "--nu", "0.5"
        )
        assert code == 0

    @pytest.mark.parametrize(
        "text, cap",
        [
            ((DATA / "random16.json").read_text(encoding="utf-8"), "8"),
            # the rows are malformed too (exit 2 on their own), but the cap comes first
            ('{"dim": 5000, "rows": []}', None),
            ('{"dim": 4097, "rows": []}', None),
        ],
        ids=["random16-cap-8", "dim-5000-default-cap", "dim-4097-default-cap"],
    )
    def test_lambda_file_above_the_cap_exits_3(self, capsys, tmp_path, monkeypatch, text, cap):
        if cap is None:
            monkeypatch.delenv("SEALSIM_MAX_DIM", raising=False)
        else:
            monkeypatch.setenv("SEALSIM_MAX_DIM", cap)
        path = tmp_path / "seal.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--lambda-file", str(path))
        assert code == 3
        assert "resource error" in err
        assert out == ""

    def test_a_lambda_file_at_the_default_cap_passes_it(self, capsys, tmp_path, monkeypatch):
        # dim 4096 is within the cap, so the rows are what is refused
        monkeypatch.delenv("SEALSIM_MAX_DIM", raising=False)
        path = tmp_path / "seal.json"
        path.write_text('{"dim": 4096, "rows": []}', encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--lambda-file", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "resource" not in err

    def test_the_least_cap_of_2_is_accepted(self, capsys, monkeypatch):
        # a one-bit seal fits a cap of 2 and prints what it prints uncapped
        argv = ("sweep", "--bits", "0", "--theta", "0.3")
        monkeypatch.delenv("SEALSIM_MAX_DIM", raising=False)
        uncapped = run_cli(capsys, *argv)
        monkeypatch.setenv("SEALSIM_MAX_DIM", "2")
        assert run_cli(capsys, *argv) == uncapped
        assert uncapped[0] == 0

    @pytest.mark.parametrize("cap", ["8", "1023"])
    def test_claims_under_resource_limit_exits_3(self, capsys, monkeypatch, cap):
        # claim 6 builds a 1024-entry seal row; a lower cap is an environment
        # problem (exit 3), not a refuted claim (exit 1)
        monkeypatch.setenv("SEALSIM_MAX_DIM", cap)
        code, _, err = run_cli(capsys, "claims", "--trials", "50")
        assert code == 3 and "resource" in err

    def test_claims_fit_a_cap_of_1024(self, capsys, monkeypatch):
        # claim 1 reaches N = 4096 with two coefficients, no array
        monkeypatch.delenv("SEALSIM_MAX_DIM", raising=False)
        uncapped = run_cli(capsys, "claims", "--trials", "1000")
        monkeypatch.setenv("SEALSIM_MAX_DIM", "1024")
        assert run_cli(capsys, "claims", "--trials", "1000") == uncapped
        assert uncapped[0] == 0

    @pytest.mark.parametrize("value", ["abc", "1", ""])
    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--bits", "01", "--theta", "0.3"),
            ("sweep", "--lambda-file", str(DATA / "random16.json")),
            ("claims", "--trials", "50"),
        ],
        ids=["sweep", "sweep-lambda-file", "claims"],
    )
    def test_a_malformed_cap_exits_2(self, capsys, monkeypatch, value, argv):
        # a bad setting is bad input, not a resource limit
        monkeypatch.setenv("SEALSIM_MAX_DIM", value)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: SEALSIM_MAX_DIM must be")


# the commands that fit an address space of 400 MiB at these sizes; sweep and
# decode-matrix at m = 12 need more while they build N x N arrays
WITHIN_400_MIB = {
    "claims": ("claims", "--seed", "42"),
    "mc-validate-m12": (
        "mc-validate", "--bits", "011010010110", "--theta", "0.3", "--nu", "0.5",
        "--trials", "1000000",
    ),
    "sweep-m11": ("sweep", "--bits", "01101001011", "--theta", "0.3"),
    "decode-matrix-m11": (
        "decode-matrix", "--bits", "01101001011", "--theta", "0.3", "--nu", "0.5",
    ),
}


def run_with_address_space(command, limit_mib):
    """The command in a child whose address space alone is capped, with one BLAS thread."""
    try:
        import resource
    except ImportError:
        pytest.skip("no resource module")

    def cap():
        if limit_mib is not None:
            resource.setrlimit(resource.RLIMIT_AS, (limit_mib << 20,) * 2)

    threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    try:
        return subprocess.run(
            [sys.executable, "-m", "sealsim", *command],
            capture_output=True,
            timeout=120,
            env={**os.environ, **threads},
            preexec_fn=cap,
        )
    except subprocess.SubprocessError as exc:
        if "preexec_fn" not in str(exc):
            raise
        pytest.skip(f"RLIMIT_AS cannot be set here: {exc}")


def test_commands_fit_400_mib_and_exit_3_below_it():
    for name, command in WITHIN_400_MIB.items():
        limited = run_with_address_space(command, 400)
        unlimited = run_with_address_space(command, None)
        assert (limited.returncode, unlimited.returncode) == (0, 0), (name, limited.stderr)
        assert limited.stdout == unlimited.stdout, name
    starved = run_with_address_space(WITHIN_400_MIB["sweep-m11"], 150)
    assert (starved.returncode, starved.stdout) == (3, b"")
    assert starved.stderr == b"resource error: out of memory\n"


class TestClaims:
    def test_out_of_memory_is_a_resource_error_not_a_failed_claim(self, capsys, monkeypatch):
        import sealsim.montecarlo

        def out_of_memory(config):
            raise MemoryError("Unable to allocate 7.45 GiB for an array")

        # claims 5 and 7 run their experiments through montecarlo.validate
        monkeypatch.setattr(sealsim.montecarlo, "run_experiment", out_of_memory)
        code, out, err = run_cli(capsys, "claims", "--trials", "1000")
        assert code == 3
        assert "resource error" in err
        assert out == ""

    def test_small_run_passes_and_reports(self, capsys):
        code, out, _ = run_cli(capsys, "claims", "--seed", "42", "--trials", "4000")
        assert code == 0
        assert out.count("PASS") >= 10
        assert "FAIL" not in out
        assert "0.0009765625" in out
        assert "result: PASS (10/10 claims hold)" in out

    def test_injected_sign_error_fails_completeness(self, capsys, monkeypatch):
        # negative control: flipping the sign of b must break the
        # completeness claim and turn the exit code to 1
        from sealsim.attacks import MeasurementFamily

        original = MeasurementFamily.__post_init__

        def broken(family):
            original(family)
            object.__setattr__(family, "b", -family.b)

        monkeypatch.setattr(MeasurementFamily, "__post_init__", broken)
        code, out, _ = run_cli(capsys, "claims", "--seed", "1", "--trials", "50")
        assert code == 1
        completeness_line = next(
            line for line in out.split("\n") if "povm-completeness" in line
        )
        assert "FAIL" in completeness_line


ENTRY_FREEZE_PROBE = """
import atexit, gc, runpy, sys

# atexit callbacks run before the interpreter's shutdown collections, which
# skip frozen objects; gc.get_objects() lists the tracked ones not frozen
atexit.register(
    lambda: print(gc.get_freeze_count(), len(gc.get_objects()), file=sys.stderr)
)
runpy.run_module("sealsim", run_name="__main__", alter_sys=True)
"""

IN_PROCESS_PROBE = """
import gc, os
before, environ = gc.get_freeze_count(), dict(os.environ)
import sealsim, sealsim.__main__
from sealsim import cli
assert cli.main(["sweep", "--bits", "01", "--theta", "0.3"]) == 0
assert gc.isenabled()
assert gc.get_freeze_count() == before, (before, gc.get_freeze_count())
assert dict(os.environ) == environ  # only the entry sets the BLAS defaults
"""

ENTRY_PROBE = """
import atexit, json, os, runpy, sys

report, module, setup = sys.argv.pop(1), sys.argv.pop(1), sys.argv.pop(1)
exec(setup)
numpy_import = {}


# records whether the entry's run() is on the stack when numpy is first imported,
# and the __main__ module that is running then
class FirstNumpyImport:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            sys.meta_path.remove(self)
            numpy_import["main"] = sys.modules["__main__"]
            frame = sys._getframe()
            while frame and (frame.f_code.co_name, os.path.basename(frame.f_code.co_filename)) != (
                "run", "__main__.py"
            ):
                frame = frame.f_back
            numpy_import["in_run"] = frame is not None
        return None


def write_report():
    try:
        with open("/proc/self/maps") as fh:
            libcrypto = "libcrypto" in fh.read()
        with open("/proc/self/status") as fh:
            threads = int(next(line for line in fh if line.startswith("Threads:")).split()[1])
    except OSError:
        libcrypto = threads = None
    if "_hashlib" not in sys.modules:
        state = "absent"
    else:
        state = "blocked" if sys.modules["_hashlib"] is None else "loaded"
    with open(report, "w") as fh:
        json.dump(
            {
                "libcrypto": libcrypto,
                "_hashlib": state,
                "threads": threads,
                "numpy_in_run": numpy_import.get("in_run"),
                # defined only if cli.py ran its body as __main__ too
                "main_builds_parser": hasattr(numpy_import.get("main"), "build_parser"),
                "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            },
            fh,
        )


sys.meta_path.insert(0, FirstNumpyImport())
atexit.register(write_report)
runpy.run_module(module, run_name="__main__", alter_sys=True)
"""

IN_PROCESS_HASHLIB_PROBE = """
import sealsim, sealsim.__main__
from sealsim import cli
assert cli.main(["mc-validate", "--bits", "01", "--theta", "0.3", "--nu", "0.5"]) == 0
import _hashlib
"""

MC_COMMAND = ("mc-validate", "--bits", "0110", "--theta", "0.5", "--nu", "0.5")
SMALL_CLAIMS = ("claims", "--trials", "1000")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def unpinned_env(**extra) -> dict:
    """os.environ without the BLAS thread variables, as a plain shell has it, plus extra."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    return {**env, **extra}


def run_entry_probe(tmp_path, command, module="sealsim", setup="", **env):
    """Run command through the entry under ENTRY_PROBE: the result and the report.

    The probe imports nothing of numpy or sealsim before the entry runs,
    and the BLAS thread variables are unset unless env sets them.
    """
    report = tmp_path / "report.json"
    result = subprocess.run(
        [sys.executable, "-c", ENTRY_PROBE, str(report), module, setup, *command],
        capture_output=True,
        text=True,
        env=unpinned_env(**env),
        timeout=300,
    )
    return result, json.loads(report.read_text())


# more output than a pipe holds, so the writer is still writing when the reader goes
BIG_OUTPUT = (
    "decode-matrix", "--lambda-file", str(DATA / "random64.json"), "--nu", "0.5", "--format", "json"
)


class TestEntry:
    """`python -m sealsim`, `python -m sealsim.cli` and the console script: one entry."""

    def test_the_command_exits_with_the_collector_frozen(self):
        result = subprocess.run(
            [sys.executable, "-c", ENTRY_FREEZE_PROBE, "claims", "--trials", "1000"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "result: PASS" in result.stdout
        frozen, unfrozen = map(int, result.stderr.split())
        # frozen after the imports; the objects the command made, frozen as it returned
        assert frozen > 10_000 and unfrozen < 100, (frozen, unfrozen)

    def test_imports_and_in_process_calls_leave_the_collector_alone(self):
        result = subprocess.run(
            [sys.executable, "-c", IN_PROCESS_PROBE], capture_output=True, text=True, timeout=300
        )
        assert result.returncode == 0, result.stderr

    def test_the_console_script_is_the_module_entry(self):
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"sealsim": "sealsim.__main__:run"}

    def test_a_closed_pipe_exits_2(self, tmp_path):
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path)}
        with subprocess.Popen(
            [sys.executable, "-m", "sealsim", *BIG_OUTPUT],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            head = proc.stdout.read(10)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert head == b'{\n  "dim":'
        assert (code, err) == (2, b"error: [Errno 32] Broken pipe\n")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_a_full_device_exits_2(self, tmp_path):
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path)}
        with open("/dev/full", "wb") as full:
            result = subprocess.run(
                [sys.executable, "-m", "sealsim", *BIG_OUTPUT],
                stdout=full,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        assert result.returncode == 2
        (line,) = result.stderr.splitlines()
        assert line.startswith(b"error: [Errno 28] ")

    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
    @pytest.mark.parametrize("module", ["sealsim", "sealsim.cli"])
    @pytest.mark.parametrize("command", [SMALL_CLAIMS, MC_COMMAND], ids=" ".join)
    def test_the_command_never_maps_libcrypto(self, tmp_path, module, command):
        result, report = run_entry_probe(tmp_path, command, module)
        assert (result.returncode, result.stderr) == (0, "")
        # the block precedes numpy on every numpy, also where numpy imports numpy.random
        # (and _hashlib with it) as it loads
        assert report["numpy_in_run"] is True
        assert (report["libcrypto"], report["_hashlib"]) == (False, "blocked")

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
    @pytest.mark.parametrize("module", ["sealsim", "sealsim.cli"])
    @pytest.mark.parametrize("command", [SMALL_CLAIMS, MC_COMMAND], ids=" ".join)
    def test_the_command_runs_on_one_thread(self, tmp_path, module, command):
        result, report = run_entry_probe(tmp_path, command, module)
        assert (result.returncode, result.stderr) == (0, "")
        # numpy, and OpenBLAS's pool with it, starts after run() set the BLAS defaults
        assert report["numpy_in_run"] is True
        assert (report["threads"], report["OPENBLAS_NUM_THREADS"]) == (1, "1")
        # `-m sealsim.cli` hands over before cli.py's body, which runs once, as sealsim.cli
        assert report["main_builds_parser"] is False

    def test_a_blas_thread_count_the_user_set_wins(self, tmp_path):
        result, report = run_entry_probe(tmp_path, MC_COMMAND, OPENBLAS_NUM_THREADS="2")
        assert (result.returncode, result.stderr) == (0, "")
        assert report["OPENBLAS_NUM_THREADS"] == "2"

    @pytest.mark.parametrize("command", [SMALL_CLAIMS, MC_COMMAND], ids=" ".join)
    def test_the_blas_defaults_change_no_output_byte(self, command):
        pinned, unpinned = (
            subprocess.run(
                [sys.executable, "-m", "sealsim", *command], capture_output=True, env=env, timeout=300
            )
            for env in (unpinned_env(**dict.fromkeys(BLAS_THREAD_VARS, "1")), unpinned_env())
        )
        assert (unpinned.returncode, unpinned.stderr) == (0, b"")
        assert (pinned.returncode, pinned.stdout, pinned.stderr) == (
            unpinned.returncode, unpinned.stdout, unpinned.stderr
        )

    def test_a_missing_builtin_hash_leaves_hashlib_alone(self, tmp_path):
        plain = subprocess.run(
            [sys.executable, "-m", "sealsim", *SMALL_CLAIMS],
            capture_output=True,
            text=True,
            timeout=300,
        )
        # hashlib would log an error for md5 if _hashlib were blocked too
        result, report = run_entry_probe(tmp_path, SMALL_CLAIMS, setup='sys.modules["_md5"] = None')
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == plain.stdout
        assert report["_hashlib"] == "loaded"

    def test_an_imported_hashlib_stays_imported(self, tmp_path):
        result, report = run_entry_probe(tmp_path, MC_COMMAND, setup="import _hashlib")
        assert (result.returncode, result.stderr) == (0, "")
        assert report["_hashlib"] == "loaded"

    def test_imports_and_in_process_calls_leave_hashlib_importable(self):
        result = subprocess.run(
            [sys.executable, "-c", IN_PROCESS_HASHLIB_PROBE],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
