import json
import math
import subprocess
import sys

import numpy as np
import pytest

from sealsim.cli import main
from sealsim.seals import OverlapMatrix, save_overlap_matrix

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

    def test_both_strategies(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "mc-validate", "--bits", "0", "--theta", "0",
            "--nu", "0.5", "--coin-q", "0.5",
        )
        assert code == 2

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
    "directory": None,
}


class TestMalformedLambdaFile:
    @pytest.mark.parametrize("kind", MALFORMED_LAMBDA_FILES)
    @pytest.mark.parametrize(
        "command", (("sweep",), ("mc-validate", "--nu", "0.5", "--trials", "100")), ids=" ".join
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


IMPORT_PROBE = """
import sys
from sealsim.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert not scipy_modules(), scipy_modules()
main(["sweep", "--bits", "010", "--theta", "0.3"])
main(["decode-matrix", "--bits", "010", "--theta", "0.3", "--nu", "0.5"])
main(["decode-matrix", "--bits", "010", "--theta", "0.3", "--nu", "0.5", "--format", "json"])
assert not scipy_modules(), scipy_modules()
main(["claims", "--trials", "1000"])
main(["mc-validate", "--bits", "01", "--theta", "0.3", "--nu", "0.5", "--trials", "1000"])
main(["mc-validate", "--bits", "01", "--theta", "0.3", "--coin-q", "0.5", "--trials", "1000"])
assert not scipy_modules(), scipy_modules()
"""


def test_commands_without_chi_square_never_import_scipy():
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, timeout=300
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

    def test_claims_under_resource_limit_exits_3(self, capsys, monkeypatch):
        # the claims grid reaches N = 4096; a lower cap is an environment
        # problem (exit 3), not a refuted claim (exit 1)
        monkeypatch.setenv("SEALSIM_MAX_DIM", "8")
        code, _, err = run_cli(capsys, "claims", "--trials", "50")
        assert code == 3 and "resource" in err


class TestClaims:
    def test_out_of_memory_is_a_resource_error_not_a_failed_claim(self, capsys, monkeypatch):
        import sealsim.claims

        def out_of_memory(config):
            raise MemoryError("Unable to allocate 7.45 GiB for an array")

        monkeypatch.setattr(sealsim.claims, "run_experiment", out_of_memory)
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
        from sealsim.attacks import AttackCoefficients

        original = AttackCoefficients.from_nu.__func__

        def broken(cls, dim, nu):
            coeffs = original(cls, dim, nu)
            return AttackCoefficients(nu=coeffs.nu, dim=coeffs.dim, a=coeffs.a, b=-coeffs.b)

        monkeypatch.setattr(AttackCoefficients, "from_nu", classmethod(broken))
        code, out, _ = run_cli(capsys, "claims", "--seed", "1", "--trials", "50")
        assert code == 1
        completeness_line = next(
            line for line in out.split("\n") if "povm-completeness" in line
        )
        assert "FAIL" in completeness_line
