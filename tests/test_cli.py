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
from sealsim.cli import _decode_matrix_csv, _load_lambda_file, _sig, main
from sealsim.errors import ResourceError, ValidationError
from sealsim.seals import (
    OverlapMatrix,
    ProductSealSpec,
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
        expected += [",".join(map(_sig, row.tolist())) + "," + _sig(row.sum()) + "\n" for row in probs]
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
    "float-dim": b'{"dim": 2.9, "rows": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}',
    "string-dim": b'{"dim": "2", "rows": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}',
    "bool-dim": b'{"dim": true, "rows": [[[1, 0]]]}',
    "duplicate-key": b'{"dim": 3, "dim": 2, "rows": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}',
    "extra-key": b'{"dim": 2, "rows": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "note": 1}',
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
            lambda entry, coefficients: np.save(entry, coefficients.astype(np.complex64)),
            lambda entry, coefficients: np.save(entry, coefficients.astype(">c16")),
            lambda entry, coefficients: np.save(entry, coefficients.real),
            lambda entry, coefficients: np.save(entry, coefficients.reshape(-1)),
            lambda entry, coefficients: np.save(entry, coefficients[:8, :8]),
            lambda entry, coefficients: np.save(entry, np.asfortranarray(coefficients.T)),
            lambda entry, coefficients: np.save(entry, 2 * coefficients),
            lambda entry, coefficients: np.save(entry, coefficients.astype(object)),
            lambda entry, coefficients: entry.write_bytes(b"not a .npy file"),
            lambda entry, coefficients: entry.write_bytes(b""),
        ],
        ids=[
            "truncated", "trailing-byte", "complex64", "big-endian", "float64", "flat", "wrong-dim",
            "fortran-order", "non-unit", "object", "not-npy", "empty",
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

    @pytest.mark.parametrize(
        "text",
        [
            '{"dim": 2, "rows": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]}',
            '{"dim": 2, "rows": [[[1, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]}',
            '{"dim": 1, "rows": [[[NaN, 0]]]}',
        ],
        ids=["non-unit", "ragged", "nan"],
    )
    def test_a_malformed_file_is_never_cached(self, tmp_path, cache, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        for _ in range(2):
            with pytest.raises(ValidationError):
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
        expected = (arr[..., 0] + 1j * arr[..., 1]).tobytes()
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

    def test_two_files_leave_one_entry(self, cache, json_loads_calls):
        _load_lambda_file(DATA / "random16.json")
        (first,) = entries(cache)
        _load_lambda_file(DATA / "sparse16.json")
        (second,) = entries(cache)
        assert second != first
        before = json_loads_calls[0]
        _load_lambda_file(DATA / "random16.json")
        assert json_loads_calls[0] - before == 2  # evicted, so parsed again
        assert entries(cache) == [first]

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

    @pytest.mark.parametrize("module", [seals, cli], ids=["parser", "cache"])
    def test_a_changed_loader_never_reads_an_older_entry(
        self, tmp_path, cache, json_loads_calls, monkeypatch, module
    ):
        path = DATA / "random16.json"
        _load_lambda_file(path)
        (older,) = entries(cache)
        # the same code under a source one byte longer, as an edited sealsim would have
        changed = tmp_path / "changed.py"
        changed.write_bytes(Path(module.__file__).read_bytes() + b"\n")
        monkeypatch.setattr(module, "__file__", str(changed))
        _load_lambda_file(path)
        assert json_loads_calls[0] == 4  # parsed again
        (newer,) = entries(cache)
        assert newer != older


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
        ],
        ids=["random16-cap-8", "dim-5000-default-cap"],
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
        from sealsim.attacks import MeasurementFamily

        original = MeasurementFamily.from_nu.__func__

        def broken(cls, dim, nu):
            family = original(cls, dim, nu)
            return MeasurementFamily(nu=family.nu, dim=family.dim, a=family.a, b=-family.b)

        monkeypatch.setattr(MeasurementFamily, "from_nu", classmethod(broken))
        code, out, _ = run_cli(capsys, "claims", "--seed", "1", "--trials", "50")
        assert code == 1
        completeness_line = next(
            line for line in out.split("\n") if "povm-completeness" in line
        )
        assert "FAIL" in completeness_line
