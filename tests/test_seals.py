import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import unit_row, verify_seal
from sealsim.errors import ResourceError, UsageError
from sealsim.montecarlo import ExperimentConfig, ExplicitSealSpec, FamilyStrategy, run_experiment
from sealsim.seals import (
    OverlapMatrix,
    ProductSealSpec,
    load_overlap_matrix,
    overlap_matrix,
    product_seal,
    product_states,
    save_overlap_matrix,
)

ATOL = 1e-12
DATA = Path(__file__).parent / "data"
GOLDEN_FILES = ("random16.json", "sparse16.json", "random64.json")
IDENTITY2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
THETA_GRID = (0.0, math.pi / 12, math.pi / 6, math.pi / 4)


def explicit_row(om: OverlapMatrix, message: int) -> np.ndarray:
    """The sealed row of message `message` of an explicit seal."""
    seal = ExplicitSealSpec(overlaps=om, message=message)
    return ExperimentConfig(seal=seal, strategy=FamilyStrategy(0.5), trials=1, seed=0).sealed_row()


def entrywise_overlap(i_bits: str, j_bits: str, thetas) -> float:
    """Brute-force per-entry product: cos on matching bits, sin otherwise."""
    value = 1.0
    for bi, bj, t in zip(i_bits, j_bits, thetas):
        value *= math.cos(t) if bi == bj else math.sin(t)
    return value


class TestOverlapMatrix:
    def test_rows_must_be_unit(self):
        with pytest.raises(UsageError, match="not unit-norm"):
            OverlapMatrix([[1.0, 0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_rows_are_rejected(self, bad):
        with pytest.raises(UsageError, match="not unit-norm"):
            OverlapMatrix([[bad, 0.0], [0.0, 1.0]])

    def test_must_be_square(self):
        with pytest.raises(UsageError, match="must be square"):
            OverlapMatrix(np.eye(2)[:1])

    def test_must_not_be_empty(self):
        with pytest.raises(UsageError, match="at least 1 x 1"):
            OverlapMatrix(np.zeros((0, 0)))
        with pytest.raises(UsageError, match="at least 1 x 1"):
            OverlapMatrix.identity(0)
        assert OverlapMatrix.identity(1).dim == 1

    def test_a_row_norm_may_be_off_by_1e_12(self):
        rows = np.eye(2)
        rows[0, 0] = math.sqrt(1.0 + 0.5e-12)
        OverlapMatrix(rows)
        rows[0, 0] = math.sqrt(1.0 + 1.5e-12)
        with pytest.raises(UsageError, match="not unit-norm"):
            OverlapMatrix(rows)

    def test_identity(self):
        om = OverlapMatrix.identity(4)
        assert om.dim == 4
        assert np.array_equal(om.coefficients, np.eye(4))


class TestProductSealSpec:
    def test_rejects_empty_bits(self):
        with pytest.raises(UsageError, match="bit string must be non-empty"):
            ProductSealSpec("", ())

    def test_rejects_non_binary_bits(self):
        with pytest.raises(UsageError, match="bit string must be binary"):
            ProductSealSpec("012", (0.1, 0.1, 0.1))

    def test_rejects_angle_outside_range(self):
        with pytest.raises(UsageError, match=r"outside \[0, pi/4\]"):
            ProductSealSpec("0", (math.pi / 3,))
        with pytest.raises(UsageError, match=r"outside \[0, pi/4\]"):
            ProductSealSpec("0", (-0.1,))

    def test_rejects_length_mismatch(self):
        with pytest.raises(UsageError, match="need one angle per bit"):
            ProductSealSpec("01", (0.1,))

    def test_message_is_big_endian(self):
        assert ProductSealSpec.shared_theta("10", 0.0).message == 2
        assert ProductSealSpec.shared_theta("011", 0.0).message == 3

    def test_shared_theta_broadcasts(self):
        spec = ProductSealSpec.shared_theta("010", 0.2)
        assert spec.thetas == (0.2, 0.2, 0.2)
        assert spec.dim == 8


class TestOverlapMatrixFromSpec:
    def test_theta_zero_is_identity(self):
        om = overlap_matrix(ProductSealSpec.shared_theta("0", 0.0))
        assert np.allclose(om.coefficients, np.eye(2), atol=ATOL)

    def test_all_pi_over_4_is_flat(self):
        om = overlap_matrix(ProductSealSpec.shared_theta("00", math.pi / 4))
        assert np.allclose(om.coefficients, np.full((4, 4), 0.5), atol=ATOL)

    def test_single_bit_pi_over_6(self):
        om = overlap_matrix(ProductSealSpec.shared_theta("0", math.pi / 6))
        expected = [[math.sqrt(3) / 2, 0.5], [0.5, math.sqrt(3) / 2]]
        assert np.allclose(om.coefficients, expected, atol=ATOL)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("theta", THETA_GRID)
    def test_symmetric_doubly_unit_nonnegative(self, m, theta):
        om = overlap_matrix(ProductSealSpec.shared_theta("0" * m, theta))
        coeffs = om.coefficients
        assert np.max(np.abs(coeffs - coeffs.T)) <= ATOL
        assert np.max(np.abs(np.imag(coeffs))) == 0.0
        assert np.min(np.real(coeffs)) >= 0.0
        row_norms = np.sum(np.abs(coeffs) ** 2, axis=1)
        col_norms = np.sum(np.abs(coeffs) ** 2, axis=0)
        assert np.max(np.abs(row_norms - 1.0)) <= ATOL
        assert np.max(np.abs(col_norms - 1.0)) <= ATOL

    def test_matches_entrywise_product_oracle(self):
        thetas = (0.0, math.pi / 12, math.pi / 4)
        om = overlap_matrix(ProductSealSpec("101", thetas))
        for i in range(8):
            for j in range(8):
                expected = entrywise_overlap(
                    format(i, "03b"), format(j, "03b"), thetas
                )
                assert abs(om.coefficients[i, j] - expected) <= ATOL


class TestProductSeal:
    def test_single_qubit(self):
        spec = ProductSealSpec.shared_theta("0", math.pi / 6)
        expected = [math.cos(math.pi / 6), math.sin(math.pi / 6)]
        assert np.allclose(product_seal(spec), expected, atol=ATOL)
        assert spec.message == 0

    def test_perfect_seal_is_basis_state(self):
        spec = ProductSealSpec.shared_theta("10", 0.0)
        assert np.array_equal(product_seal(spec), [0, 0, 1, 0])
        assert spec.message == 2

    def test_double_flip_amplitude(self):
        # amplitude on |00> when sealing "11" is sin(theta)^2
        sealed = product_seal(ProductSealSpec.shared_theta("11", math.pi / 6))
        assert sealed[0] == pytest.approx(0.25, abs=ATOL)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("theta", THETA_GRID)
    def test_equals_overlap_row_for_all_messages(self, m, theta):
        om = overlap_matrix(ProductSealSpec.shared_theta("0" * m, theta))
        for message in range(2**m):
            bits = format(message, f"0{m}b")
            sealed = product_seal(ProductSealSpec.shared_theta(bits, theta))
            general = explicit_row(om, message)
            dev = np.max(np.abs(sealed - general))
            assert dev <= ATOL

    def test_equals_overlap_row_with_mixed_angles(self):
        thetas = (math.pi / 12, 0.0, math.pi / 4)
        om = overlap_matrix(ProductSealSpec("000", thetas))
        for message in range(8):
            bits = format(message, "03b")
            sealed = product_seal(ProductSealSpec(bits, thetas))
            dev = np.max(np.abs(sealed - om.coefficients[message]))
            assert dev <= ATOL


class TestProductStates:
    def test_one_row_per_message_in_the_given_order(self):
        states = product_states((math.pi / 6, 0.0), [3, 0, 3])
        assert states.shape == (3, 4)
        assert np.array_equal(states[0], states[2])
        sealed = product_seal(ProductSealSpec("00", (math.pi / 6, 0.0)))
        assert np.array_equal(states[1], sealed)

    @pytest.mark.parametrize("theta", [-0.1, math.pi / 3, math.nan])
    def test_rejects_angle_outside_range(self, theta):
        with pytest.raises(UsageError, match=r"outside \[0, pi/4\]"):
            product_states((0.1, theta), [0])

    def test_product_seal_rejects_angle_outside_range(self):
        spec = ProductSealSpec.shared_theta("01", 0.1)
        object.__setattr__(spec, "thetas", (0.1, math.pi / 3))  # bypass the spec's own check
        with pytest.raises(UsageError, match=r"outside \[0, pi/4\]"):
            product_seal(spec)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint64, np.int32])
    def test_any_integer_dtype(self, dtype):
        states = product_states((0.1, 0.2), np.array([2, 1], dtype=dtype))
        assert np.array_equal(states, product_states((0.1, 0.2), [2, 1]))

    @pytest.mark.parametrize("messages", [[4], [-1], [0.0], [[0]]])
    def test_rejects_bad_messages(self, messages):
        with pytest.raises(UsageError):
            product_states((0.1, 0.2), messages)

    def test_rejects_no_angles(self):
        with pytest.raises(UsageError, match="need at least one angle"):
            product_states((), [0])

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setenv("SEALSIM_MAX_DIM", "8")
        with pytest.raises(ResourceError):
            product_states((0.1,) * 4, [0])
        with pytest.raises(ResourceError):
            product_seal(ProductSealSpec.shared_theta("0000", 0.1))


class TestExplicitSealRow:
    def test_identity_row(self):
        sealed = explicit_row(OverlapMatrix.identity(4), 3)
        assert np.array_equal(sealed, [0, 0, 0, 1])

    def test_copies_the_row(self):
        om = OverlapMatrix([[math.sqrt(3) / 2, 0.5], [0.5, math.sqrt(3) / 2]])
        sealed = explicit_row(om, 0)
        assert np.allclose(sealed, [math.sqrt(3) / 2, 0.5], atol=ATOL)

    @pytest.mark.parametrize("message", [2, -1])
    def test_out_of_range_message(self, message):
        # -1 would index the last row
        with pytest.raises(UsageError):
            ExplicitSealSpec(overlaps=OverlapMatrix.identity(2), message=message)

    def test_result_is_normalized(self):
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        sealed = explicit_row(OverlapMatrix(raw), 2)
        assert abs(np.sum(np.abs(sealed) ** 2) - 1.0) <= ATOL

    def test_row_is_read_only(self):
        with pytest.raises(ValueError):
            explicit_row(OverlapMatrix.identity(2), 0)[0] = 0.5

    def test_no_dimension_cap(self, monkeypatch):
        # the matrix already exists and the MC allocates O(N) beside it
        om = OverlapMatrix.identity(16)
        monkeypatch.setenv("SEALSIM_MAX_DIM", "8")
        seal = ExplicitSealSpec(overlaps=om, message=3)
        config = ExperimentConfig(seal=seal, strategy=FamilyStrategy(nu=1.0), trials=100, seed=0)
        stats = run_experiment(config)
        assert stats.decode_counts[3] == stats.pass_count == 100


class TestVerify:
    def test_same_state_always_passes(self):
        sealed = product_seal(ProductSealSpec.shared_theta("01", math.pi / 6))
        rng = np.random.default_rng(0)
        assert all(verify_seal(sealed, sealed, rng) for _ in range(200))

    def test_orthogonal_state_always_fails(self):
        sealed = product_seal(ProductSealSpec.shared_theta("0", 0.0))
        orthogonal = unit_row([0.0, 1.0])
        rng = np.random.default_rng(0)
        assert not any(verify_seal(sealed, orthogonal, rng) for _ in range(200))

    def test_pass_rate_tracks_fidelity(self):
        # fidelity 0.75 between |0> and the pi/6 rotation
        sealed = product_seal(ProductSealSpec.shared_theta("0", 0.0))
        returned = unit_row([math.cos(math.pi / 6), math.sin(math.pi / 6)])
        trials = 100_000
        rng = np.random.default_rng(314159)
        passes = sum(verify_seal(sealed, returned, rng) for _ in range(trials))
        sigma = math.sqrt(0.75 * 0.25 / trials)
        assert abs(passes / trials - 0.75) <= 3 * sigma

    def test_dimension_mismatch(self):
        sealed = product_seal(ProductSealSpec.shared_theta("0", 0.0))
        with pytest.raises(UsageError):
            verify_seal(sealed, unit_row([1, 0, 0, 0]), np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        sealed = product_seal(ProductSealSpec.shared_theta("0", math.pi / 4))
        returned = unit_row([1.0, 0.0])
        first = [verify_seal(sealed, returned, np.random.default_rng(5)) for _ in range(1)]
        second = [verify_seal(sealed, returned, np.random.default_rng(5)) for _ in range(1)]
        assert first == second


class TestOverlapMatrixFiles:
    def test_roundtrip(self, tmp_path):
        om = overlap_matrix(ProductSealSpec.shared_theta("01", math.pi / 6))
        path = tmp_path / "seal.json"
        save_overlap_matrix(om, path)
        loaded = load_overlap_matrix(path)
        assert np.allclose(loaded.coefficients, om.coefficients, atol=ATOL)

    def test_row_norms_validated_on_load(self, tmp_path):
        path = tmp_path / "bad.json"
        rows = [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        path.write_text(json.dumps({"dim": 2, "rows": rows}))
        with pytest.raises(UsageError, match="not unit-norm"):
            load_overlap_matrix(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2}))
        with pytest.raises(UsageError, match="malformed overlap file"):
            load_overlap_matrix(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        rows = [[[1.0, 0.0]], [[1.0, 0.0]]]
        path.write_text(json.dumps({"dim": 2, "rows": rows}))
        with pytest.raises(UsageError, match="malformed overlap file"):
            load_overlap_matrix(path)

    @pytest.mark.parametrize("name", GOLDEN_FILES)
    def test_save_writes_the_file_it_loaded(self, tmp_path, name):
        path = tmp_path / name
        save_overlap_matrix(load_overlap_matrix(DATA / name), path)
        assert path.read_bytes() == (DATA / name).read_bytes()

    @pytest.mark.parametrize("name", (*GOLDEN_FILES, "product"))
    def test_roundtrip_is_exact(self, tmp_path, name):
        if name == "product":
            om = overlap_matrix(ProductSealSpec("01101", (0.0, 0.1, 0.3, 0.5, math.pi / 4)))
        else:
            om = load_overlap_matrix(DATA / name)
        path = tmp_path / "seal.json"
        save_overlap_matrix(om, path)
        assert np.array_equal(load_overlap_matrix(path).coefficients, om.coefficients)

    @pytest.mark.parametrize(
        "text",
        [
            json.dumps({"rows": IDENTITY2, "dim": 2}),
            json.dumps({"dim": 2, "rows": IDENTITY2}, indent=2),
            json.dumps({"dim": 2, "rows": [[[0.6, -0.8], [0, 0]], [[0, 0], [-1, -0.0]]]}),
            '{"dim":1,"rows":[[[1E0,-0]]]}',
            (DATA / "random64.json").read_text(encoding="utf-8"),
        ],
        ids=["reversed-keys", "indent-2", "integer-amplitudes", "compact", "random64"],
    )
    def test_loads_the_values_json_load_gives(self, tmp_path, text):
        path = tmp_path / "seal.json"
        path.write_text(text, encoding="utf-8")
        arr = np.asarray(json.loads(text)["rows"], dtype=float)
        # a view keeps the sign of a zero part, which re + 1j * im would not
        expected = arr.view(np.complex128)[..., 0]
        assert load_overlap_matrix(path).coefficients.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "text",
        [
            '{"dim": 2.9, "rows": %s}' % json.dumps(IDENTITY2),
            '{"dim": 2.0, "rows": %s}' % json.dumps(IDENTITY2),
            '{"dim": "2", "rows": %s}' % json.dumps(IDENTITY2),
            '{"dim": true, "rows": [[[1, 0]]]}',
            '{"dim": 0, "rows": []}',
            '{"dim": 3, "dim": 2, "rows": %s}' % json.dumps(IDENTITY2),
            '{"dim": 2, "rows": %s, "rows": %s}' % (json.dumps(IDENTITY2), json.dumps(IDENTITY2)),
            '{"dim": 2, "rows": %s, "note": 1}' % json.dumps(IDENTITY2),
            '{"dim": 2, "rows": %s, "note": "]"}' % json.dumps(IDENTITY2),
            '{"dim": 2, "rows": null}',
            '{"dim": 1, "rows": "[[[1, 0]]]"}',
            json.dumps(IDENTITY2),
            '{"dim": 2, "rows": [[["1", 0], [0, 0]], [[0, 0], [1, 0]]]}',
            '{"dim": 2, "rows": [[[true, 0], [0, 0]], [[0, 0], [1, 0]]]}',
            '{"dim": 1, "rows": [[[1, 0]5]]}',
            '{"dim": 2, "rows": [[[0.6, 0.0], [0.0, 0.8]], [[0.8, 0.0], -0.6[,0.0]]]}',
            '{"dim": 1, "rows": [[[1, ]]]}',
            '{"dim": 1, "rows": [[[1, 0], ]]}',
            '{"dim": 2, "rows": [[[1, 0], [0, 0]], [[0, 0, 1]]]}',
            '{"dim": 100000000000, "rows": [[[1, 0]]]}',
            "",
        ],
        ids=[
            "float-dim", "integral-float-dim", "string-dim", "bool-dim", "zero-dim",
            "duplicate-dim", "duplicate-rows", "extra-key", "extra-key-with-bracket",
            "null-rows", "string-rows", "bare-array", "string-amplitude", "bool-amplitude",
            "number-after-bracket", "number-outside-its-pair", "empty-amplitude", "trailing-comma", "ragged", "huge-dim",
            "empty-file",
        ],
    )
    def test_rejects_anything_but_the_schema(self, tmp_path, monkeypatch, text):
        # a cap above every 'dim' here, so that huge-dim reaches the layout check
        monkeypatch.setenv("SEALSIM_MAX_DIM", str(10**12))
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(UsageError, match="malformed overlap file"):
            load_overlap_matrix(path)

    @pytest.mark.parametrize("dim_first", [True, False], ids=["dim-first", "dim-last"])
    def test_oversized_file_is_refused_before_its_rows_are_read(
        self, tmp_path, monkeypatch, dim_first
    ):
        # N = 1024 unit rows, about 15 MB: a file read in full would peak there
        row = "[" + ",".join(["[0.03125,0.0]"] * 1024) + "]"
        rows = "[" + ",".join([row] * 1024) + "]"
        text = f'{{"dim": 1024, "rows": {rows}}}' if dim_first else f'{{"rows": {rows}, "dim": 1024}}'
        path = tmp_path / "big.json"
        path.write_text(text, encoding="ascii")
        del row, rows, text
        assert path.stat().st_size >= 8 * 2**20
        monkeypatch.setenv("SEALSIM_MAX_DIM", "64")
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError):
                load_overlap_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_dimension_cap_is_checked_on_load(self, monkeypatch):
        monkeypatch.setenv("SEALSIM_MAX_DIM", "8")
        with pytest.raises(ResourceError):
            load_overlap_matrix(DATA / "random16.json")

    @pytest.mark.parametrize(
        "text",
        ['{"dim": 5000, "rows": []}', '{"dim": 100000000000, "rows": [[[1, 0]]]}'],
        ids=["dim-5000", "huge-dim"],
    )
    def test_dimension_cap_comes_before_the_rows(self, tmp_path, monkeypatch, text):
        monkeypatch.delenv("SEALSIM_MAX_DIM", raising=False)
        path = tmp_path / "big.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ResourceError):
            load_overlap_matrix(path)


# small valid files, whose byte edits the loader must judge as json.load does
VALID_FILES = (
    b'{"dim": 2, "rows": [[[0.6, 0.0], [0.0, 0.8]], [[0.8, 0.0], [-0.6, 0.0]]]}',
    b'{"rows":[[[1,-0.0],[0,0]],[[0,0],[-0E1,1]]],"dim":2}',
    json.dumps({"dim": 2, "rows": IDENTITY2}, indent=1).encode(),
)
EDIT_BYTES = b'[],. -+0123456789eE"\n:{}NaInfity'


@st.composite
def edited_files(draw) -> bytes:
    """A valid file after one to three byte edits; a moved bracket is the likeliest."""
    data = bytearray(draw(st.sampled_from(VALID_FILES)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("move-bracket", "move-bracket", "insert", "delete", "replace")))
        if kind == "move-bracket":
            at = draw(st.sampled_from([i for i, b in enumerate(data) if b in b"[]"] or [0]))
            byte = data.pop(at)
            shifted = at + draw(st.integers(-6, 6))
            data.insert(min(max(shifted, 0), len(data)), byte)
            continue
        at = draw(st.integers(0, len(data) - (kind != "insert")))
        byte = draw(st.one_of(st.sampled_from(EDIT_BYTES), st.integers(0, 255)))
        if kind == "insert":
            data.insert(at, byte)
        elif kind == "delete":
            del data[at]
        else:
            data[at] = byte
    return bytes(data)


def _unique_keys(pairs: list) -> dict:
    if len({key for key, _ in pairs}) != len(pairs):
        raise ValueError("duplicate key")
    return dict(pairs)


def is_array(value, length: int) -> bool:
    return isinstance(value, list) and len(value) == length


def is_pair(value) -> bool:
    return is_array(value, 2) and all(type(part) in (int, float) for part in value)


def reference_coefficients(data: bytes) -> bytes | None:
    """Coefficient bytes of json.loads plus the schema, or None where they refuse the file."""
    try:
        doc = json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)
    except ValueError:  # also UnicodeDecodeError and a duplicate key
        return None
    if not isinstance(doc, dict) or sorted(doc) != ["dim", "rows"]:
        return None
    dim, rows = doc["dim"], doc["rows"]
    if not (type(dim) is int and dim >= 1 and is_array(rows, dim)):
        return None
    if not all(is_array(row, dim) and all(map(is_pair, row)) for row in rows):
        return None
    try:
        arr = np.array(rows, dtype=float)
        return OverlapMatrix(arr.view(np.complex128)[..., 0]).coefficients.tobytes()
    except (OverflowError, UsageError):
        return None


class TestLoaderAgreesWithJsonLoad:
    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(edited_files())
    def test_accepts_exactly_what_json_load_and_the_schema_accept(self, data):
        expected = reference_coefficients(data)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "seal.json"
            path.write_bytes(data)
            if expected is None:
                refusal = "malformed overlap file|not unit-norm|exceeds the cap"
                with pytest.raises((UsageError, ResourceError), match=refusal):
                    load_overlap_matrix(path)
            else:
                assert load_overlap_matrix(path).coefficients.tobytes() == expected
