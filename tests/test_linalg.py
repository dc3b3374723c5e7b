"""The norm check and the dense state and operator oracles in tests/oracles.py."""

import math

import numpy as np
import pytest

from oracles import (
    apply_and_normalize,
    basis_state,
    fidelity,
    identity_operator,
    tensor_product,
    unit_row,
)
from sealsim.errors import UsageError, ValidationError, unit_norm_weights

ATOL = 1e-12


def state(*amps) -> np.ndarray:
    return unit_row(amps)


class TestUnitNormWeights:
    def test_norm_enforced(self):
        with pytest.raises(ValidationError):
            unit_norm_weights(np.array([1.0, 1.0], dtype=complex), "state")

    def test_norm_tolerance_is_tight(self):
        with pytest.raises(ValidationError):
            unit_norm_weights(np.array([math.sqrt(1.0 + 1e-9), 0.0], dtype=complex), "state")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_amplitudes_are_rejected(self, bad):
        with pytest.raises(ValidationError):
            unit_norm_weights(np.array([bad, 0.0], dtype=complex), "state")


def test_basis_state():
    s = basis_state(4, 2)
    assert s[2] == 1.0 and abs(s).sum() == 1.0
    with pytest.raises(UsageError):
        basis_state(4, 4)


class TestTensorProduct:
    def test_two_ground_states(self):
        out = tensor_product([state(1, 0), state(1, 0)])
        assert np.allclose(out, [1, 0, 0, 0], atol=ATOL)

    def test_one_nontrivial_factor(self):
        theta = math.pi / 6
        out = tensor_product([state(math.cos(theta), math.sin(theta)), state(1, 0)])
        expected = [math.cos(theta), 0.0, math.sin(theta), 0.0]
        assert np.allclose(out, expected, atol=ATOL)

    def test_two_uniform_factors(self):
        plus = state(1 / math.sqrt(2), 1 / math.sqrt(2))
        out = tensor_product([plus, plus])
        assert np.allclose(out, [0.5] * 4, atol=ATOL)

    def test_empty_list_is_usage_error(self):
        with pytest.raises(UsageError):
            tensor_product([])

    def test_non_normalized_factor_is_rejected(self):
        with pytest.raises(ValidationError):
            tensor_product([state(1, 0), np.array([0.9, 0.1])])

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2), (4, 2, 2, 2)])
    def test_output_stays_unit_norm(self, dims):
        rng = np.random.default_rng(2195)
        factors = []
        for d in dims:
            raw = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            factors.append(raw / np.linalg.norm(raw))
        out = tensor_product(factors)
        assert abs(np.sum(np.abs(out) ** 2) - 1.0) <= ATOL


class TestApplyAndNormalize:
    def test_identity(self):
        s = state(0.6, 0.8)
        prob, post = apply_and_normalize(identity_operator(2), s)
        assert prob == pytest.approx(1.0, abs=ATOL)
        assert np.allclose(post, s, atol=ATOL)

    def test_projector(self):
        theta = math.pi / 6
        s = state(math.cos(theta), math.sin(theta))
        proj = np.array([[1, 0], [0, 0]], dtype=complex)
        prob, post = apply_and_normalize(proj, s)
        assert prob == pytest.approx(0.75, abs=ATOL)
        assert np.allclose(post, [1, 0], atol=ATOL)

    def test_zero_norm_result(self):
        proj = np.array([[0, 0], [0, 1]], dtype=complex)
        prob, post = apply_and_normalize(proj, state(1, 0))
        assert prob == 0.0 and post is None

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            apply_and_normalize(identity_operator(3), state(1, 0))

    def test_matches_closed_form_for_structured_operators(self):
        # operators a*I + b*|i><i| at nu = 1/2, N = 2: probability must
        # equal (1-nu)/N + nu |c_i|^2 for random unit rows
        n, nu = 2, 0.5
        a = math.sqrt((1 - nu) / n)
        b = math.sqrt((1 - nu) / n + nu) - a
        rng = np.random.default_rng(424242)
        for _ in range(100):
            raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            row = raw / np.linalg.norm(raw)
            s = row
            for i in range(n):
                entries = a * np.eye(n, dtype=complex)
                entries[i, i] += b
                prob, _ = apply_and_normalize(entries, s)
                closed = (1 - nu) / n + nu * abs(row[i]) ** 2
                assert abs(prob - closed) <= ATOL

    @pytest.mark.parametrize("n,nu", [(2, 0.0), (2, 0.5), (4, 0.25), (8, 1.0)])
    def test_complete_family_probabilities_sum_to_one(self, n, nu):
        a = math.sqrt((1 - nu) / n)
        b = math.sqrt((1 - nu) / n + nu) - a
        rng = np.random.default_rng(n * 1000 + int(nu * 100))
        raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        s = raw / np.linalg.norm(raw)
        total = 0.0
        for i in range(n):
            entries = a * np.eye(n, dtype=complex)
            entries[i, i] += b
            prob, _ = apply_and_normalize(entries, s)
            total += prob
        assert abs(total - 1.0) <= ATOL


class TestFidelity:
    def test_identical_states(self):
        s = state(0.6, 0.8j)
        assert fidelity(s, s) == pytest.approx(1.0, abs=ATOL)

    def test_orthogonal_states(self):
        assert fidelity(state(1, 0), state(0, 1)) == 0.0

    def test_partial_overlap(self):
        theta = math.pi / 6
        overlap = fidelity(state(1, 0), state(math.cos(theta), math.sin(theta)))
        assert overlap == pytest.approx(0.75, abs=ATOL)

    def test_symmetry(self):
        s1, s2 = state(0.6, 0.8), state(0.8, 0.6)
        assert fidelity(s1, s2) == fidelity(s2, s1)

    def test_global_phase_invariance(self):
        s1 = state(0.6, 0.8)
        phase = np.exp(1j * 1.234)
        s2 = phase * s1
        assert fidelity(s1, s2) == pytest.approx(1.0, abs=ATOL)
        s3 = state(0.8, 0.6)
        assert fidelity(s1, s3) == pytest.approx(
            fidelity(phase * s1, s3), abs=ATOL
        )

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            fidelity(state(1, 0), state(1, 0, 0))

