import numpy as np
import pytest
from numpy.testing import assert_allclose

from topobell import linalg
from topobell.optics import beam_splitter

from conftest import random_unitary


class TestTensorProduct:
    def test_identity_times_identity(self):
        eye = np.eye(2, dtype=complex)
        assert_allclose(linalg.tensor_product(eye, eye), np.eye(4), atol=0)

    def test_splitter_on_left_factor(self):
        # BS (x) I applied to |0>|1> spreads only the left quanton
        state = np.zeros(4, dtype=complex)
        state[1] = 1.0  # |0,1>
        out = linalg.tensor_product(beam_splitter(), np.eye(2)) @ state
        expected = np.array([0.0, 1.0 / np.sqrt(2), 0.0, 1.0j / np.sqrt(2)])
        assert_allclose(out, expected, atol=1e-15)

    def test_diagonal_phases_against_entrywise_oracle(self):
        # independent oracle: compose the 4x4 entry by entry
        alpha, beta = np.pi / 2, np.pi
        a = np.diag([np.exp(1j * alpha), 1.0]).astype(complex)
        b = np.diag([np.exp(1j * beta), 1.0]).astype(complex)
        oracle = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        oracle[2 * i + j, 2 * k + l] = a[i, k] * b[j, l]
        product = linalg.tensor_product(a, b)
        assert_allclose(product, oracle, atol=1e-15)
        assert_allclose(np.diag(product), [-1j, 1j, -1.0, 1.0], atol=1e-15)

    def test_rejects_wrong_shapes(self):
        with pytest.raises(ValueError):
            linalg.tensor_product(np.eye(4), np.eye(2))

    def test_mixed_product_property(self, rng):
        for _ in range(50):
            a, b = random_unitary(rng, 2), random_unitary(rng, 2)
            c, d = random_unitary(rng, 2), random_unitary(rng, 2)
            lhs = linalg.tensor_product(a, b) @ linalg.tensor_product(c, d)
            rhs = linalg.tensor_product(a @ c, b @ d)
            assert_allclose(lhs, rhs, atol=1e-12)

    def test_bilinearity(self, rng):
        a, b, m = (random_unitary(rng, 2) for _ in range(3))
        z = complex(rng.normal(), rng.normal())
        lhs = linalg.tensor_product(z * a + b, m)
        rhs = z * linalg.tensor_product(a, m) + linalg.tensor_product(b, m)
        assert_allclose(lhs, rhs, atol=1e-12)


class TestUnitarityDeviation:
    def test_beam_splitter_is_unitary(self):
        assert linalg.unitarity_deviation(beam_splitter()) <= 1e-12

    def test_constant_half_matrix_is_not(self):
        assert linalg.unitarity_deviation(np.full((2, 2), 0.5)) > 1e-12

    def test_polarizing_candidate_at_zero_angles_is_not(self):
        # column norms are 1/sqrt(2), deviation 1/2
        candidate = np.array([[0.0, 0.0], [1j / np.sqrt(2), 1 / np.sqrt(2)]])
        assert_allclose(linalg.unitarity_deviation(candidate), 0.5, atol=1e-15)

    def test_stack_reports_its_worst_matrix(self, rng):
        stack = np.array([random_unitary(rng, 2) for _ in range(6)]).reshape(2, 3, 2, 2)
        assert linalg.unitarity_deviation(stack) < 1e-12
        stack[1, 2] = np.full((2, 2), 0.5)
        assert linalg.unitarity_deviation(stack) == linalg.unitarity_deviation(stack[1, 2])
        assert linalg.unitarity_deviation(np.zeros((0, 2, 2))) == 0.0

    @pytest.mark.parametrize("shape", [(2,), (3, 2), (4, 2, 3)])
    def test_rejects_non_square_shapes(self, shape):
        with pytest.raises(ValueError, match="square"):
            linalg.unitarity_deviation(np.zeros(shape))

    def test_norm_preserved_by_random_unitaries(self, rng):
        for n in (2, 4):
            for _ in range(100):
                u = random_unitary(rng, n)
                v = rng.normal(size=n) + 1j * rng.normal(size=n)
                assert abs(np.linalg.norm(u @ v) - np.linalg.norm(v)) < 1e-12


class TestSplitterAction:
    def test_splitter_halves_a_single_input(self):
        out = beam_splitter() @ np.array([1.0, 0.0], dtype=complex)
        assert_allclose(np.abs(out) ** 2, [0.5, 0.5], atol=1e-15)

    def test_double_splitter_swaps_ports_with_phase(self):
        bs = beam_splitter()
        out = bs @ bs @ np.array([1.0, 0.0], dtype=complex)
        assert_allclose(out, [0.0, 1.0j], atol=1e-12)
