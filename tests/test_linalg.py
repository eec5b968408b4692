import numpy as np
import pytest
from numpy.testing import assert_allclose

from topobell import linalg
from topobell.optics import beam_splitter

from conftest import random_unitary


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


class TestSplitterAction:
    def test_splitter_halves_a_single_input(self):
        out = beam_splitter() @ np.array([1.0, 0.0], dtype=complex)
        assert_allclose(np.abs(out) ** 2, [0.5, 0.5], atol=1e-15)

    def test_double_splitter_swaps_ports_with_phase(self):
        bs = beam_splitter()
        out = bs @ bs @ np.array([1.0, 0.0], dtype=complex)
        assert_allclose(out, [0.0, 1.0j], atol=1e-12)
