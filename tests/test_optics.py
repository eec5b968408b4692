import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from topobell import optics
from topobell.linalg import unitarity_deviation

angles = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)


class TestBeamSplitter:
    def test_matrix(self):
        expected = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
        assert_allclose(optics.beam_splitter(), expected, atol=0)

    def test_unitary_tightly(self):
        assert unitarity_deviation(optics.beam_splitter()) < 1e-15

    def test_single_quanton_split(self):
        out = optics.beam_splitter() @ np.array([1.0, 0.0])
        assert_allclose(out, [1 / np.sqrt(2), 1j / np.sqrt(2)], atol=1e-15)


class TestPhaseRetarder:
    def test_zero_is_identity(self):
        assert_allclose(optics.phase_retarder(0.0), np.eye(2), atol=0)

    def test_pi_flips_upper_arm(self):
        assert_allclose(optics.phase_retarder(np.pi), np.diag([-1.0, 1.0]), atol=1e-15)

    @given(a=angles, b=angles)
    @settings(max_examples=100, deadline=None)
    def test_composition_adds_phases(self, a, b):
        composed = optics.phase_retarder(a) @ optics.phase_retarder(b)
        assert np.max(np.abs(composed - optics.phase_retarder(a + b))) < 1e-12


class TestMachZehnder:
    def test_zero_phase_swaps_ports(self):
        assert_allclose(optics.mach_zehnder(0.0), [[0, 1], [1, 0]], atol=1e-15)

    def test_pi_detects_at_first_port(self):
        m = optics.mach_zehnder(np.pi)
        assert_allclose(m[0, 0], -1.0, atol=1e-15)
        probs = np.abs(m @ np.array([1.0, 0.0])) ** 2
        assert_allclose(probs, [1.0, 0.0], atol=1e-15)

    def test_quarter_wave_balances_detectors(self):
        probs = np.abs(optics.mach_zehnder(np.pi / 2) @ np.array([1.0, 0.0])) ** 2
        assert_allclose(probs, [0.5, 0.5], atol=1e-15)

    @given(theta=angles)
    @settings(max_examples=200, deadline=None)
    def test_matches_raw_splitter_product(self, theta):
        # raw product carries the retarder on the other arm: the compact
        # form appears at -theta once the global i*e^{i theta/2} is removed
        bs = optics.beam_splitter()
        raw = bs @ optics.phase_retarder(theta) @ bs
        stripped = raw / (1j * np.exp(0.5j * theta))
        assert np.max(np.abs(stripped - optics.mach_zehnder(-theta))) < 1e-12
        # and detection statistics match the printed orientation exactly
        assert np.max(np.abs(np.abs(raw) - np.abs(optics.mach_zehnder(theta)))) < 1e-12

    @given(theta=angles)
    @settings(max_examples=100, deadline=None)
    def test_unitary(self, theta):
        assert unitarity_deviation(optics.mach_zehnder(theta)) <= 1e-12


class TestPathPhaseOperator:
    def test_zero_integrals_give_identity(self):
        assert_allclose(optics.path_phase_operator(0.0, 0.0, 1.0), np.eye(2), atol=0)

    def test_upper_arm_half_turn(self):
        op = optics.path_phase_operator(np.pi, 0.0, 1.0)
        assert_allclose(op, np.diag([-1.0, 1.0]), atol=1e-15)

    def test_unitary_for_random_inputs(self, rng):
        for _ in range(100):
            i_u, i_d, mu = rng.uniform(-5, 5, size=3)
            assert unitarity_deviation(optics.path_phase_operator(i_u, i_d, mu)) < 1e-15

    @given(i_u=angles, i_d=angles)
    @settings(max_examples=100, deadline=None)
    def test_diagonal_ratio_tracks_loop_sum(self, i_u, i_d):
        mu = 0.8
        op = optics.path_phase_operator(i_u, i_d, mu)
        assert abs(op[0, 0] / op[1, 1] - np.exp(1j * mu * (i_u + i_d))) < 1e-12


class TestSpinLoopPhase:
    def test_zero_loop_integral(self):
        assert optics.spin_loop_phase(1, 2.0, 0.0) == 1.0

    def test_quarter_turn_spin_up(self):
        assert_allclose(optics.spin_loop_phase(1, 1.0, np.pi / 2), -1j, atol=1e-15)

    @given(mu=angles, lam=angles)
    @settings(max_examples=100, deadline=None)
    def test_opposite_spins_cancel(self, mu, lam):
        product = optics.spin_loop_phase(1, mu, lam) * optics.spin_loop_phase(-1, mu, lam)
        assert abs(product - 1.0) < 1e-12

    @pytest.mark.parametrize("bad", [0, 2, -2, "up", np.array([1, -1]), np.array([1]),
                                     True, 1.0, 1 + 0j],
                             ids=["0", "2", "-2", "up", "two-entry-array", "one-entry-array",
                                  "bool", "float", "complex"])
    def test_rejects_non_spin_labels(self, bad):
        with pytest.raises(ValueError, match="spin label must be"):
            optics.spin_loop_phase(bad, 1.0, 1.0)


@pytest.mark.parametrize("build, name", [
    (lambda: optics.phase_retarder(np.nan), "theta"),
    (lambda: optics.phase_retarder(np.inf), "theta"),
    (lambda: optics.phase_retarder(-np.inf), "theta"),
    (lambda: optics.mach_zehnder(np.nan), "theta"),
    (lambda: optics.mach_zehnder(np.inf), "theta"),
    (lambda: optics.path_phase_operator(np.nan, 0.0, 1.0), "mu\\*i_u"),
    (lambda: optics.path_phase_operator(0.0, np.inf, 1.0), "mu\\*i_d"),
    (lambda: optics.path_phase_operator(0.0, 0.0, np.inf), "mu\\*i_u"),
    (lambda: optics.path_phase_operator(1e308, 0.0, 1e308), "mu\\*i_u"),
    (lambda: optics.path_phase_operator(0.0, -1e308, 1e308), "mu\\*i_d"),
    (lambda: optics.spin_loop_phase(1, np.nan, 0.0), "mu\\*lam"),
    (lambda: optics.spin_loop_phase(-1, 1.0, np.inf), "mu\\*lam"),
    (lambda: optics.spin_loop_phase(1, 1e308, 1e308), "mu\\*lam"),
], ids=["retarder-nan", "retarder-inf", "retarder-minus-inf", "mach-zehnder-nan",
        "mach-zehnder-inf", "path-nan-i_u", "path-inf-i_d", "path-inf-mu",
        "path-overflow-up", "path-overflow-down", "loop-nan-mu", "loop-inf-lambda",
        "loop-overflow"])
def test_non_finite_angle_or_phase_product_is_rejected_by_name(build, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        build()


#: Each broadcasting constructor, its number of array arguments and the shape of one value.
CONSTRUCTORS = {
    "phase_retarder": (optics.phase_retarder, 1, (2, 2)),
    "mach_zehnder": (optics.mach_zehnder, 1, (2, 2)),
    "path_phase_operator": (optics.path_phase_operator, 3, (2, 2)),
    "spin_loop_phase-up": (lambda mu, lam: optics.spin_loop_phase(1, mu, lam), 2, ()),
    "spin_loop_phase-down": (lambda mu, lam: optics.spin_loop_phase(-1, mu, lam), 2, ()),
}

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_array_input_gives_the_stack_of_one_point_calls(name, data):
    build, arity, value_shape = CONSTRUCTORS[name]
    shape = data.draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4))
    # each argument an array of the drawn shape or a scalar broadcast against it
    args = [data.draw(st.one_of(finite, hnp.arrays(float, shape, elements=finite)))
            for _ in range(arity)]
    shape = np.broadcast_shapes(*map(np.shape, args))
    stacked = np.asarray(build(*args))
    assert stacked.shape == shape + value_shape
    full = [np.broadcast_to(a, shape) for a in args]
    points = [build(*(float(a[i]) for a in full)) for i in np.ndindex(shape)]
    assert np.array_equal(stacked, np.array(points, dtype=complex).reshape(stacked.shape))
    if value_shape:
        assert unitarity_deviation(stacked) <= 1e-12
    else:
        assert np.max(np.abs(np.abs(stacked) - 1.0), initial=0.0) <= 1e-12
