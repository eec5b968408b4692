import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import random_unitary
from test_batched import CASE_IDS, CASES, SEED, _draws, _specs
from topobell import chsh, entangled, oracle
from topobell.chsh import BellAngles, RoleAssignment
from topobell.entangled import Scenario, TopoPhaseSpec, run_scenario
from topobell.oracle import (
    StationarityOutcome,
    brute_force_distribution,
    brute_force_probabilities,
    grid_search_max_S,
    stationarity_check,
)


class TestBruteForceDistribution:
    def test_scenario_b_quarter_wave(self):
        dist = brute_force_distribution(Scenario.B, np.pi / 2, 0.0)
        assert dist.p_d0p_d0 == pytest.approx(0.25, abs=1e-12)


#: 1 (x) swap: scenario A's right-hand detectors are labeled opposite to the splitter ports.
MIRROR = np.eye(4)[[1, 0, 3, 2]]


def _diag(d0, d1):
    """Stack (..., 2, 2) of diagonal matrices diag(d0, d1)."""
    out = np.zeros(np.broadcast_shapes(np.shape(d0), np.shape(d1)) + (2, 2), dtype=complex)
    out[..., 0, 0] = d0
    out[..., 1, 1] = d1
    return out


def _textbook_probabilities(scenario, theta_l, theta_r, fields):
    """abs((chain @ singlet branches) . branch phases)**2, every factor a full 4x4 matrix."""
    def pair(left, right):
        return oracle._kron(_diag(*left), _diag(*right))

    retarders = pair((np.exp(1j * theta_l), 1.0), (np.exp(1j * theta_r), 1.0))
    phases = (1.0, 1.0)
    if scenario is Scenario.A:
        chain = MIRROR @ oracle._SPLITTERS
        if fields:
            mu = fields["mu"]
            chain = chain @ pair(*((np.exp(1j * mu * fields[f"i_u_{side}"]),
                                    np.exp(-1j * mu * fields[f"i_d_{side}"])) for side in "lr"))
        chain = chain @ retarders
    else:
        chain = oracle._SPLITTERS @ retarders @ oracle._SPLITTERS
    if scenario is Scenario.C:
        mu, lambda_l, lambda_r = fields["mu"], fields["lambda_l"], fields["lambda_r"]
        phases = (np.exp(-1j * mu * (lambda_l - lambda_r)),
                  np.exp(-1j * mu * (lambda_r - lambda_l)))
    elif scenario is Scenario.AB:
        phases = (np.exp(-1j * fields["flux"]),) * 2
    branches = chain @ oracle._SINGLET_BRANCHES
    return np.abs(sum(np.asarray(phase)[..., None] * branches[..., k]
                      for k, phase in enumerate(phases))) ** 2


@pytest.mark.parametrize("scenario, with_fields", CASES, ids=CASE_IDS)
def test_oracle_equals_its_textbook_chain(scenario, with_fields):
    # every splitter and readout entry is purely real or purely imaginary, so a
    # diagonal factor costs one rounding per component, by gemm or by scaling
    theta_l, theta_r, fields = _draws(scenario, with_fields, 20_000)
    oracle_p = brute_force_probabilities(scenario, theta_l, theta_r, **fields)
    textbook = _textbook_probabilities(scenario, theta_l, theta_r, fields)
    if scenario is Scenario.A and with_fields:
        # readout @ arm is general, so its product with the retarders rounds by route
        assert_allclose(oracle_p, textbook, rtol=0, atol=1e-15)
    else:
        assert oracle_p.tobytes() == textbook.tobytes()


@pytest.mark.parametrize("scenario, fields", [
    (Scenario.B, {}),
    (Scenario.C, {"mu": 1.3, "lambda_l": np.linspace(-3.0, 3.0, 30)[None, None, :],
                  "lambda_r": 0.4}),
], ids=["B", "C"])
def test_oracle_equals_its_textbook_chain_on_a_sparse_grid(scenario, fields):
    theta = np.random.default_rng([SEED, 12]).uniform(0.0, 2.0 * np.pi, 30)
    theta_l, theta_r = theta[:, None, None], theta[None, :, None]
    oracle_p = brute_force_probabilities(scenario, theta_l, theta_r, **fields)
    assert oracle_p.shape == (30, 30, 30 if fields else 1, 4)
    assert oracle_p.tobytes() == _textbook_probabilities(scenario, theta_l, theta_r,
                                                         fields).tobytes()


def _dense_brute_force(scenario, theta_l, theta_r, fields):
    """The oracle kernel with dense diagonal factors: each factor pair a full 4x4
    ``oracle._kron`` of which ``np.diagonal`` keeps four entries."""
    def pair_diagonal(left, right):
        return np.diagonal(oracle._kron(_diag(*left), _diag(*right)), axis1=-2, axis2=-1)

    retarders = pair_diagonal((np.exp(1j * theta_l), 1.0), (np.exp(1j * theta_r), 1.0))
    if scenario is Scenario.A:
        chain = oracle._READOUT
        if fields:
            mu = fields["mu"]
            arm = pair_diagonal(*((np.exp(1j * mu * fields[f"i_u_{side}"]),
                                   np.exp(-1j * mu * fields[f"i_d_{side}"])) for side in "lr"))
            chain = chain * arm[..., None, :]
        chain = chain * retarders[..., None, :]
    else:
        chain = oracle._right_product(oracle._SPLITTERS * retarders[..., None, :],
                                      oracle._SPLITTERS)
    branches = oracle._right_product(chain, oracle._SINGLET_BRANCHES)
    if scenario is Scenario.C:
        phi_ud, phi_du = (np.exp(-1j * fields["mu"] * (s_l * fields["lambda_l"]
                                                      + s_r * fields["lambda_r"]))
                          for (s_l, s_r) in ((1, -1), (-1, 1)))
    elif scenario is Scenario.AB:
        phi_ud = phi_du = np.exp(-1j * fields["flux"])
    else:
        return np.abs(branches[..., 0] + branches[..., 1]) ** 2
    amplitudes = phi_ud[..., None] * branches[..., 0] + phi_du[..., None] * branches[..., 1]
    return np.abs(amplitudes) ** 2


def _bits(values):
    """The raw 64-bit words of float or complex values: equal bits, not just equal values."""
    values = np.asarray(values)
    return values.astype(complex if np.iscomplexobj(values) else float).view(np.int64)


def test_diagonal_kronecker_pairs_keep_the_dense_products_bits():
    # np.array_equal on the words, so a zero's sign counts too
    rng = np.random.default_rng([SEED, 35])

    def phases(shape):
        return np.exp(1j * rng.uniform(-10.0, 10.0, shape)) * rng.uniform(0.5, 2.0, shape)

    for left_shape, right_shape in [((10_000,), (10_000,)), ((30, 1, 1), (1, 30, 1)),
                                    ((7, 1), (5,)), ((), ())]:
        for left, right in [((phases(left_shape), 1.0), (phases(right_shape), 1.0)),
                            ((phases(left_shape), phases(left_shape)),
                             (phases(right_shape), phases(right_shape)))]:
            dense = np.diagonal(oracle._kron(_diag(*left), _diag(*right)), axis1=-2, axis2=-1)
            assert np.array_equal(_bits(oracle._kron_diagonals(left, right)), _bits(dense))

    theta = rng.uniform(0.0, 2.0 * np.pi, 30)
    sparse = {Scenario.A: {name: rng.uniform(-2.0, 2.0, 30)[None, None, :]
                           for name in ("mu", "i_u_l", "i_d_l", "i_u_r", "i_d_r")},
              Scenario.C: {"mu": 1.3, "lambda_l": np.linspace(-3.0, 3.0, 30)[None, None, :],
                           "lambda_r": 0.4}}
    for scenario, with_fields in CASES:
        batches = [_draws(scenario, with_fields, 5_000)]
        if scenario in sparse and with_fields:
            batches.append((theta[:, None, None], theta[None, :, None], sparse[scenario]))
        for theta_l, theta_r, fields in batches:
            checked = entangled._checked_batch(scenario, theta_l, theta_r, fields)
            assert np.array_equal(
                _bits(brute_force_probabilities(scenario, theta_l, theta_r, **fields)),
                _bits(_dense_brute_force(scenario, *checked)))
        theta_l, theta_r, fields = _draws(scenario, with_fields, 50)
        for topo, point in zip(_specs(scenario, fields, 50), zip(theta_l, theta_r)):
            dist = brute_force_distribution(scenario, *point, topo)
            dense = _dense_brute_force(scenario, *entangled._checked_point(scenario, *point, topo))
            assert np.array_equal(_bits(dist.as_array()), _bits(dense))


SPIN = TopoPhaseSpec.spin_conditioned(1.0, 0.3, 0.0)
PATH = TopoPhaseSpec.path_integrals(1.0, 0.1, 0.2, 0.3, 0.4)

#: Every way to pass a scenario the wrong phase spec, with a fragment of the
#: message: a spec of another mode, a spec where none is taken, none where one
#: is needed, an object that is no spec, and a value that is no scenario.
BAD_SPECS = {
    "A-spin-conditioned": (Scenario.A, SPIN, "requires a path-integrals"),
    "B-spin-conditioned": (Scenario.B, SPIN, "takes no topological phase spec"),
    "C-path-integrals": (Scenario.C, PATH, "requires a spin-conditioned"),
    "C-missing": (Scenario.C, None, "requires a spin-conditioned"),
    "AB-spin-conditioned": (Scenario.AB, SPIN, "requires a spin-independent-ab"),
    "AB-missing": (Scenario.AB, None, "requires a spin-independent-ab"),
    "C-dict": (Scenario.C, {"mu": 1.0, "lambda_l": 0.3, "lambda_r": 0.0},
               "requires a spin-conditioned"),
    "unknown-scenario": ("C", SPIN, "unknown scenario"),
}


@pytest.mark.parametrize("scenario, topo, fragment", BAD_SPECS.values(), ids=BAD_SPECS)
def test_both_one_point_entry_points_reject_a_bad_spec_alike(scenario, topo, fragment):
    messages = []
    for entry in (run_scenario, brute_force_distribution):
        with pytest.raises(ValueError, match=fragment) as excinfo:
            entry(scenario, 0.0, 0.0, topo)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]


class TestKron:
    """``oracle._kron`` is the package's one Kronecker product."""

    def _pairs(self, rng):
        a, b = (rng.normal(size=(3, 5, 2, 2)) + 1j * rng.normal(size=(3, 5, 2, 2))
                for _ in range(2))
        return a, b

    def test_each_matrix_of_a_stack_equals_numpy_kron(self, rng):
        # einsum rounds each product as Python's complex multiply does; numpy's
        # array multiply, which np.kron uses, may differ in the last bit
        a, b = self._pairs(rng)
        product = oracle._kron(a, b)
        assert product.shape == (3, 5, 4, 4)
        for index in np.ndindex(3, 5):
            assert_allclose(product[index], np.kron(a[index], b[index]), rtol=0, atol=1e-14)

    def test_entries_are_placed_left_factor_major_bit_for_bit(self, rng):
        a, b = self._pairs(rng)
        product = oracle._kron(a, b)
        for index in np.ndindex(3, 5):
            for i, j, k, l in np.ndindex(2, 2, 2, 2):
                entry = np.complex128(complex(a[index][i, k]) * complex(b[index][j, l]))
                assert product[index][2 * i + j, 2 * k + l].tobytes() == entry.tobytes()

    def test_splitter_pair_is_the_kron_of_the_splitter(self):
        assert oracle._SPLITTERS.tobytes() == np.kron(oracle._BS, oracle._BS).tobytes()

    def test_identity_times_identity(self):
        eye = np.eye(2, dtype=complex)
        assert_allclose(oracle._kron(eye, eye), np.eye(4), atol=0)

    def test_splitter_on_left_factor(self):
        # BS (x) I applied to |0>|1> spreads only the left quanton
        state = np.zeros(4, dtype=complex)
        state[1] = 1.0  # |0,1>
        out = oracle._kron(oracle._BS, np.eye(2, dtype=complex)) @ state
        expected = np.array([0.0, 1.0 / np.sqrt(2), 0.0, 1.0j / np.sqrt(2)])
        assert_allclose(out, expected, atol=1e-15)

    def test_diagonal_phases(self):
        # the retarder pair the oracle builds: phase on the left factor's port 0
        # lands on joint ports (0,0) and (0,1)
        a = np.diag([np.exp(1j * np.pi / 2), 1.0]).astype(complex)
        b = np.diag([np.exp(1j * np.pi), 1.0]).astype(complex)
        assert_allclose(np.diag(oracle._kron(a, b)), [-1j, 1j, -1.0, 1.0], atol=1e-15)

    def test_mixed_product_property(self, rng):
        for _ in range(50):
            a, b, c, d = (random_unitary(rng, 2) for _ in range(4))
            lhs = oracle._kron(a, b) @ oracle._kron(c, d)
            assert_allclose(lhs, oracle._kron(a @ c, b @ d), atol=1e-12)

    def test_bilinearity(self, rng):
        a, b, m = (random_unitary(rng, 2) for _ in range(3))
        z = complex(rng.normal(), rng.normal())
        lhs = oracle._kron(z * a + b, m)
        rhs = z * oracle._kron(a, m) + oracle._kron(b, m)
        assert_allclose(lhs, rhs, atol=1e-12)


#: The search grid, restated: points per angle, refinement rounds, shrink factor.
POINTS, ROUNDS, SHRINK = 24, 5, 0.25


class TestGridSearch:
    @pytest.mark.parametrize("roles", list(RoleAssignment))
    @pytest.mark.parametrize("c", [1.0, 0.0, 0.5, 0.0022, -0.0022, 0.005, -0.005,
                                   0.0105, -0.0105, -1.0, -0.0, 5e-324, -0.5])
    def test_finds_the_analytic_maximum(self, c, roles):
        result = grid_search_max_S(c, roles)
        assert result.best_s == pytest.approx(2 * np.sqrt(1 + c * c), abs=1e-15)
        assert result.evaluations == 3456

    @pytest.mark.parametrize("roles", list(RoleAssignment))
    @pytest.mark.parametrize("c", [0.37, -0.9, 0.0022, 1.0])
    def test_monotone_across_refinement_rounds(self, monkeypatch, c, roles):
        previous = -np.inf
        for rounds in range(ROUNDS + 1):
            monkeypatch.setattr(oracle, "_ROUNDS", rounds)
            result = grid_search_max_S(c, roles)
            assert result.best_s >= previous - 1e-15
            previous = result.best_s

    def test_deterministic(self):
        first = grid_search_max_S(0.25, RoleAssignment.LITERAL)
        second = grid_search_max_S(0.25, RoleAssignment.LITERAL)
        assert first == second

    def test_result_reevaluates_to_its_own_value(self):
        result = grid_search_max_S(0.7, RoleAssignment.STANDARD)
        fresh = chsh.chsh_S(result.best_angles, 0.7, RoleAssignment.STANDARD)
        assert result.best_s == pytest.approx(fresh, abs=1e-12)

    def test_reports_evaluation_count(self, monkeypatch):
        bound = oracle._bound
        sizes = []

        def spy(a, a_prime, c):
            value, total, difference = bound(a, a_prime, c)
            sizes.append(value.size)
            return value, total, difference

        monkeypatch.setattr(oracle, "_bound", spy)
        result = grid_search_max_S(0.0, RoleAssignment.STANDARD)
        # one call per round over its (a, a') grid, then one at the winner for (b, b')
        assert sizes == [POINTS ** 2] * (ROUNDS + 1) + [1]
        assert result.evaluations == oracle._EVALUATIONS == sum(sizes[:-1]) == 3456

    @pytest.mark.parametrize("args", [(0.5, "standard")], ids=["roles"])
    def test_rejects_a_wrong_type_before_searching(self, monkeypatch, args):
        def no_search(*_):
            raise AssertionError("searched before checking its arguments")

        monkeypatch.setattr(oracle, "_bound", no_search)
        with pytest.raises(ValueError, match="must be a RoleAssignment"):
            grid_search_max_S(*args)

    def test_rejects_contrast_outside_unit_interval(self):
        with pytest.raises(ValueError):
            grid_search_max_S(1.2, RoleAssignment.STANDARD)


#: Contrasts with the edges of [-1, 1] and both zeros among them, where maximisers tie.
contrasts = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 1.0]),
                      st.floats(-1.0, 1.0, allow_subnormal=True))
#: Contrasts the search must refuse: NaN, inf and values just past 1 + 1e-12 in magnitude.
bad_contrasts = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf]),
    st.floats(1.0 + 1e-12, exclude_min=True, allow_infinity=False).flatmap(
        lambda v: st.sampled_from([v, -v])))
#: Dense sets of contrasts: across [-1, 1], near 0, near +-1, and zeros and subnormals.
DENSE_CONTRASTS = {
    "cosine": np.cos(np.linspace(0.0, np.pi, 1001)),
    "near-zero": np.linspace(-1e-2, 1e-2, 501),
    "near-one": np.concatenate([1.0 - np.logspace(-16, -1, 200),
                                np.logspace(-16, -1, 200) - 1.0]),
    "tiny": np.concatenate([[0.0, -0.0, 5e-324, -5e-324],
                            np.logspace(-323, -100, 100), -np.logspace(-323, -100, 100)]),
}


@given(c=contrasts, roles=st.sampled_from(list(RoleAssignment)), bad=st.none() | bad_contrasts)
@settings(max_examples=20, deadline=None)
def test_grid_search_finds_the_analytic_maximum_or_rejects_c(c, roles, bad):
    if bad is not None:
        with pytest.raises(ValueError, match=r"\bc\b"):
            grid_search_max_S(bad, roles)
        return
    result = grid_search_max_S(c, roles)
    assert abs(result.best_s - chsh.analytic_max_S(c)) <= 1e-15
    assert result.best_s == chsh.chsh_S(result.best_angles, c, roles)
    assert result.evaluations == 3456


def _per_row_search(c):
    """Reference: one row searched with ``np.linspace`` windows, first maximum wins ties."""
    axes = [np.linspace(0.0, 2 * np.pi, POINTS, endpoint=False)] * 2
    best_value = -np.inf
    for round_index in range(ROUNDS + 1):
        if round_index:
            half = np.pi * SHRINK ** round_index
            axes = [np.linspace(x - half, x + half, POINTS) for x in best]
        values = oracle._bound(axes[0][:, None], axes[1][None, :], c)[0]
        i, j = np.unravel_index(int(np.argmax(values)), values.shape)
        if values[i, j] > best_value:
            best_value, best = values[i, j], (axes[0][i], axes[1][j])
    return best


class TestBatchedSearch:
    """``_search``, the kernel behind ``sweep``: every row is ``grid_search_max_S`` bit for bit."""

    @given(cs=st.lists(contrasts, min_size=1, max_size=12),
           roles=st.sampled_from(list(RoleAssignment)))
    @settings(max_examples=40, deadline=None)
    def test_each_row_is_the_one_row_search(self, cs, roles):
        rows = oracle._search(np.array(cs))
        assert rows.shape == (5, len(cs))
        for c, row in zip(cs, rows.T):
            result = grid_search_max_S(c, roles)
            angles = roles.bell_angles(*row[:4])
            assert np.array_equal(_bits(angles.as_tuple()), _bits(result.best_angles.as_tuple()))
            assert _bits(row[4]) == _bits(result.best_s)

    @given(cs=st.lists(contrasts, min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_search_takes_the_per_row_linspace_search_winner(self, cs):
        winners = oracle._search(np.array(cs))[:2]
        assert np.array_equal(_bits(winners.T), _bits([_per_row_search(c) for c in cs]))

    @pytest.mark.parametrize("cs", DENSE_CONTRASTS.values(), ids=DENSE_CONTRASTS)
    def test_dense_contrasts_take_the_per_row_linspace_search_winner(self, cs):
        winners = oracle._search(cs)[:2]
        assert np.array_equal(_bits(winners.T), _bits([_per_row_search(c) for c in cs]))

    @pytest.mark.parametrize("cs", DENSE_CONTRASTS.values(), ids=DENSE_CONTRASTS)
    def test_default_search_reaches_the_analytic_maximum(self, cs):
        # round 0 holds the maximizer, so S is only as far off as its own rounding
        assert np.max(np.abs(oracle._search(cs)[4] - 2.0 * np.sqrt(1.0 + cs * cs))) <= 1e-15

    @pytest.mark.parametrize("round_index", range(1, ROUNDS + 1))
    @given(centres=st.lists(st.floats(-1.1, 7.4, allow_subnormal=True), min_size=1, max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_windows_are_linspace_bit_for_bit(self, centres, round_index):
        # every window the search asks for: a refinement round's half-width around a
        # centre that the rounds before can reach
        half = np.pi * SHRINK ** round_index
        windows = oracle._windows(np.array(centres), half)
        expected = [np.linspace(x - half, x + half, POINTS) for x in np.array(centres)]
        assert np.array_equal(_bits(windows), _bits(expected))

    def test_round_zero_grid_is_linspace(self):
        expected = np.linspace(0.0, 2 * np.pi, POINTS, endpoint=False)
        assert np.array_equal(_bits(oracle._ROUND_ZERO), _bits(expected))

    def test_round_zero_grid_holds_the_maximizer(self):
        # (a, a') = (0, pi/2) maximizes S at every contrast; 24 is a multiple of 4
        assert _bits(oracle._ROUND_ZERO[[0, 6]]).tolist() == _bits([0.0, np.pi / 2]).tolist()

    @pytest.mark.parametrize("quarter", range(4))
    def test_round_zero_grid_holds_every_quarter_turn(self, quarter):
        # any two quarter turns a quarter apart maximize S, so each must sit on the axis exactly
        assert _bits(oracle._ROUND_ZERO[6 * quarter]) == _bits(quarter * (np.pi / 2))

    @pytest.mark.parametrize("cs", DENSE_CONTRASTS.values(), ids=DENSE_CONTRASTS)
    def test_windows_asked_for_are_in_the_range_windows_are_tested_on(self, monkeypatch, cs):
        # the reason _windows needs no case for a step that underflows to 0
        asked = []

        def recording_windows(centres, half):
            asked.append((centres.copy(), half))
            return windows(centres, half)

        windows = oracle._windows
        monkeypatch.setattr(oracle, "_windows", recording_windows)
        oracle._search(cs)
        # each block of rows asks for the five refinement half-widths in turn
        assert [half for _, half in asked[:ROUNDS]] == [np.pi * SHRINK ** k
                                                        for k in range(1, ROUNDS + 1)]
        assert {half for _, half in asked} == {half for _, half in asked[:ROUNDS]}
        centres = np.concatenate([centres.ravel() for centres, _ in asked])
        assert np.all((centres > -1.1) & (centres < 7.4))

    def test_rows_do_not_depend_on_the_blocking(self, monkeypatch):
        cs = np.cos(np.linspace(0.0, np.pi, 11))
        whole = oracle._search(cs)
        monkeypatch.setattr(oracle, "_BLOCK_POINTS", 3 * POINTS ** 2)  # blocks of 3, 3, 3, 2
        assert np.array_equal(_bits(oracle._search(cs)), _bits(whole))

    def test_memory_stays_within_one_block(self):
        # unblocked, the search peaks at 55 MiB: each (rows, 24, 24) temporary takes 8.8 MiB
        cs = np.cos(np.linspace(0.0, np.pi, 2_000))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            oracle._search(cs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


def _mesh_maximum(axis, c, roles):
    """Reference: the largest S on every cell of the 4-D mesh of ``axis``, one axis per angle."""
    a, a_prime, b, b_prime = np.ix_(axis, axis, axis, axis)
    return float(chsh.chsh_S_values(a, a_prime, b, b_prime, c, roles).max())


class TestSearchAgainstTheFullMesh:
    """The 2-D search is at least every 4-D mesh maximum and never above the optimum."""

    @pytest.mark.parametrize("roles", list(RoleAssignment))
    @pytest.mark.parametrize("c", [-1.0, -0.5, -0.0, 0.0, 5e-324, 0.0022, 0.5, 1.0])
    @pytest.mark.parametrize("points", [5, 6, 7, 8, POINTS])
    def test_search_is_bounded_by_the_mesh_and_the_optimum(self, roles, c, points):
        # at POINTS the mesh's (a, a') axes are round 0's own
        result = grid_search_max_S(c, roles)
        mesh_best = _mesh_maximum(np.linspace(0.0, 2 * np.pi, points, endpoint=False), c, roles)
        assert result.best_s >= mesh_best - 1e-15
        assert result.best_s <= 2 * np.sqrt(1 + c * c) + 1e-12


class TestMaxOverB:
    def test_closed_form_is_attained_and_dominates_random_b(self):
        rng = np.random.default_rng(20260)
        for _ in range(50):
            a, a_prime = rng.uniform(0, 2 * np.pi, 2)
            c = rng.uniform(-1, 1)
            value, b, b_prime = oracle._max_over_b(a, a_prime, c)
            for roles in RoleAssignment:
                attained = chsh.chsh_S(roles.bell_angles(a, a_prime, b, b_prime), c, roles)
                assert value == pytest.approx(attained, abs=1e-12)
            # STANDARD slots are (a, b, a', b')
            b_rand, bp_rand = rng.uniform(0, 2 * np.pi, (2, 1000))
            sampled = chsh.chsh_S_values(a, b_rand, a_prime, bp_rand, c,
                                         RoleAssignment.STANDARD)
            assert value >= sampled.max()


class TestStationarityCheck:
    @pytest.mark.parametrize("angles, c, roles, expected", [
        (chsh.analytic_optimal_angles(0.0), 1.0, RoleAssignment.STANDARD, "passed"),
        (BellAngles(0.3, 1.0, 2.0, 0.7), 1.0, RoleAssignment.LITERAL, "failed"),
        # all-equal angles zero out the first combination argument
        (BellAngles(0, 0, 0, 0), 1.0, RoleAssignment.STANDARD, "skipped"),
        # the second argument is 0 at c = 0, within ten steps of zero
        (chsh.analytic_optimal_angles(np.pi / 4), 0.0, RoleAssignment.STANDARD, "skipped"),
        # the first argument is 1.05e-3 at the angles, beyond 10*h, and 9.1e-4 at tL + h
        (BellAngles(np.pi / 4 - 7.42e-4, 0, 0, np.pi / 2), 1.0, RoleAssignment.STANDARD, "failed"),
    ], ids=["analytic-optimum", "non-stationary", "coincident-angles", "zero-contrast-kink",
            "just-outside-the-kink-band"])
    def test_outcome(self, angles, c, roles, expected):
        assert stationarity_check(angles, c, roles, 1e-4) is StationarityOutcome(expected)

    def test_stationary_across_loop_phases(self):
        for mu_lambda in np.linspace(0.0, np.pi, 11):
            c = chsh.contrast(mu_lambda)
            angles = chsh.analytic_optimal_angles(mu_lambda)
            outcome = stationarity_check(angles, c, RoleAssignment.STANDARD, 1e-4)
            # near zero contrast one combination argument vanishes: kink
            assert outcome in (StationarityOutcome.PASSED, StationarityOutcome.SKIPPED)
            if abs(c) > 0.01:
                assert outcome is StationarityOutcome.PASSED

    # 1e-17 and 1e-300 leave every angle unchanged, so all quotients would be 0
    @pytest.mark.parametrize("angles, h, rule", [
        ((1, 2, 3, 4), 0.0, "must be positive"), ((1, 2, 3, 4), np.nan, "must be finite"),
        ((1, 2, 3, 4), np.inf, "must be finite"), ((1, 2, 3, 4), 1e-17, "must move every angle"),
        ((1, 2, 3, 4), 1e-300, "must move every angle"),
        ((1e308, 0, 0, 0), 1e308, "must keep every angle finite"),
    ])
    def test_rejects_a_bad_step_naming_h(self, angles, h, rule):
        with pytest.raises(ValueError, match=f"step h .*{rule}"):
            stationarity_check(BellAngles(*angles), 0.5, RoleAssignment.STANDARD, h)

    # with several bad arguments the first in the order angles, roles, h, c is named
    @pytest.mark.parametrize("angles, c, roles, h, named", [
        ((0, 0, 0, 0), np.nan, "standard", np.nan, "angles"),
        (BellAngles(0, 0, 0, 0), np.nan, "standard", np.nan, "roles"),
        (BellAngles(0, 0, 0, 0), np.nan, RoleAssignment.STANDARD, np.nan, "step h"),
        (BellAngles(0, 0, 0, 0), 1.5, RoleAssignment.STANDARD, 0.0, "step h"),
        (BellAngles(1, 2, 3, 4), 1.5, RoleAssignment.STANDARD, 1e-17, "step h"),
        (BellAngles(1e308, 0, 0, 0), np.inf, RoleAssignment.STANDARD, 1e308, "step h"),
    ], ids=["angles-before-roles", "roles-before-h", "nan-h-before-c", "zero-h-before-c",
            "unmoving-h-before-c", "overflowing-h-before-c"])
    def test_names_the_first_bad_argument_in_check_order(self, angles, c, roles, h, named):
        with pytest.raises(ValueError, match=rf"^{named} must"):
            stationarity_check(angles, c, roles, h)


def _reference_stationarity(angles, c, roles, h):
    """Reference: the kink test on four E terms, then one angle at a time through chsh_S."""
    a, a_prime, b, b_prime = roles.slots(angles)
    e = chsh.expectation_closed_form
    terms = (e(a, b, c) - e(a, b_prime, c), e(a_prime, b, c) + e(a_prime, b_prime, c))
    if min(map(abs, terms)) <= 10.0 * h:
        return StationarityOutcome.SKIPPED

    def moved(i, step):  # S with angle i moved by step
        values = list(angles.as_tuple())
        values[i] += step
        return chsh.chsh_S(BellAngles(*values), c, roles)

    threshold = 10.0 * h * h * max(1.0, chsh.chsh_S(angles, c, roles))
    quotients = [(moved(i, h) - moved(i, -h)) / (2.0 * h) for i in range(4)]
    failed = max(map(abs, quotients)) > threshold
    return StationarityOutcome.FAILED if failed else StationarityOutcome.PASSED


@st.composite
def stationarity_inputs(draw):
    """(angles, c, roles): any angles at any contrast, or near the analytic optimum at its own."""
    roles = draw(st.sampled_from(list(RoleAssignment)))
    if draw(st.booleans()):
        return BellAngles(*draw(st.tuples(*[st.floats(-7.0, 7.0)] * 4))), draw(contrasts), roles
    mu_lambda = draw(st.floats(0.0, np.pi))
    optimum = RoleAssignment.STANDARD.slots(chsh.analytic_optimal_angles(mu_lambda))
    shift = draw(st.tuples(*[st.floats(-1e-3, 1e-3)] * 4))
    return roles.bell_angles(*np.add(optimum, shift)), chsh.contrast(mu_lambda), roles


@given(inputs=stationarity_inputs(), h=st.floats(1e-6, 1e-2),
       odd=st.sampled_from([None, None, "h", "c"]), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
@settings(max_examples=100, deadline=None)
def test_stationarity_check_is_the_one_angle_loop_or_rejects_nan_and_inf(inputs, h, odd, bad):
    angles, c, roles = inputs
    if odd is None:
        assert stationarity_check(*inputs, h) is _reference_stationarity(*inputs, h)
    else:  # NaN or inf in h or c
        with pytest.raises(ValueError, match=rf"\b{odd}\b"):
            stationarity_check(angles, bad if odd == "c" else c, roles, bad if odd == "h" else h)
