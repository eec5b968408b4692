import tracemalloc

import numpy as np
import pytest

from topobell import chsh, optics, verify
from topobell.entangled import Scenario


def test_all_suites_pass_at_reduced_draws():
    results = verify.run_suites(heavy_draws=200, light_draws=50)
    assert len(results) == 12
    for result in results:
        assert result.passed, f"{result.name}: residual {result.worst_residual}"
        assert result.worst_residual <= result.tolerance


def test_injected_sign_fault_fails_only_the_scenario_c_suite():
    results = verify.run_suites(heavy_draws=100, light_draws=20,
                                inject_fault=verify.FAULT_SCENARIO_C_SIGN)
    by_name = {r.name: r for r in results}
    assert not by_name["scenario-c-closed-form"].passed
    assert by_name["scenario-c-closed-form"].worst_residual > 0.1
    others = [r for r in results if r.name != "scenario-c-closed-form"]
    assert all(r.passed for r in others)


def test_unknown_fault_is_rejected():
    with pytest.raises(ValueError, match="unknown fault"):
        verify.run_suites(heavy_draws=10, light_draws=10, inject_fault="no-such-fault")


@pytest.mark.parametrize("heavy, light, message", [
    (0, 0, "at least 1"), (0, 10, "at least 1"), (10, -1, "at least 1"),
    (float("inf"), 10, "heavy_draws must be an integer"),
    (2.7, 10, "heavy_draws must be an integer"),
    (10, True, "light_draws must be an integer"),
    ("10", 10, "heavy_draws must be an integer"),
])
def test_draw_counts_below_one_or_not_integers_are_rejected(heavy, light, message):
    with pytest.raises(ValueError, match=message):
        verify.run_suites(heavy, light)


def test_results_are_reproducible():
    first = verify.run_suites(heavy_draws=50, light_draws=20)
    second = verify.run_suites(heavy_draws=50, light_draws=20)
    assert first == second


def _parent_scenario_params(rng, scenario):
    """The per-point draws of one scenario point, in the order the suites drew them."""
    theta_l, theta_r = rng.uniform(0.0, 2.0 * np.pi, size=2)
    if scenario is Scenario.A:
        fields = [rng.uniform(-2, 2), *rng.uniform(-3, 3, size=4)]
    elif scenario is Scenario.B:
        fields = []
    elif scenario is Scenario.C:
        fields = [rng.uniform(-2, 2), *rng.uniform(-3, 3, size=2)]
    else:
        fields = [rng.uniform(-6, 6)]
    return [theta_l, theta_r, *fields]


def _per_scenario_loop(rng, draws):
    return [np.array([_parent_scenario_params(rng, s) for _ in range(draws)]) for s in Scenario]


def _point_loop(*tail):
    def loop(rng, draws):
        rows = []
        for _ in range(draws):
            row = list(rng.uniform(0.0, 2.0 * np.pi, size=2))
            for low, high, size in tail:
                row += list(rng.uniform(low, high, size=size)) if size else [rng.uniform(low, high)]
            rows.append(row)
        return [np.array(rows)]
    return loop


#: Each random suite's draws as a loop of per-point ``rng.uniform`` calls,
#: one array of rows per batched draw, with the suite's index in run_suites.
PER_POINT_DRAWS = {
    "_suite_distribution_validity": (3, _per_scenario_loop),
    "_suite_scenario_c_gauge": (4, _point_loop((-3.0, 3.0, 4))),
    "_suite_scenario_a_topo_invariance": (5, _point_loop((-3.0, 3.0, 3))),
    "_suite_scenario_ab_reduction": (6, _point_loop((-10.0, 10.0, None))),
    "_suite_degiorgio": (7, _point_loop()),
    "_suite_oracle_equivalence": (8, _per_scenario_loop),
}


@pytest.mark.parametrize("suite", sorted(PER_POINT_DRAWS))
def test_batched_draws_equal_the_per_point_stream(suite, monkeypatch):
    recorded = []
    uniform_columns = verify._uniform_columns

    def spy(rng, draws, *ranges):
        columns = uniform_columns(rng, draws, *ranges)
        recorded.append(np.column_stack(columns))
        return columns

    monkeypatch.setattr(verify, "_uniform_columns", spy)
    index, loop = PER_POINT_DRAWS[suite]
    rng = verify._rng(index)
    assert getattr(verify, suite)(rng, 300).passed
    loop_rng = verify._rng(index)
    expected = loop(loop_rng, 300)
    assert len(recorded) == len(expected)
    for got, want in zip(recorded, expected):
        assert np.array_equal(got, want)
    assert rng.bit_generator.state == loop_rng.bit_generator.state


def test_chsh_bounds_draws_the_same_stream():
    rng = verify._rng(10)
    assert verify._suite_chsh_bounds(rng, 83).passed
    restated = verify._rng(10)
    samples = 8_300
    restated.uniform(0.0, 2.0 * np.pi, size=(4, samples))
    restated.uniform(-1.0, 1.0, size=samples)
    restated.uniform(-10.0, 10.0, size=256)
    assert rng.bit_generator.state == restated.bit_generator.state


def test_optics_draws_the_same_stream():
    rng = verify._rng(2)
    assert verify._suite_optics(rng).passed
    restated = verify._rng(2)
    restated.uniform(-10.0, 10.0, size=1000)
    restated.uniform(-10.0, 10.0, size=(200, 2))
    assert rng.bit_generator.state == restated.bit_generator.state


def test_optics_stacked_product_equals_the_per_point_products():
    # the suite's theta draws through bs @ R @ bs, once as the array call and once per point
    theta = verify._rng(2).uniform(-10.0, 10.0, size=1000)
    bs = optics.beam_splitter()
    stacked = bs @ optics.phase_retarder(theta) @ bs
    per_point = np.array([bs @ optics.phase_retarder(t) @ bs for t in theta])
    np.testing.assert_array_equal(stacked, per_point)


def test_chsh_bounds_checks_the_last_partial_block(monkeypatch):
    # 8,300 samples: one full block of 8,192 columns and a last one of 108
    planted = verify._rng(10).uniform(0.0, 2.0 * np.pi, size=(4, 8_300))[0, -1]
    s_from_trig = chsh._S_from_trig
    seen = []

    def faulty(a, *rest):
        # slot theta_l is role a under both assignments
        hit = (a[0] == np.cos(planted)) & (a[1] == np.sin(planted))
        if hit.any():
            seen.append(np.size(hit))
        return s_from_trig(a, *rest) + hit

    monkeypatch.setattr(chsh, "_S_from_trig", faulty)
    result = verify._suite_chsh_bounds(verify._rng(10), 83)
    assert seen == [108, 108]
    assert not result.passed and result.worst_residual > 0.5


def test_chsh_bounds_memory_is_bounded():
    # the default budget's draws alone take 38.1 MiB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert verify._suite_chsh_bounds(verify._rng(10), 10_000).passed
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 45 * 2**20
