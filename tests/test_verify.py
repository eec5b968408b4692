import pytest

from topobell import verify


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


@pytest.mark.parametrize("heavy, light", [(0, 0), (0, 10), (10, -1)])
def test_draw_counts_below_one_are_rejected(heavy, light):
    with pytest.raises(ValueError, match="at least 1"):
        verify.run_suites(heavy, light)


def test_results_are_reproducible():
    first = verify.run_suites(heavy_draws=50, light_draws=20)
    second = verify.run_suites(heavy_draws=50, light_draws=20)
    assert first == second
