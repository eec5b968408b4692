import importlib.util
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from topobell import chsh, entangled, optics, verify
from topobell.entangled import Scenario


def test_all_suites_pass_at_reduced_draws():
    results = verify.run_suites(500)
    assert len(results) == 12
    for result in results:
        assert result.passed, f"{result.name}: residual {result.worst_residual}"
        assert result.worst_residual <= result.tolerance


def test_one_budget_sets_every_suites_draws(monkeypatch):
    # a budget of 9: the pairwise suites take a tenth, at least 1, the others all of it
    pairwise = {"_suite_scenario_c_gauge", "_suite_scenario_a_topo_invariance",
                "_suite_scenario_ab_reduction", "_suite_degiorgio"}
    random_suites = [*PER_POINT_DRAWS, "_suite_chsh_bounds"]
    taken = {}
    for name in random_suites:
        def spy(rng, draws, *rest, suite=getattr(verify, name), name=name):
            taken[name] = draws
            return suite(rng, draws, *rest)

        monkeypatch.setattr(verify, name, spy)
    results = verify.run_suites(9)
    assert len(results) == 12 and all(result.passed for result in results)
    assert taken == {name: 1 if name in pairwise else 9 for name in random_suites}


def test_suite_names_are_the_ones_the_benchmark_reports(monkeypatch):
    # the benchmark reads a suite it cannot find as zero seconds, so a renamed
    # suite would go unreported rather than fail
    spans_path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(spans)
    names = [result.name for result in verify.run_suites(100)]
    assert names == list(spans.VERIFY_SUITES)


def test_injected_sign_fault_fails_only_the_scenario_c_suite():
    results = verify.run_suites(200, inject_fault=verify.FAULT_SCENARIO_C_SIGN)
    by_name = {r.name: r for r in results}
    assert not by_name["scenario-c-closed-form"].passed
    assert by_name["scenario-c-closed-form"].worst_residual > 0.1
    others = [r for r in results if r.name != "scenario-c-closed-form"]
    assert all(r.passed for r in others)


def test_unknown_fault_is_rejected():
    with pytest.raises(ValueError, match="unknown fault"):
        verify.run_suites(100, inject_fault="no-such-fault")


@pytest.mark.parametrize("draws, message", [
    (0, "at least 1"), (-1, "at least 1"), (2.7, "an integer"), (True, "an integer"),
    ("10", "an integer"), (float("inf"), "an integer"),
])
def test_a_budget_below_one_or_not_an_integer_is_rejected(draws, message):
    with pytest.raises(ValueError, match=f"draws must be {message}"):
        verify.run_suites(draws)


def test_results_are_reproducible():
    first = verify.run_suites(200)
    second = verify.run_suites(200)
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


@pytest.mark.parametrize("suite, block", [
    *[pytest.param(suite, None, id=suite) for suite in sorted(PER_POINT_DRAWS)],
    # 300 points per scenario in blocks of 128, 128 and 44
    *[pytest.param(suite, 128, id=f"{suite}-block128")
      for suite in ("_suite_distribution_validity", "_suite_oracle_equivalence")],
])
def test_batched_draws_equal_the_per_point_stream(suite, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(verify, "_CHSH_BLOCK", block)
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
    # one recorded draw per block of each of the loop's arrays
    expected = [part for rows in loop(loop_rng, 300)
                for part in np.split(rows, range(verify._CHSH_BLOCK, len(rows), verify._CHSH_BLOCK))]
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


def _restated_chsh_blocks(samples):
    """The chsh-bounds draws of ``samples`` columns, restated: the k-th
    ``random((5, n))`` of the suite's generator, angles and contrasts scaled."""
    restated = verify._rng(10)
    blocks = []
    for start in range(0, samples, verify._CHSH_BLOCK):
        u = restated.random((5, min(verify._CHSH_BLOCK, samples - start)))
        blocks.append((u[:4] * (2.0 * np.pi), u[4] * 2.0 - 1.0))
    return blocks, restated


def _plant_fault(monkeypatch, samples, column):
    """Make ``chsh._S_both_roles`` add 4 to every S at one angle column of the
    chsh-bounds draws of ``samples`` columns; returns the sizes of the hit blocks.

    S + 4 exceeds every bound (at most 2*sqrt(2)) by more than 1, whatever
    the slack of the drawn point.
    """
    blocks, _ = _restated_chsh_blocks(samples)
    planted = np.hstack([rows for rows, _ in blocks])[0, column]
    s_both_roles = chsh._S_both_roles
    seen = []

    def faulty(cos, sin, c):
        # slot theta_l, read before _S_both_roles spends cos and sin
        hit = (cos[0] == np.cos(planted)) & (sin[0] == np.sin(planted))
        if hit.any():
            seen.append(np.size(hit))
        return s_both_roles(cos, sin, c) + 4.0 * hit

    monkeypatch.setattr(chsh, "_S_both_roles", faulty)
    return seen


def test_chsh_bounds_checks_the_last_partial_block(monkeypatch):
    # 8,300 samples: one full block of 8,192 columns and a last one of 108
    seen = _plant_fault(monkeypatch, 8_300, -1)
    result = verify._suite_chsh_bounds(verify._rng(10), 83)
    assert seen == [108]
    assert not result.passed and result.worst_residual > 0.5


def test_run_suites_fails_chsh_bounds_on_a_fault_in_column_0_of_the_first_full_block(monkeypatch):
    seen = _plant_fault(monkeypatch, 8_300, 0)
    result = verify.run_suites(83)[-1]
    assert seen == [verify._CHSH_BLOCK]
    assert result.name == "chsh-bounds"
    assert not result.passed and result.worst_residual > 0.5


def test_chsh_bounds_fails_a_contrast_inflated_inside_S(monkeypatch):
    # S at contrast sign(c)*sqrt(|c|) stays under 2*sqrt(2), and the zero row keeps
    # contrast 0, so only the bound 2*sqrt(1 + c*c) at the drawn c sees it (+0.206)
    s_both_roles = chsh._S_both_roles
    monkeypatch.setattr(chsh, "_S_both_roles",
                        lambda cos, sin, c: s_both_roles(cos, sin, np.sign(c) * np.sqrt(np.abs(c))))
    result = verify._suite_chsh_bounds(verify._rng(10), 83)
    assert not result.passed and result.worst_residual > 0.2


@pytest.mark.parametrize("samples", [8_300, 100_000])
def test_chsh_draws_read_the_stream_block_by_block(samples):
    rng = verify._rng(10)
    rows, contrasts = zip(*verify._chsh_draws(rng, samples))
    assert [len(c) for c in contrasts] == [min(verify._CHSH_BLOCK, samples - start)
                                           for start in range(0, samples, verify._CHSH_BLOCK)]
    assert sum(len(c) for c in contrasts) == samples
    assert [block.shape for block in rows] == [(4, len(c)) for c in contrasts]
    restated, restated_rng = _restated_chsh_blocks(samples)
    for block, c, (want_rows, want_c) in zip(rows, contrasts, restated):
        assert np.array(block).tobytes() == want_rows.tobytes()
        assert c.tobytes() == want_c.tobytes()
    # the drained stream leaves rng where the restatement's draws leave it
    assert rng.bit_generator.state == restated_rng.bit_generator.state


def test_threads_draining_one_stream_take_each_block_once():
    samples = 40 * verify._CHSH_BLOCK + 5
    alone = {contrasts.tobytes(): np.array(rows).tobytes()
             for rows, contrasts in verify._chsh_draws(verify._rng(10), samples)}
    draws = verify._chsh_draws(verify._rng(10), samples)
    taken = [[] for _ in range(4)]  # more threads than cores, each draining into its own list

    def drain(blocks):
        blocks.extend(draws)

    threads = [threading.Thread(target=drain, args=(blocks,)) for blocks in taken]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    together = [(contrasts.tobytes(), np.array(rows).tobytes())
                for blocks in taken for rows, contrasts in blocks]
    assert len(together) == len(alone) == 41
    assert dict(together) == alone


def test_run_suites_fails_chsh_bounds_on_a_fault_in_the_background_half(monkeypatch):
    seen = _plant_fault(monkeypatch, 8_300, -1)
    result = verify.run_suites(83)[-1]
    assert seen == [108]
    assert result.name == "chsh-bounds"
    assert not result.passed and result.worst_residual > 0.5
    # the worker's worst value is the one the suite computes inline
    assert result == verify._suite_chsh_bounds(verify._rng(10), 83)


def test_run_suites_drains_the_random_half_on_a_worker_and_the_main_thread(monkeypatch):
    random_bounds = verify._random_bounds
    threads = []

    def spy(draws):
        threads.append(threading.current_thread())
        return random_bounds(draws)

    monkeypatch.setattr(verify, "_random_bounds", spy)
    before = threading.active_count()
    result = verify.run_suites(100)[-1]
    assert threading.active_count() == before
    assert len(threads) == 2
    assert sorted(thread is threading.main_thread() for thread in threads) == [False, True]
    assert result == verify._suite_chsh_bounds(verify._rng(10), 100)


def test_run_suites_fails_chsh_bounds_on_a_fault_in_a_block_the_main_thread_takes(monkeypatch):
    seen = _plant_fault(monkeypatch, 8_300, -1)
    random_bounds = verify._random_bounds
    drained = threading.Event()
    takers = []

    def taken(draws):
        for block in draws:
            takers.append(threading.current_thread())
            yield block

    def spy(draws):
        # the worker waits until the main thread has drained every block
        if threading.current_thread() is not threading.main_thread():
            drained.wait(timeout=60.0)
            return random_bounds(taken(draws))
        try:
            return random_bounds(taken(draws))
        finally:
            drained.set()

    monkeypatch.setattr(verify, "_random_bounds", spy)
    result = verify.run_suites(83)[-1]
    assert takers == [threading.main_thread()] * 2
    assert seen == [108]
    assert result.name == "chsh-bounds"
    assert not result.passed and result.worst_residual > 0.5
    assert result == verify._suite_chsh_bounds(verify._rng(10), 83)


def test_scenario_b_grid_builds_one_side_matrix_per_angle(monkeypatch):
    # 100 angles per side: the sides keep their own shapes, not the 100 x 100 grid's
    interferometers = entangled._interferometers
    built = []

    def spy(theta):
        built.append(theta.size)
        return interferometers(theta)

    monkeypatch.setattr(entangled, "_interferometers", spy)
    assert verify._suite_scenario_b_closed_form().passed
    assert built == [100, 100]


def test_run_suites_simulates_the_scenario_c_grid_once(monkeypatch):
    scenario_probabilities = verify.scenario_probabilities
    grids = []

    def spy(scenario, *args, **fields):
        p = scenario_probabilities(scenario, *args, **fields)
        if scenario is Scenario.C and p.shape == (20, 20, 25, 4):
            grids.append(p)
        return p

    monkeypatch.setattr(verify, "scenario_probabilities", spy)
    results = {result.name: result for result in verify.run_suites(100)}
    assert len(grids) == 1
    # each suite gives the same result on a grid simulated apart
    grid = verify._scenario_c_grid()
    assert results["scenario-c-closed-form"] == verify._suite_scenario_c_closed_form(None, grid)
    assert results["chsh-consistency"] == verify._suite_chsh_consistency(grid)
    assert len(grids) == 2


@pytest.mark.parametrize("name", ["_random_bounds", "_suite_linalg"])
def test_run_suites_raises_what_the_worker_or_a_suite_raises(monkeypatch, name):
    # _random_bounds runs on the worker, _suite_linalg on the main thread
    def broken(*args):
        raise RuntimeError(f"planted in {name}")

    monkeypatch.setattr(verify, name, broken)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"planted in {name}"):
        verify.run_suites(100)
    assert threading.active_count() == before


def test_run_suites_raises_what_only_the_worker_raises(monkeypatch):
    # the main thread's share of the blocks returns, so only the worker's result carries the error
    random_bounds = verify._random_bounds

    def spy(draws):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("planted on the worker")
        return random_bounds(draws)

    monkeypatch.setattr(verify, "_random_bounds", spy)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="planted on the worker"):
        verify.run_suites(100)
    assert threading.active_count() == before


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return value, peak


def test_chsh_bounds_memory_is_bounded():
    # the default budget's draws alone take 38.1 MiB; the suite reads them block by block
    result, peak = _traced_peak(verify._suite_chsh_bounds, verify._rng(10), 10_000)
    assert result.passed
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("suite", ["_suite_distribution_validity", "_suite_oracle_equivalence"])
def test_scenario_suites_memory_is_bounded_by_one_block(suite):
    # each scenario's points are drawn and simulated one block at a time
    index = PER_POINT_DRAWS[suite][0]
    peaks = []
    for draws in (verify._CHSH_BLOCK, 3 * verify._CHSH_BLOCK):
        result, peak = _traced_peak(getattr(verify, suite), verify._rng(index), draws)
        assert result.passed
        peaks.append(peak)
    assert peaks[1] <= 1.25 * peaks[0]


@pytest.mark.parametrize("blocks", [1, 3])
def test_chsh_blocks_peak_below_23_rows_of_one_block(blocks):
    # 22 float64 rows of a block: the four angle rows (then their sines), the
    # contrasts, the bound, the four cosines and the twelve pair terms; a block frees
    # them before the next. A cos and sin per angle row and twelve pair-term arrays
    # peaked at 32 rows for one block, 2,102,688 B, and at 34 rows for more
    draws = verify._chsh_draws(verify._rng(10), blocks * verify._CHSH_BLOCK)
    worst, peak = _traced_peak(verify._random_bounds, draws)
    assert worst <= 1e-9
    assert peak < 23 * verify._CHSH_BLOCK * np.dtype(float).itemsize
