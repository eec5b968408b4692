import importlib.util
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from topobell import chsh, closed_form, entangled, optics, verify
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


def _load_spans(monkeypatch):
    """perfbench's span tracer module, imported from its file without writing bytecode."""
    spans_path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(spans)
    return spans


def test_suite_names_are_the_ones_the_benchmark_reports(monkeypatch):
    # the benchmark reads a suite it cannot find as zero seconds, so a renamed
    # suite would go unreported rather than fail
    spans = _load_spans(monkeypatch)
    names = [result.name for result in verify.run_suites(100)]
    assert names == list(spans.VERIFY_SUITES)


def test_run_suites_runs_every_traced_function_on_the_main_thread(monkeypatch):
    # the span tracer keeps one stack for the process, so a traced call on
    # chsh-bounds' worker would nest its span under whatever the main thread runs
    spans = _load_spans(monkeypatch)
    calls = []

    class ThreadTracer(spans.Tracer):
        def _wrap(self, layer, fn, measure=None):
            def on_thread(*args, **kwargs):
                calls.append((layer, threading.current_thread()))
                return fn(*args, **kwargs)

            return super()._wrap(layer, on_thread, measure)

    tracer = ThreadTracer()
    tracer.install()
    try:
        tracer.begin_unit()
        results = verify.run_suites(100)
    finally:
        tracer.uninstall()
    assert all(result.passed for result in results)
    layers = {layer for layer, _ in calls}
    assert {f"verify:{name}" for name in dir(verify) if name.startswith("_suite_")} <= layers
    assert {"optics", "linalg", "closed_form", "chsh.S_values"} <= layers
    assert [layer for layer, thread in calls if thread is not threading.main_thread()] == []


def _scaled(factor):
    """A planted fault: the function's output times ``factor``."""
    return lambda original: lambda *args, **fields: original(*args, **fields) * factor


def _rerouted(change):
    """A planted fault on ``scenario_probabilities``: it runs the scenario and
    fields that ``change(scenario, fields)`` returns in place of those asked for."""
    def plant(original):
        def faulty(scenario, theta_l, theta_r, **fields):
            scenario, fields = change(scenario, fields)
            return original(scenario, theta_l, theta_r, **fields)

        return faulty

    return plant


#: One planted fault per suite: (module, name, the fault made from the original
#: function, the suites that run_suites(100) then fails). Each is a plausible
#: bug in one route; a suite it reaches beside its own is listed with it.
PLANTED_FAULTS = {
    "linalg-unitarity": (
        verify, "phase_retarder", _scaled(1.001),
        {"linalg-unitarity", "optics-compact-form"}),
    "optics-compact-form": (
        verify, "mach_zehnder", lambda original: lambda theta: original(-theta),
        {"optics-compact-form"}),
    "distribution-validity": (
        verify, "scenario_probabilities", _scaled(1.0 + 1e-9),
        {"distribution-validity", "scenario-b-closed-form", "scenario-c-closed-form",
         "oracle-equivalence", "chsh-consistency"}),
    "scenario-b-closed-form": (
        closed_form, "scenario_b_probabilities",
        lambda original: lambda *args: original(*args)[..., [1, 0, 3, 2]],
        {"scenario-b-closed-form"}),
    # the sign of the interference term flipped
    "scenario-c-closed-form": (
        closed_form, "scenario_c_probabilities",
        lambda original: lambda tl, tr, k: original(tl, tr, np.pi - k),
        {"scenario-c-closed-form"}),
    "scenario-c-gauge": (
        verify, "scenario_probabilities",
        _rerouted(lambda s, f: (s, {**f, "lambda_r": 2.0 * f["lambda_r"]}
                                if s is Scenario.C else f)),
        {"scenario-c-gauge", "oracle-equivalence"}),
    # the left I_d negated; swapping the left I_u and I_d would pass, as only
    # I_u + I_d is observable on each side
    "scenario-a-topo-invariance": (
        verify, "scenario_probabilities",
        _rerouted(lambda s, f: (s, {**f, "i_d_l": -f["i_d_l"]} if "i_d_l" in f else f)),
        {"scenario-a-topo-invariance", "oracle-equivalence"}),
    "scenario-ab-reduction": (
        verify, "scenario_probabilities",
        _rerouted(lambda s, f: (Scenario.C, {"mu": 1.0, "lambda_l": f["flux"], "lambda_r": 0.0})
                  if s is Scenario.AB else (s, f)),
        {"scenario-ab-reduction", "oracle-equivalence"}),
    # scenario A without fields run as B
    "degiorgio-offset": (
        verify, "scenario_probabilities",
        _rerouted(lambda s, f: (Scenario.B if s is Scenario.A and not f else s, f)),
        {"degiorgio-offset", "scenario-a-topo-invariance"}),
    "oracle-equivalence": (
        verify, "brute_force_probabilities", _scaled(1.0 + 1e-9),
        {"oracle-equivalence"}),
    "chsh-consistency": (
        chsh, "expectation_closed_form",
        lambda original: lambda tl, tr, c: original(tl, tr, -c),
        {"chsh-consistency"}),
    # the fixed-angle half; _plant_fault below plants faults in the random half
    "chsh-bounds": (
        chsh, "fixed_angle_curve_S", lambda original: lambda mu_lambda: original(mu_lambda) + 1e-6,
        {"chsh-bounds", "chsh-consistency"}),
}


def test_every_suite_has_a_planted_fault_that_fails_it():
    assert list(PLANTED_FAULTS) == [result.name for result in verify.run_suites(1)]
    assert all(suite in failing for suite, (*_, failing) in PLANTED_FAULTS.items())


@pytest.mark.parametrize("suite", list(PLANTED_FAULTS))
def test_each_suite_fails_its_planted_fault(monkeypatch, suite):
    module, name, plant, failing = PLANTED_FAULTS[suite]
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    results = verify.run_suites(100)
    assert {result.name for result in results if not result.passed} == failing


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


def _plant_fault(monkeypatch, samples, column, lift=(4.0, 4.0)):
    """Make ``chsh._S_both_roles`` lift S at one angle column of the chsh-bounds
    draws of ``samples`` columns; returns the (dtype, size) of each call that
    holds the column.

    ``lift`` is added to both role assignments' S, its first entry at the
    drawn contrast and its second at zero. The column is found by its
    theta_l's cos and sin in the call's dtype, so both the float32 screen and
    the float64 check of its block hit it. The default lift makes S exceed
    every bound (at most 2*sqrt(2)) by more than 1, whatever the slack of the
    drawn point.
    """
    blocks, _ = _restated_chsh_blocks(samples)
    planted = np.hstack([rows for rows, _ in blocks])[0, column]
    s_both_roles = chsh._S_both_roles
    seen = []

    def faulty(cos, sin, c):
        # slot theta_l, read before _S_both_roles spends cos and sin
        angle = cos.dtype.type(planted)
        hit = (cos[0] == np.cos(angle)) & (sin[0] == np.sin(angle))
        if hit.any():
            seen.append((cos.dtype, hit.size))
        s = s_both_roles(cos, sin, c)
        return s + np.asarray(lift, s.dtype)[:, None] * hit

    monkeypatch.setattr(chsh, "_S_both_roles", faulty)
    return seen


#: What a plant in the last of 8,300 columns sees: the float32 screen of the last
#: block's 108 columns, then the float64 check of the planted column alone, as no
#: other column of those draws comes within the screen's margin of a bound.
PLANTED_LAST_BLOCK = [(np.float32, 108), (np.float64, 1)]


def test_chsh_bounds_checks_the_last_partial_block(monkeypatch):
    # 8,300 samples: one full block of 8,192 columns and a last one of 108
    seen = _plant_fault(monkeypatch, 8_300, -1)
    result = verify._suite_chsh_bounds(verify._rng(10), 83)
    assert seen == PLANTED_LAST_BLOCK
    assert not result.passed and result.worst_residual > 0.5


def test_run_suites_fails_chsh_bounds_on_a_fault_in_column_0_of_the_first_full_block(monkeypatch):
    seen = _plant_fault(monkeypatch, 8_300, 0)
    result = verify.run_suites(83)[-1]
    assert seen == [(np.float32, verify._CHSH_BLOCK), (np.float64, 1)]
    assert result.name == "chsh-bounds"
    assert not result.passed and result.worst_residual > 0.5


def _inflate_contrast(monkeypatch):
    """Make ``chsh._S_both_roles`` take S at contrast sign(c)*sqrt(|c|) in place of c."""
    s_both_roles = chsh._S_both_roles
    monkeypatch.setattr(chsh, "_S_both_roles",
                        lambda cos, sin, c: s_both_roles(cos, sin, np.sign(c) * np.sqrt(np.abs(c))))


def test_chsh_bounds_fails_a_contrast_inflated_inside_S(monkeypatch):
    # S at contrast sign(c)*sqrt(|c|) stays under 2*sqrt(2), and the zero row keeps
    # contrast 0, so only the bound 2*sqrt(1 + c*c) at the drawn c sees it (+0.206)
    _inflate_contrast(monkeypatch)
    result = verify._suite_chsh_bounds(verify._rng(10), 83)
    assert not result.passed and result.worst_residual > 0.2


def test_chsh_bounds_fails_a_column_lifted_just_past_its_bound(monkeypatch):
    # the last column sits far under its bound, where the screen alone would drop it;
    # lifted to 2e-9 past it in both dtypes, its float32 excess is within the screen's
    # margin, and the float64 check reports the excess over the 1e-9 tolerance
    blocks, _ = _restated_chsh_blocks(8_300)
    rows, contrasts = blocks[-1]
    exact = float(np.max(verify._excess(rows[:, -1:].copy(), contrasts[-1:])[0]))
    assert exact < -verify._SCREEN_MARGIN
    seen = _plant_fault(monkeypatch, 8_300, -1, lift=(2e-9 - exact, 0.0))
    result = verify._suite_chsh_bounds(verify._rng(10), 83)
    assert seen == PLANTED_LAST_BLOCK
    assert not result.passed and 1e-9 < result.worst_residual < 1e-8


def test_chsh_screen_is_within_a_64th_of_its_margin_of_float64():
    # every column of the budget-1000 draws, at both bounds
    worst = 0.0
    for rows, contrasts in verify._chsh_draws(verify._rng(10), verify._chsh_samples(1000)):
        screen = verify._excess(rows.astype(np.float32), contrasts.astype(np.float32))
        assert screen.dtype == np.float32
        exact = verify._excess(rows.copy(), contrasts)
        worst = max(worst, float(np.max(np.abs(screen - exact))))
    assert worst <= verify._SCREEN_MARGIN / 64


def _float64_random_bounds(samples):
    """chsh-bounds' random half restated without the screen: float64 over every column."""
    blocks, _ = _restated_chsh_blocks(samples)
    worst = 0.0
    for rows, contrasts in blocks:
        bound = 2.0 * np.sqrt(1.0 + contrasts * contrasts)
        s = chsh._S_both_roles(np.cos(rows), np.sin(rows), contrasts)
        worst = max(worst, float(np.max(s[:, 0] - bound)), float(np.max(s[:, 1]) - 2.0))
    return worst


@pytest.mark.parametrize("inflate", [False, True], ids=["as-drawn", "contrast-inflated"])
@pytest.mark.parametrize("draws", [1, 83, 1000])
def test_random_bounds_equal_the_float64_loop_over_every_column(monkeypatch, draws, inflate):
    # the drawn points stay under their bounds, so both give 0.0; with the contrast
    # inflated inside S the worst is a positive excess that one column sets, and the
    # screen must pass that column on to the float64 check
    if inflate:
        _inflate_contrast(monkeypatch)
    samples = verify._chsh_samples(draws)
    worst = verify._random_bounds(verify._chsh_draws(verify._rng(10), samples))
    assert worst.hex() == _float64_random_bounds(samples).hex()
    assert (worst > 0.1) is inflate


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


def test_run_suites_fails_chsh_bounds_on_a_fault_in_the_background_half(monkeypatch):
    seen = _plant_fault(monkeypatch, 8_300, -1)
    result = verify.run_suites(83)[-1]
    assert seen == PLANTED_LAST_BLOCK
    assert result.name == "chsh-bounds"
    assert not result.passed and result.worst_residual > 0.5
    # the worker's worst value is the one the suite computes inline
    assert result == verify._suite_chsh_bounds(verify._rng(10), 83)


@pytest.mark.parametrize("draws", [1, 100, 250])
def test_run_suites_drains_the_random_half_on_the_worker_alone(monkeypatch, draws):
    random_bounds = verify._random_bounds
    callers, takers = [], []

    def taken(blocks):
        for block in blocks:
            takers.append(threading.current_thread())
            yield block

    def spy(blocks):
        callers.append(threading.current_thread())
        return random_bounds(taken(blocks))

    monkeypatch.setattr(verify, "_random_bounds", spy)
    before = threading.active_count()
    result = verify.run_suites(draws)[-1]
    assert threading.active_count() == before
    # one call, on the worker, that takes every block of the stream
    assert len(callers) == 1 and callers[0] is not threading.main_thread()
    assert takers == callers * -(-verify._chsh_samples(draws) // verify._CHSH_BLOCK)
    assert result == verify._suite_chsh_bounds(verify._rng(10), draws)


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
    assert results["scenario-c-closed-form"] == verify._suite_scenario_c_closed_form(grid)
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
    # 15.6 float64 rows of a block: its five rows of draws, then in float32 its four
    # angle rows (then their sines), four cosines, contrasts and twelve pair terms, the
    # size of 2, 2, 0.5 and 6 float64 rows (1,019,176 B). The float64 check holds only
    # the columns near a bound, and a block frees all of it before the next (15.7 rows,
    # 1,027,344 B, for 3 blocks). Every column in float64 peaked at 22 (1,445,288 B)
    draws = verify._chsh_draws(verify._rng(10), blocks * verify._CHSH_BLOCK)
    worst, peak = _traced_peak(verify._random_bounds, draws)
    assert worst <= 1e-9
    assert peak < 23 * verify._CHSH_BLOCK * np.dtype(float).itemsize
