"""The batched entry points: the same numbers as the scalar API, and a guarded boundary."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from topobell import chsh, closed_form, entangled, optics
from topobell.entangled import (
    PhaseMode,
    Scenario,
    TopoPhaseSpec,
    run_scenario,
    scenario_probabilities,
)
from topobell.oracle import brute_force_distribution, brute_force_probabilities

DRAWS = 10_000
SEED = 20261018

#: Each scenario's phase mode and the half-width of each field's draw range.
PHASE_FIELDS = {
    Scenario.A: (PhaseMode.PATH_INTEGRALS,
                 {"mu": 2.0, "i_u_l": 3.0, "i_d_l": 3.0, "i_u_r": 3.0, "i_d_r": 3.0}),
    Scenario.B: (None, {}),
    Scenario.C: (PhaseMode.SPIN_CONDITIONED, {"mu": 2.0, "lambda_l": 3.0, "lambda_r": 3.0}),
    Scenario.AB: (PhaseMode.SPIN_INDEPENDENT_AB, {"flux": 6.0}),
}

#: Scenario A with and without per-arm phases, and the other three scenarios.
CASES = [(Scenario.A, True), (Scenario.A, False), (Scenario.B, False),
         (Scenario.C, True), (Scenario.AB, True)]
CASE_IDS = ["A", "A-plain", "B", "C", "AB"]

#: The two batched routes, which share one batch check.
ENTRY_POINTS = {
    "scenario_probabilities": scenario_probabilities,
    "brute_force_probabilities": brute_force_probabilities,
}


def _draws(scenario, with_fields, n=DRAWS):
    rng = np.random.default_rng([SEED, list(Scenario).index(scenario)])
    theta_l, theta_r = rng.uniform(0.0, 2.0 * np.pi, size=(2, n))
    ranges = PHASE_FIELDS[scenario][1] if with_fields else {}
    fields = {name: rng.uniform(-half, half, n) for name, half in ranges.items()}
    return theta_l, theta_r, fields


def _specs(scenario, fields, n=DRAWS):
    if not fields:
        return [None] * n
    mode = PHASE_FIELDS[scenario][0]
    return [TopoPhaseSpec(mode, **{name: float(v[i]) for name, v in fields.items()})
            for i in range(n)]


@pytest.mark.parametrize("scenario, with_fields", CASES, ids=CASE_IDS)
def test_scalar_runners_are_rows_of_the_batched_kernel(scenario, with_fields):
    theta_l, theta_r, fields = _draws(scenario, with_fields)
    batched = scenario_probabilities(scenario, theta_l, theta_r, **fields)
    scalar = [run_scenario(scenario, a, b, topo).as_array()
              for a, b, topo in zip(theta_l, theta_r, _specs(scenario, fields))]
    assert np.array_equal(np.array(scalar), batched)


def _composed_from_constructors(scenario, theta_l, theta_r, fields):
    """The distributions from the public optics constructors, one array call per side."""
    bs = optics.beam_splitter()
    phases = (1, 1)
    if scenario is Scenario.A:
        arms = [optics.path_phase_operator(fields[f"i_u_{side}"], fields[f"i_d_{side}"],
                                           fields["mu"])
                if fields else np.eye(2, dtype=complex) for side in "lr"]
        m_l, m_r = (bs @ arm @ optics.phase_retarder(t)
                    for arm, t in zip(arms, (theta_l, theta_r)))
        m_r = m_r[..., ::-1, :]  # mirrored right side
    else:
        m_l, m_r = (bs @ optics.phase_retarder(t) @ bs for t in (theta_l, theta_r))
    if scenario is Scenario.C:
        # each point's product as Python takes it: numpy's complex multiply may round differently
        phases = [np.array([complex(u) * complex(d) for u, d in zip(
            optics.spin_loop_phase(s, fields["mu"], fields["lambda_l"]),
            optics.spin_loop_phase(-s, fields["mu"], fields["lambda_r"]))])[:, None, None]
            for s in (1, -1)]
    elif scenario is Scenario.AB:
        phases = (np.exp(-1j * fields["flux"])[:, None, None],) * 2
    return entangled._joint_probabilities(m_l, m_r, *phases)


@pytest.mark.parametrize("scenario, with_fields", CASES, ids=CASE_IDS)
def test_kernel_rows_equal_the_composed_optics_constructors(scenario, with_fields):
    # the kernel builds its side matrices and branch phases in its own
    # layout; composed from the public constructors they give the same bits
    theta_l, theta_r, fields = _draws(scenario, with_fields, 1_000)
    batched = scenario_probabilities(scenario, theta_l, theta_r, **fields)
    assert np.array_equal(_composed_from_constructors(scenario, theta_l, theta_r, fields),
                          batched)


#: Angles where a sign of zero, a quarter or a full turn, or a large argument of exp
#: could move a bit; every ordered pair of them is one row.
EDGE_ANGLES = (0.0, -0.0, np.pi / 2, 2.0 * np.pi, 1e6, -1e6)

#: Field rows at the edges of each scenario's phases: equal loop integrals and a
#: zero dipole of either sign in C, zero flux in AB, zero and equal arm integrals in A.
EDGE_FIELDS = {
    "A": [dict(mu=0.7, i_u_l=0.0, i_d_l=0.0, i_u_r=0.0, i_d_r=0.0),
          dict(mu=0.7, i_u_l=0.3, i_d_l=0.3, i_u_r=-1.1, i_d_r=-1.1),
          dict(mu=-0.0, i_u_l=0.3, i_d_l=-1.1, i_u_r=2.0, i_d_r=0.4)],
    "A-plain": [{}],
    "B": [{}],
    "C": [dict(mu=1.3, lambda_l=0.7, lambda_r=0.7),
          dict(mu=0.0, lambda_l=0.7, lambda_r=-0.4),
          dict(mu=-0.0, lambda_l=0.7, lambda_r=-0.4),
          dict(mu=1.3, lambda_l=-0.0, lambda_r=0.0)],
    "AB": [dict(flux=0.0), dict(flux=-0.0)],
}


@pytest.mark.parametrize("case, row", [(case, row) for case in CASE_IDS
                                       for row in range(len(EDGE_FIELDS[case]))])
def test_edge_rows_are_rows_of_the_batched_kernel_bit_for_bit(case, row):
    scenario = CASES[CASE_IDS.index(case)][0]
    point = EDGE_FIELDS[case][row]
    theta_l, theta_r = (np.array(a) for a in zip(*itertools.product(EDGE_ANGLES, repeat=2)))
    fields = {name: np.full(theta_l.shape, value) for name, value in point.items()}
    batched = scenario_probabilities(scenario, theta_l, theta_r, **fields)
    topo = TopoPhaseSpec(PHASE_FIELDS[scenario][0], **point) if point else None
    scalar = np.array([run_scenario(scenario, a, b, topo).as_array()
                       for a, b in zip(theta_l.tolist(), theta_r.tolist())])
    composed = _composed_from_constructors(scenario, theta_l, theta_r, fields)
    assert np.array_equal(scalar.view(np.uint64), batched.view(np.uint64))
    assert np.array_equal(composed.view(np.uint64), batched.view(np.uint64))


@pytest.mark.parametrize("scenario, with_fields", CASES, ids=CASE_IDS)
def test_oracle_distribution_is_a_row_of_the_batched_oracle(scenario, with_fields):
    theta_l, theta_r, fields = _draws(scenario, with_fields)
    batched = brute_force_probabilities(scenario, theta_l, theta_r, **fields)
    scalar = [brute_force_distribution(scenario, a, b, topo).as_array()
              for a, b, topo in zip(theta_l, theta_r, _specs(scenario, fields))]
    assert np.array_equal(np.array(scalar), batched)


def test_closed_form_distributions_are_rows_of_the_batched_forms():
    rng = np.random.default_rng([SEED, 9])
    theta_l, theta_r = rng.uniform(0.0, 2.0 * np.pi, size=(2, DRAWS))
    two_ml = rng.uniform(-6.0, 6.0, DRAWS)
    b = [closed_form.scenario_b_distribution(x, y).as_array() for x, y in zip(theta_l, theta_r)]
    assert np.array_equal(np.array(b), closed_form.scenario_b_probabilities(theta_l, theta_r))
    c = [closed_form.scenario_c_distribution(x, y, k).as_array()
         for x, y, k in zip(theta_l, theta_r, two_ml)]
    assert np.array_equal(np.array(c),
                          closed_form.scenario_c_probabilities(theta_l, theta_r, two_ml))


def test_inputs_broadcast_against_each_other():
    angles = np.linspace(0.0, np.pi, 5)
    mu_lambdas = np.linspace(0.0, 1.0, 3)
    p = scenario_probabilities(Scenario.C, angles[:, None, None], angles[None, :, None],
                               mu=1.0, lambda_l=mu_lambdas, lambda_r=0.0)
    assert p.shape == (5, 5, 3, 4)
    one = run_scenario(Scenario.C, angles[1], angles[2],
                       TopoPhaseSpec.spin_conditioned(1.0, mu_lambdas[2], 0.0))
    assert np.array_equal(p[1, 2, 2], one.as_array())
    assert scenario_probabilities(Scenario.B, 0.1, 0.2).shape == (4,)


#: Angle shapes of the left and right sides; the fields take the right side's shape.
SHAPES = {"scalar": ((), ()), "one": ((1,), (1,)), "grid": ((3, 5), (3, 5)),
          "outer": ((4, 1), (1, 6))}
SIDE_STACK_SCENARIOS = [Scenario.B, Scenario.C, Scenario.AB]


@pytest.mark.parametrize("scenario", SIDE_STACK_SCENARIOS, ids=lambda s: s.value)
@pytest.mark.parametrize("shape_l, shape_r", SHAPES.values(), ids=list(SHAPES))
def test_side_stacks_equal_the_runners_at_every_shape(scenario, shape_l, shape_r):
    rng = np.random.default_rng([SEED, 10, list(Scenario).index(scenario)])
    theta_l = rng.uniform(0.0, 2.0 * np.pi, shape_l)
    theta_r = rng.uniform(0.0, 2.0 * np.pi, shape_r)
    mode, ranges = PHASE_FIELDS[scenario]
    fields = {name: rng.uniform(-half, half, shape_r) for name, half in ranges.items()}
    p = scenario_probabilities(scenario, theta_l, theta_r, **fields)
    shape = np.broadcast_shapes(shape_l, shape_r)
    assert p.shape == shape + (4,)
    theta_l, theta_r = np.broadcast_to(theta_l, shape), np.broadcast_to(theta_r, shape)
    for index in np.ndindex(shape):
        point = {name: float(np.broadcast_to(v, shape)[index]) for name, v in fields.items()}
        topo = TopoPhaseSpec(mode, **point) if mode else None
        one = run_scenario(scenario, float(theta_l[index]), float(theta_r[index]), topo)
        assert np.array_equal(p[index], one.as_array())


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("scenario, with_fields", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("shape_l, shape_r, shape_fields", [
    ((4, 1, 1), (1, 6, 1), (1, 1, 5)),
    ((4, 1), (1, 6), ()),
    ((), (), (7,)),
    ((3, 1, 1), (3, 1, 1), (1, 2, 5)),
], ids=["axes", "scalar-fields", "scalar-angles", "fields-wider"])
def test_sparse_grids_equal_the_dense_call_bit_for_bit(entry, scenario, with_fields,
                                                        shape_l, shape_r, shape_fields):
    # each kernel builds the side matrices or chains at the angles' shape and the
    # branch phases at the fields' shape; broadcast up front, every input has the full shape
    batched = ENTRY_POINTS[entry]
    rng = np.random.default_rng([SEED, 11, list(Scenario).index(scenario)])
    theta_l = rng.uniform(0.0, 2.0 * np.pi, shape_l)
    theta_r = rng.uniform(0.0, 2.0 * np.pi, shape_r)
    ranges = PHASE_FIELDS[scenario][1] if with_fields else {}
    fields = {name: rng.uniform(-half, half, shape_fields) for name, half in ranges.items()}
    sparse = batched(scenario, theta_l, theta_r, **fields)
    shape = np.broadcast_shapes(shape_l, shape_r, *(v.shape for v in fields.values()))
    dense = batched(scenario, np.broadcast_to(theta_l, shape), np.broadcast_to(theta_r, shape),
                    **{name: np.broadcast_to(v, shape) for name, v in fields.items()})
    assert sparse.shape == dense.shape == shape + (4,)
    assert sparse.tobytes() == dense.tobytes()


@pytest.mark.parametrize("scenario", SIDE_STACK_SCENARIOS, ids=lambda s: s.value)
@pytest.mark.parametrize("shape", [(0,), (0, 3)], ids=str)
def test_empty_inputs_give_empty_rows(scenario, shape):
    fields = {name: np.zeros(shape) for name in PHASE_FIELDS[scenario][1]}
    p = scenario_probabilities(scenario, np.zeros(shape), np.zeros(shape), **fields)
    assert p.shape == shape + (4,)


# ---- the boundary, as properties -------------------------------------------

FOREIGN = {Scenario.A: "flux", Scenario.B: "mu", Scenario.C: "i_u_l", Scenario.AB: "lambda_l"}

moderate = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
any_finite = st.floats(allow_nan=False, allow_infinity=False)
non_finite = st.sampled_from([np.nan, np.inf, -np.inf])
scenarios = st.sampled_from(list(Scenario))


@st.composite
def batches(draw, scenario, values=moderate):
    """Angles and fields of ``scenario``: each a scalar or an array of one common length."""
    n = draw(st.integers(min_value=1, max_value=4))
    names = ["theta_l", "theta_r", *PHASE_FIELDS[scenario][1]]
    if scenario is Scenario.A and draw(st.booleans()):
        names = names[:2]
    inputs = {}
    for name in names:
        if draw(st.booleans()):
            inputs[name] = draw(values)
        else:
            inputs[name] = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return inputs


def _call(entry, scenario, inputs):
    inputs = dict(inputs)
    return ENTRY_POINTS[entry](scenario, inputs.pop("theta_l"), inputs.pop("theta_r"), **inputs)


def _assert_valid_rows(p):
    assert p.shape[-1] == 4
    assert np.all(p >= -1e-12) and np.all(p <= 1.0 + 1e-12)
    assert np.all(np.abs(p.sum(axis=-1) - 1.0) <= 1e-12)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@given(data=st.data(), scenario=scenarios)
def test_finite_input_gives_valid_rows(entry, data, scenario):
    p = _call(entry, scenario, data.draw(batches(scenario)))
    _assert_valid_rows(p)
    assert np.all(np.abs(chsh.expectation_from_probabilities(p)) <= 1.0 + 1e-12)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@given(data=st.data(), scenario=scenarios)
def test_any_finite_input_is_valid_or_rejected(entry, data, scenario):
    inputs = data.draw(batches(scenario, values=any_finite))
    try:
        p = _call(entry, scenario, inputs)
    except ValueError:
        return
    _assert_valid_rows(p)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@given(data=st.data(), scenario=scenarios, bad=non_finite)
def test_a_non_finite_input_is_rejected(entry, data, scenario, bad):
    inputs = data.draw(batches(scenario))
    name = data.draw(st.sampled_from(sorted(inputs)))
    value = np.atleast_1d(np.array(inputs[name], dtype=float))
    value[data.draw(st.integers(0, value.size - 1))] = bad
    inputs[name] = value
    with pytest.raises(ValueError):
        _call(entry, scenario, inputs)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@given(data=st.data(), scenario=scenarios)
def test_shapes_that_do_not_broadcast_are_rejected(entry, data, scenario):
    inputs = data.draw(batches(scenario))
    first, second = data.draw(st.lists(st.sampled_from(sorted(inputs)), min_size=2,
                                       max_size=2, unique=True))
    inputs[first] = np.zeros(2)
    inputs[second] = np.zeros(3)
    with pytest.raises(ValueError):
        _call(entry, scenario, inputs)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@given(data=st.data(), scenario=scenarios)
def test_missing_or_foreign_fields_are_rejected(entry, data, scenario):
    inputs = data.draw(batches(scenario))
    fields = sorted(set(inputs) - {"theta_l", "theta_r"})
    if fields and data.draw(st.booleans()):
        del inputs[data.draw(st.sampled_from(fields))]
    else:
        inputs[FOREIGN[scenario]] = data.draw(moderate)
    with pytest.raises(ValueError):
        _call(entry, scenario, inputs)


@given(data=st.data())
def test_closed_forms_give_valid_rows_or_reject(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    value = st.one_of(moderate, st.lists(moderate, min_size=n, max_size=n).map(np.array))
    theta_l, theta_r, two_ml = (data.draw(value) for _ in range(3))
    _assert_valid_rows(closed_form.scenario_b_probabilities(theta_l, theta_r))
    _assert_valid_rows(closed_form.scenario_c_probabilities(theta_l, theta_r, two_ml))
    huge = data.draw(st.one_of(any_finite, st.lists(any_finite, min_size=n, max_size=n)
                               .map(np.array)))
    try:
        rows = closed_form.scenario_b_probabilities(huge, theta_r - huge)
    except ValueError:
        pass
    else:
        _assert_valid_rows(rows)
    slot = data.draw(st.integers(0, 2))
    bad = [theta_l, theta_r, two_ml]
    bad[slot] = data.draw(non_finite)
    with pytest.raises(ValueError):
        closed_form.scenario_c_probabilities(*bad)
    if slot < 2:
        with pytest.raises(ValueError):
            closed_form.scenario_b_probabilities(*bad[:2])
    with pytest.raises(ValueError):
        closed_form.scenario_c_probabilities(np.zeros(2), np.zeros(3), two_ml)


def test_an_angle_difference_that_overflows_is_rejected():
    with pytest.raises(ValueError, match="theta_l - theta_r"):
        closed_form.scenario_b_probabilities(1e308, np.array([0.0, -1e308]))


def test_unknown_scenario_is_rejected():
    for entry in ENTRY_POINTS.values():
        with pytest.raises(ValueError, match="unknown scenario"):
            entry("C", 0.0, 0.0, mu=1.0, lambda_l=0.0, lambda_r=0.0)
