"""Entangled two-quanton Mach-Zehnder simulation with topological phases.

Simulates joint detection statistics of spatially correlated quanton
pairs in retarder-equipped interferometers, with spin-conditioned
(dipole), spin-independent (flux) and per-arm topological phases, and
analyzes the resulting Bell-CHSH correlation including its analytically
and numerically maximized values.
"""

from .chsh import (
    BellAngles,
    RoleAssignment,
    TSIRELSON_BOUND,
    analytic_max_S,
    analytic_optimal_angles,
    canonical_angles,
    chsh_S,
    contrast,
    expectation_closed_form,
    expectation_from_distribution,
    expectation_from_probabilities,
    fixed_angle_curve_S,
)
from .entangled import (
    DetectionDistribution,
    PhaseMode,
    Scenario,
    TopoPhaseSpec,
    run_scenario,
    run_scenario_a,
    run_scenario_ab,
    run_scenario_b,
    run_scenario_c,
    scenario_probabilities,
)
from .optics import (
    beam_splitter,
    mach_zehnder,
    path_phase_operator,
    phase_retarder,
    spin_loop_phase,
)
from .oracle import (
    BudgetExceededError,
    GridSpec,
    SearchResult,
    StationarityOutcome,
    brute_force_distribution,
    brute_force_probabilities,
    grid_search_max_S,
    stationarity_check,
)

__version__ = "0.1.0"

__all__ = [
    "BellAngles",
    "BudgetExceededError",
    "DetectionDistribution",
    "GridSpec",
    "PhaseMode",
    "RoleAssignment",
    "Scenario",
    "SearchResult",
    "StationarityOutcome",
    "TSIRELSON_BOUND",
    "TopoPhaseSpec",
    "analytic_max_S",
    "analytic_optimal_angles",
    "beam_splitter",
    "brute_force_distribution",
    "brute_force_probabilities",
    "canonical_angles",
    "chsh_S",
    "contrast",
    "expectation_closed_form",
    "expectation_from_distribution",
    "expectation_from_probabilities",
    "fixed_angle_curve_S",
    "grid_search_max_S",
    "mach_zehnder",
    "path_phase_operator",
    "phase_retarder",
    "run_scenario",
    "run_scenario_a",
    "run_scenario_ab",
    "run_scenario_b",
    "run_scenario_c",
    "scenario_probabilities",
    "spin_loop_phase",
    "stationarity_check",
]
