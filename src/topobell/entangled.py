"""The four two-quanton interferometer scenarios on the path singlet.

A source emits a spatially correlated pair in the path singlet
(|0>_L |1>_R - |1>_L |0>_R)/sqrt(2). Each singlet term is a branch that
carries its spin pair: (+1,-1) on |0>_L |1>_R (up-down) and (-1,+1) on
|1>_L |0>_R (down-up). Splitters and retarders act on the path amplitudes
only, so each side's optics is one 2x2 transfer matrix M, and a
topological phase reaches the pair only as one scalar phase per branch.
All four scenarios therefore share one joint amplitude for detectors
(j, k), :func:`_joint_probabilities`:

    (phi_1 M_L[j,0] M_R[k,1] - phi_2 M_L[j,1] M_R[k,0]) / sqrt(2)

with phi_1 and phi_2 the up-down and down-up branch phases. Detection
reads out paths, not spins, and the two branches interfere coherently;
this is what makes the spin-conditioned loop phase observable in
scenario C. The formula takes stacks of side matrices and arrays of
phases with any leading axes: :func:`run_scenario` evaluates it at one
point, :func:`scenario_probabilities` over arrays of points.

Scenarios:

* A: source, retarders, one splitter per side (open geometry),
  M = BS @ T @ P(theta) with T the per-arm phases. The two sides are
  mirror images, so the right-hand detectors are labeled opposite to the
  right splitter's ports: the right matrix is read with its rows
  reversed. No branch phase.
* B: full splitter-retarder-splitter interferometer per side,
  M = BS @ P(theta) @ BS. No branch phase.
* C: scenario B with a confined field source between the interferometers;
  each branch picks up exp(-i*s*mu*lambda) per side.
* AB: scenario B with a spin-independent flux phase, identical for both
  branches, hence invisible in every joint probability.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import _checks
from .optics import beam_splitter, path_phase_operator, phase_retarder, spin_loop_phase

PROB_TOL = 1e-12


class PhaseMode(enum.Enum):
    """How the topological phase couples to the quantons."""

    SPIN_CONDITIONED = "spin-conditioned"
    SPIN_INDEPENDENT_AB = "spin-independent-ab"
    PATH_INTEGRALS = "path-integrals"


class Scenario(enum.Enum):
    A = "A"
    B = "B"
    C = "C"
    AB = "AB"


#: The phase modes each scenario accepts, its own mode first; None stands
#: for no phase spec, so scenario A runs with or without its arm integrals.
_SCENARIO_MODES = {
    Scenario.A: (PhaseMode.PATH_INTEGRALS, None),
    Scenario.B: (None,),
    Scenario.C: (PhaseMode.SPIN_CONDITIONED,),
    Scenario.AB: (PhaseMode.SPIN_INDEPENDENT_AB,),
}


def _scenario_modes(scenario: Scenario) -> tuple[PhaseMode | None, ...]:
    """The phase modes ``scenario`` accepts; ValueError unless it is a Scenario."""
    if not isinstance(scenario, Scenario):
        raise ValueError(f"unknown scenario {scenario!r}")
    return _SCENARIO_MODES[scenario]


def _checked_fields(mode: PhaseMode, values: dict, check=_checks.finite_array) -> dict:
    """The fields of ``mode`` from ``values`` through ``check``, in the mode's order.

    Raises ValueError for a missing or foreign field, a non-finite value,
    or a finite pair whose phase product overflows.
    """
    wanted = TopoPhaseSpec._FIELDS_BY_MODE[mode]
    for name in values:
        if name not in wanted:
            raise ValueError(f"field {name!r} is not part of {mode.value} mode")
    for name in wanted:
        if name not in values:
            raise ValueError(f"{mode.value} mode requires field {name!r}")
    fields = {name: check(f"field {name!r}", values[name]) for name in wanted}
    if "mu" in fields:
        # finite fields can still give an infinite phase, and exp(-i*inf) is NaN
        mu = fields["mu"]
        with np.errstate(over="ignore", invalid="ignore"):
            phases = {f"mu*{name}": mu * fields[name] for name in wanted if name != "mu"}
            if mode is PhaseMode.SPIN_CONDITIONED:
                phases["mu*(lambda_l - lambda_r)"] = mu * (fields["lambda_l"] - fields["lambda_r"])
        for label, phase in phases.items():
            _checks.finite_array(f"phase {label}", phase)
    return fields


@dataclass(frozen=True)
class TopoPhaseSpec:
    """Parameters of the topological phase, one populated field set per mode.

    SPIN_CONDITIONED: dipole magnitude ``mu`` and per-side closed-loop
    integrals ``lambda_l``, ``lambda_r``. SPIN_INDEPENDENT_AB: a single
    ``flux`` value with the charge factor already folded in.
    PATH_INTEGRALS: ``mu`` plus the four per-arm line integrals.

    ``mu`` is a magnetic dipole encircling an electric line source; the
    dual configuration (electric dipole around a magnetic line source) is
    the same numbers with the field roles swapped, so it needs no mode of
    its own. The populated fields are stored as floats.
    """

    mode: PhaseMode
    mu: float | None = None
    lambda_l: float | None = None
    lambda_r: float | None = None
    flux: float | None = None
    i_u_l: float | None = None
    i_d_l: float | None = None
    i_u_r: float | None = None
    i_d_r: float | None = None

    #: Every phase field, in declaration order, and the fields of each mode.
    _FIELD_NAMES = ("mu", "lambda_l", "lambda_r", "flux", "i_u_l", "i_d_l", "i_u_r", "i_d_r")
    _FIELDS_BY_MODE = {
        PhaseMode.SPIN_CONDITIONED: ("mu", "lambda_l", "lambda_r"),
        PhaseMode.SPIN_INDEPENDENT_AB: ("flux",),
        PhaseMode.PATH_INTEGRALS: ("mu", "i_u_l", "i_d_l", "i_u_r", "i_d_r"),
    }

    def __post_init__(self):
        if not isinstance(self.mode, PhaseMode):
            raise ValueError(f"unknown phase mode {self.mode!r}")
        given = {name: getattr(self, name) for name in self._FIELD_NAMES
                 if getattr(self, name) is not None}
        for name, value in _checked_fields(self.mode, given, _checks.finite_scalar).items():
            object.__setattr__(self, name, value)

    @classmethod
    def spin_conditioned(cls, mu: float, lambda_l: float, lambda_r: float) -> "TopoPhaseSpec":
        return cls(PhaseMode.SPIN_CONDITIONED, mu=mu, lambda_l=lambda_l, lambda_r=lambda_r)

    @classmethod
    def aharonov_bohm(cls, flux: float) -> "TopoPhaseSpec":
        return cls(PhaseMode.SPIN_INDEPENDENT_AB, flux=flux)

    @classmethod
    def path_integrals(cls, mu: float, i_u_l: float, i_d_l: float,
                       i_u_r: float, i_d_r: float) -> "TopoPhaseSpec":
        return cls(PhaseMode.PATH_INTEGRALS, mu=mu,
                   i_u_l=i_u_l, i_d_l=i_d_l, i_u_r=i_u_r, i_d_r=i_d_r)

    def field_values(self) -> dict[str, float]:
        """This spec's populated fields by name, the keywords of the batched entry points."""
        return {name: getattr(self, name) for name in self._FIELDS_BY_MODE[self.mode]}

    @classmethod
    def broadcast(cls, scenario: Scenario, theta_l, theta_r, **fields):
        """Validate one batch of inputs for ``scenario`` and broadcast it to one shape.

        The keyword arrays are named after this class's fields and must be
        exactly those of the scenario's phase mode: the spin-conditioned
        fields for C, ``flux`` for AB, the path integrals or none for A,
        none for B. Returns float arrays ``(theta_l, theta_r, fields)``.
        Raises ``ValueError`` for a missing or foreign field, a non-finite
        angle, field or phase product, or shapes that do not broadcast.
        """
        modes = _scenario_modes(scenario)
        if modes[0] is None:
            if fields:
                raise ValueError(f"scenario {scenario.value} takes no phase fields, "
                                 f"got {sorted(fields)}")
        elif fields or None not in modes:
            fields = _checked_fields(modes[0], fields)
        angles = (_checks.finite_array("theta_l", theta_l),
                  _checks.finite_array("theta_r", theta_r))
        theta_l, theta_r, *values = np.broadcast_arrays(*angles, *fields.values())
        return theta_l, theta_r, dict(zip(fields, values))


@dataclass(frozen=True)
class DetectionDistribution:
    """Joint detection probabilities indexed (D0',D0), (D0',D1), (D1',D0), (D1',D1)."""

    p_d0p_d0: float
    p_d0p_d1: float
    p_d1p_d0: float
    p_d1p_d1: float

    def __post_init__(self):
        # comparisons written so that NaN fails them
        values = (self.p_d0p_d0, self.p_d0p_d1, self.p_d1p_d0, self.p_d1p_d1)
        try:
            in_range = all(-PROB_TOL <= v <= 1.0 + PROB_TOL for v in values)
            total = float(sum(values))
        except TypeError:  # a value that is not one real number
            raise ValueError(f"probabilities must be real numbers, got {values!r}") from None
        if not in_range:
            raise ValueError(f"probabilities out of [0, 1]: {[float(v) for v in values]}")
        if not abs(total - 1.0) <= PROB_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.p_d0p_d0, self.p_d0p_d1, self.p_d1p_d0, self.p_d1p_d1])

    @classmethod
    def from_array(cls, p: np.ndarray) -> "DetectionDistribution":
        arr = np.asarray(p, dtype=float)
        if arr.shape != (4,):
            raise ValueError(f"expected 4 probabilities, got shape {arr.shape}")
        return cls(*(float(x) for x in arr))


# shared read-only instance for the scenario hot paths
_BS = beam_splitter()
_BS.setflags(write=False)

_R = 1.0 / math.sqrt(2.0)  # magnitude of each singlet amplitude


def _interferometer(theta: float) -> np.ndarray:
    """Splitter, retarder, splitter: one side of scenarios B, C and AB."""
    return _BS @ phase_retarder(theta) @ _BS


def _interferometers(theta: np.ndarray) -> np.ndarray:
    """:func:`_interferometer` over an array of angles, as a (..., 2, 2) stack.

    The N retarders sit side by side in one (2, 2N) matrix, so each
    splitter factor is one 2-D matmul rather than one gemm call per 2x2
    matrix. Each entry is the same two-term gemm sum as in the scalar
    product, so every matrix equals :func:`_interferometer` bit for bit.
    """
    n = theta.size
    # retarders[i, n] is row i of the n-th retarder diag(exp(i*theta), 1)
    retarders = np.zeros((2, n, 2), dtype=complex)
    retarders[0, :, 0] = np.exp(1j * theta).ravel()
    retarders[1, :, 1] = 1.0
    # BS @ P in the same layout, so its rows (i, n) form one (2N, 2) matrix
    fronts = (_BS @ retarders.reshape(2, 2 * n)).reshape(2 * n, 2)
    sides = (fronts @ _BS).reshape((2,) + theta.shape + (2,))
    return np.moveaxis(sides, 0, -2)


def _joint_probabilities(m_l: np.ndarray, m_r: np.ndarray, phi_ud, phi_du) -> np.ndarray:
    """Joint detection probabilities of the path singlet behind per-side optics.

    ``m_l`` and ``m_r`` are stacks (..., 2, 2) of the sides' transfer
    matrices (row = detector, column = input port); ``phi_ud`` and
    ``phi_du`` are the up-down and down-up branch phases, scalars or arrays
    with two trailing unit axes, so that they broadcast against the
    (..., 2, 2) detector pairs. The amplitude at detectors (j, k) is
    (phi_1 M_L[j,0] M_R[k,1] - phi_2 M_L[j,1] M_R[k,0]) / sqrt(2); the
    result is (..., 4) in :class:`DetectionDistribution` order.
    """
    amp = (phi_ud * (m_l[..., :, 0, None] * m_r[..., None, :, 1])
           - phi_du * (m_l[..., :, 1, None] * m_r[..., None, :, 0]))
    return (np.abs(_R * amp) ** 2).reshape(amp.shape[:-2] + (4,))


def run_scenario(scenario: Scenario, theta_l: float, theta_r: float,
                 topo: TopoPhaseSpec | None = None) -> DetectionDistribution:
    """Joint detection probabilities of ``scenario`` at one pair of retarder angles.

    ``topo`` must be the scenario's phase spec: path integrals or ``None``
    for A, ``None`` for B, spin-conditioned for C, spin-independent for AB;
    anything else raises ``ValueError``. Side matrices and branch phases
    are those of the module docstring. In A, zero (or symmetric) arm
    integrals give (cos^2, sin^2, sin^2, cos^2)/2 of half the retarder
    difference; in C only lambda_l - lambda_r survives in the probabilities.
    """
    modes = _scenario_modes(scenario)
    if topo is not None and modes == (None,):
        raise ValueError(f"scenario {scenario.value} takes no topological phase spec")
    if not (topo is None and None in modes
            or isinstance(topo, TopoPhaseSpec) and topo.mode in modes):
        got = topo.mode.value if isinstance(topo, TopoPhaseSpec) else type(topo).__name__
        raise ValueError(f"scenario {scenario.value} requires a {modes[0].value} "
                         f"phase spec, got {got}")
    theta_l, theta_r = (_checks.finite_scalar("theta_l", theta_l),
                        _checks.finite_scalar("theta_r", theta_r))
    if scenario is Scenario.A:
        if topo is not None:
            t_l = path_phase_operator(topo.i_u_l, topo.i_d_l, topo.mu)
            t_r = path_phase_operator(topo.i_u_r, topo.i_d_r, topo.mu)
        else:
            t_l = t_r = np.eye(2, dtype=complex)
        m_l = _BS @ t_l @ phase_retarder(theta_l)
        # mirrored right side: detector k reads splitter port 1-k
        m_r = (_BS @ t_r @ phase_retarder(theta_r))[::-1]
    else:
        m_l, m_r = _interferometer(theta_l), _interferometer(theta_r)
    phases = (1, 1)
    if scenario is Scenario.C:
        phases = tuple(spin_loop_phase(s, topo.mu, topo.lambda_l)
                       * spin_loop_phase(-s, topo.mu, topo.lambda_r) for s in (1, -1))
    elif scenario is Scenario.AB:
        phases = (np.exp(-1j * topo.flux),) * 2
    return DetectionDistribution(*_joint_probabilities(m_l, m_r, *phases).tolist())


def _diagonals(d0, d1) -> np.ndarray:
    """Stack (..., 2, 2) of diagonal matrices diag(d0, d1)."""
    out = np.zeros(np.broadcast_shapes(np.shape(d0), np.shape(d1)) + (2, 2), dtype=complex)
    out[..., 0, 0] = d0
    out[..., 1, 1] = d1
    return out


def _loop_phase_products(mu, lambda_l, lambda_r) -> tuple[np.ndarray, np.ndarray]:
    """Scenario C's up-down and down-up branch phases over arrays.

    The same numbers as :func:`run_scenario`'s ``spin_loop_phase``
    products: each loop phase is exp(-i*s*mu*lambda) written as
    ``spin_loop_phase`` writes it, and each product of two is multiplied
    out in real arithmetic as Python's complex product does, because
    numpy's complex multiply may fuse multiply-adds and move the last bit.
    """
    def loop(s, lam):
        return np.exp(-1j * s * mu * lam)

    def product(a, b):
        return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag + a.imag * b.real)

    return (product(loop(1, lambda_l), loop(-1, lambda_r)),
            product(loop(-1, lambda_l), loop(1, lambda_r)))


def scenario_probabilities(scenario: Scenario, theta_l, theta_r, **fields) -> np.ndarray:
    """Joint detection probabilities of ``scenario`` over arrays of points.

    The batched form of :func:`run_scenario`: the keyword arrays are the
    phase spec's fields (:meth:`TopoPhaseSpec.broadcast` says which
    scenario takes which), and every input broadcasts against the others.
    Returns (..., 4) in :class:`DetectionDistribution` order; each row
    equals :func:`run_scenario`'s distribution bit for bit.
    """
    theta_l, theta_r, fields = TopoPhaseSpec.broadcast(scenario, theta_l, theta_r, **fields)
    if scenario is Scenario.A:
        retarders = [_diagonals(np.exp(1j * theta), 1.0) for theta in (theta_l, theta_r)]
        fronts = (_BS, _BS)
        if fields:
            mu = fields["mu"]
            fronts = [_BS @ _diagonals(np.exp(1j * mu * fields[f"i_u_{side}"]),
                                       np.exp(-1j * mu * fields[f"i_d_{side}"]))
                      for side in "lr"]
        m_l, m_r = (front @ retarder for front, retarder in zip(fronts, retarders))
        # mirrored right side: detector k reads splitter port 1-k
        return _joint_probabilities(m_l, m_r[..., ::-1, :], 1, 1)
    m_l, m_r = _interferometers(theta_l), _interferometers(theta_r)
    if scenario is Scenario.C:
        phases = _loop_phase_products(fields["mu"], fields["lambda_l"], fields["lambda_r"])
    elif scenario is Scenario.AB:
        phases = (np.exp(-1j * fields["flux"]),) * 2
    else:
        return _joint_probabilities(m_l, m_r, 1, 1)
    return _joint_probabilities(m_l, m_r, *(phi[..., None, None] for phi in phases))
