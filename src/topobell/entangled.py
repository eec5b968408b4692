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
phases with any leading axes. :func:`scenario_probabilities` runs the
scenario kernel over arrays; :func:`run_scenario` is one point of it.

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
from .optics import beam_splitter

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


#: The phase mode of each scenario's spec. B takes no spec, A may also run
#: without one (no arm integrals), C and AB need theirs.
_SPEC_MODE = {
    Scenario.A: PhaseMode.PATH_INTEGRALS,
    Scenario.B: None,
    Scenario.C: PhaseMode.SPIN_CONDITIONED,
    Scenario.AB: PhaseMode.SPIN_INDEPENDENT_AB,
}


def _spec_mode(scenario: Scenario, given: bool = True) -> PhaseMode | None:
    """The phase mode ``scenario`` runs in, None for no spec; ``given``: one was passed."""
    if not isinstance(scenario, Scenario):
        raise ValueError(f"unknown scenario {scenario!r}")
    if scenario is Scenario.A and not given:
        return None
    return _SPEC_MODE[scenario]


def _checked_fields(mode: PhaseMode, values: dict, check=_checks.finite_array) -> dict:
    """The fields of ``mode`` from ``values`` in the mode's order; ``check`` takes each phase too.

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
        # finite fields can still give an infinite phase, and exp(-i*inf) is NaN;
        # Python floats overflow to inf and nan without a warning, arrays warn
        if check is _checks.finite_scalar:
            phases = _phase_products(mode, fields)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                phases = _phase_products(mode, fields)
        for label, phase in phases.items():
            check(f"phase {label}", phase)
    return fields


def _phase_products(mode: PhaseMode, fields: dict) -> dict:
    """The phase products of ``mode``'s checked fields, by label."""
    mu = fields["mu"]
    phases = {f"mu*{name}": mu * value for name, value in fields.items() if name != "mu"}
    if mode is PhaseMode.SPIN_CONDITIONED:
        phases["mu*(lambda_l - lambda_r)"] = mu * (fields["lambda_l"] - fields["lambda_r"])
    return phases


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


def _checked_batch(scenario: Scenario, theta_l, theta_r, fields: dict):
    """One batch of inputs for ``scenario``, checked and broadcast as the kernels take them.

    Returns float arrays ``(theta_l, theta_r, fields)``: the angles broadcast
    against each other and the fields against each other, or all to one
    shape for scenario A's arm integrals, which enter the side matrices.
    Scenario B takes no fields, so its angles keep their own shapes.
    Raises ``ValueError`` for a missing or foreign field (:data:`_SPEC_MODE`),
    a non-finite angle, field or phase, or shapes that do not broadcast.
    """
    mode = _spec_mode(scenario, bool(fields))
    if mode is not None:
        fields = _checked_fields(mode, fields)
    elif fields:
        raise ValueError(f"scenario {scenario.value} takes no phase fields, "
                         f"got {sorted(fields)}")
    theta_l = _checks.finite_array("theta_l", theta_l)
    theta_r = _checks.finite_array("theta_r", theta_r)
    np.broadcast(theta_l, theta_r, *fields.values())  # ValueError unless the shapes broadcast
    if scenario is Scenario.A and fields:
        theta_l, theta_r, *values = np.broadcast_arrays(theta_l, theta_r, *fields.values())
    elif scenario is Scenario.B:
        values = ()
    else:
        theta_l, theta_r = np.broadcast_arrays(theta_l, theta_r)
        values = np.broadcast_arrays(*fields.values())
    return theta_l, theta_r, dict(zip(fields, values))


def _checked_point(scenario: Scenario, theta_l, theta_r, topo):
    """One point's inputs for ``scenario``, checked: ``(theta_l, theta_r, fields)``.

    Raises ``ValueError`` first unless ``topo`` is the scenario's phase spec
    (:data:`_SPEC_MODE`) or None where it needs none, then for an angle that
    is not a finite real scalar. The spec checked its own fields.
    """
    mode = _spec_mode(scenario, topo is not None)
    if not ((isinstance(topo, TopoPhaseSpec) and topo.mode is mode)
            or (topo is None and mode is None)):
        rule = "takes no topological" if mode is None else f"requires a {mode.value}"
        got = topo.mode.value if isinstance(topo, TopoPhaseSpec) else type(topo).__name__
        raise ValueError(f"scenario {scenario.value} {rule} phase spec, got {got}")
    fields = {} if topo is None else topo.field_values()
    return (_checks.finite_scalar("theta_l", theta_l),
            _checks.finite_scalar("theta_r", theta_r), fields)


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
            total = sum(values)
            if type(total) is not float:  # the hot paths pass floats
                if isinstance(total, np.complexfloating):  # numpy orders complex numbers too
                    raise TypeError
                total = float(total)
        except (TypeError, ValueError):  # a value that is not one real number
            raise ValueError(f"probabilities must be real numbers, got {values!r}") from None
        if not in_range:
            raise ValueError(f"probabilities out of [0, 1]: {[float(v) for v in values]}")
        if not abs(total - 1.0) <= PROB_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.p_d0p_d0, self.p_d0p_d1, self.p_d1p_d0, self.p_d1p_d1])

    @classmethod
    def from_array(cls, p: np.ndarray) -> "DetectionDistribution":
        arr = np.asarray(p)
        if arr.dtype.kind not in "biuf":  # complex, text, None and other objects
            raise ValueError(f"probabilities must be real numbers, got {p!r}")
        if arr.shape != (4,):
            raise ValueError(f"expected 4 probabilities, got shape {arr.shape}")
        return cls(*(float(x) for x in arr))


# shared read-only instance for the scenario hot paths, and its columns as (2, 1) views
_BS = beam_splitter()
_BS.setflags(write=False)
_BS_COLUMNS = (_BS[:, None, 0], _BS[:, None, 1])

_R = 1.0 / math.sqrt(2.0)  # magnitude of each singlet amplitude


def _splitter_fronts(d0: np.ndarray, d1: np.ndarray | None = None) -> np.ndarray:
    """BS @ diag(d0, d1) for each entry of the 1-D array ``d0`` (d1 = 1 for None), rows first.

    Returns (2, N, 2), matrix row first, so the N matrices' rows form one
    (2N, 2) matrix; :func:`_stacked` turns it into the (..., 2, 2) stack.
    The splitter's columns are scaled entrywise: each splitter entry has a
    zero real or imaginary part, so every entry is one exactly rounded
    product, the bits of the matmul.
    """
    column_0, column_1 = _BS_COLUMNS
    out = np.empty((2, d0.size, 2), dtype=complex)
    np.multiply(column_0, d0, out=out[..., 0])
    if d1 is None:
        out[..., 1] = column_1
    else:
        np.multiply(column_1, d1, out=out[..., 1])
    return out


def _stacked(rows_first: np.ndarray, shape: tuple) -> np.ndarray:
    """The (2, N, 2) matrices of :func:`_splitter_fronts` as a (*shape, 2, 2) stack, a view."""
    return rows_first.transpose(1, 0, 2).reshape(shape + (2, 2))


def _interferometers(theta: np.ndarray) -> np.ndarray:
    """Splitter, retarder, splitter (a side of B, C and AB) per angle, as a (..., 2, 2) stack.

    BS @ P(theta) is built entrywise (:func:`_splitter_fronts`) with the
    matrices' rows as one (2N, 2) matrix, so the second splitter factor is
    one 2-D matmul rather than one gemm call per 2x2 matrix;
    ``tests/test_batched.py`` pins every matrix bit for bit to the
    ``optics`` constructors' product BS @ P(theta) @ BS.
    """
    fronts = _splitter_fronts(np.exp(1j * theta).ravel())
    return _stacked((fronts.reshape(-1, 2) @ _BS).reshape(fronts.shape), theta.shape)


def _joint_probabilities(m_l: np.ndarray, m_r: np.ndarray,
                         phi_ud=None, phi_du=None) -> np.ndarray:
    """Joint detection probabilities of the path singlet behind per-side optics.

    ``m_l`` and ``m_r`` are stacks (..., 2, 2) of the sides' transfer
    matrices (row = detector, column = input port); ``phi_ud`` and
    ``phi_du`` are the up-down and down-up branch phases, scalars or arrays
    with two trailing unit axes, so that they broadcast against the
    (..., 2, 2) detector pairs, or None for no branch phase. The amplitude
    at detectors (j, k) is (phi_1 M_L[j,0] M_R[k,1] - phi_2 M_L[j,1] M_R[k,0])
    / sqrt(2); the result is (..., 4) in :class:`DetectionDistribution` order.
    """
    ud = m_l[..., :, 0, None] * m_r[..., None, :, 1]
    du = m_l[..., :, 1, None] * m_r[..., None, :, 0]
    amp = ud - du if phi_ud is None else phi_ud * ud - phi_du * du
    return (np.abs(_R * amp) ** 2).reshape(amp.shape[:-2] + (4,))


def run_scenario(scenario: Scenario, theta_l: float, theta_r: float,
                 topo: TopoPhaseSpec | None = None) -> DetectionDistribution:
    """Joint detection probabilities of ``scenario`` at one pair of retarder angles.

    One point of the :func:`scenario_probabilities` kernel, bit for bit.
    ``topo`` must be the scenario's phase spec (:data:`_SPEC_MODE`), or
    ``ValueError`` is raised; it checked its own fields. In A, zero (or
    symmetric) arm integrals give (cos^2, sin^2, sin^2, cos^2)/2 of half
    the retarder difference; in C only lambda_l - lambda_r survives.
    """
    p = _probabilities(scenario, *_checked_point(scenario, theta_l, theta_r, topo))
    return DetectionDistribution(*p.tolist())


def _loop_phase_products(mu, lambda_l, lambda_r) -> tuple[np.ndarray, np.ndarray]:
    """Scenario C's up-down and down-up branch phases, over arrays or at one point.

    Each spin-up loop phase is exp(-i*mu*lambda) as ``optics.spin_loop_phase``
    writes it, and each spin-down one its conjugate, which is the same bits.
    Each product of two is multiplied out in real arithmetic as Python's
    complex product does, because numpy's complex multiply may fuse
    multiply-adds and move the last bit; ``tests/test_batched.py`` pins the
    products bit for bit to those of ``spin_loop_phase``.
    """
    def product(a, b):
        ar, ai, br, bi = a.real, a.imag, b.real, b.imag
        return (ar * br - ai * bi) + 1j * (ar * bi + ai * br)

    up_l, up_r = np.exp(-1j * mu * lambda_l), np.exp(-1j * mu * lambda_r)
    return product(up_l, np.conj(up_r)), product(np.conj(up_l), up_r)


def scenario_probabilities(scenario: Scenario, theta_l, theta_r, **fields) -> np.ndarray:
    """Joint detection probabilities of ``scenario`` over arrays of points.

    The keyword arrays are the phase spec's fields (:data:`_SPEC_MODE`), and
    every input broadcasts against the others. Returns (..., 4) in
    :class:`DetectionDistribution` order; :func:`run_scenario` is one row.

    The batch check, :func:`_checked_batch`, is the oracle's too. On a
    sparse grid with the fields on their own axes, each side matrix is
    built once per pair of angles rather than per point (scenario A's arm
    integrals excepted), and scenario B's once per angle, with the bits of
    the inputs broadcast to one shape.
    """
    theta_l, theta_r, fields = _checked_batch(scenario, theta_l, theta_r, fields)
    if theta_l.shape != theta_r.shape:  # scenario B's sides, each at its own shape
        return _joint_probabilities(_interferometers(theta_l), _interferometers(theta_r))
    return _probabilities(scenario, theta_l, theta_r, fields)


def _probabilities(scenario: Scenario, theta_l, theta_r, fields: dict) -> np.ndarray:
    """The scenario kernel on what :func:`_checked_batch` or :func:`_checked_point` returns.

    The two sides are stacked on a new leading axis, so one call builds
    both sides' matrices.
    """
    thetas = np.array((theta_l, theta_r))
    if scenario is Scenario.A:
        retarders = np.exp(1j * thetas).ravel()
        if fields:
            mu = fields["mu"]
            i_u, i_d = (np.array((fields[f"i_{arm}_l"], fields[f"i_{arm}_r"])) for arm in "ud")
            sides = _splitter_fronts(np.exp(1j * mu * i_u).ravel(),
                                     np.exp(-1j * mu * i_d).ravel())
            sides[..., 0] *= retarders  # @ diag(exp(i*theta), 1)
        else:
            sides = _splitter_fronts(retarders)
        m_l, m_r = _stacked(sides, thetas.shape)
        # mirrored right side: detector k reads splitter port 1-k
        return _joint_probabilities(m_l, m_r[..., ::-1, :])
    m_l, m_r = _interferometers(thetas)
    if scenario is Scenario.B:
        return _joint_probabilities(m_l, m_r)
    if scenario is Scenario.C:
        phi_ud, phi_du = _loop_phase_products(fields["mu"], fields["lambda_l"], fields["lambda_r"])
        phi_ud, phi_du = phi_ud[..., None, None], phi_du[..., None, None]
    else:  # AB: one phase for both branches
        phi_ud = phi_du = np.exp(-1j * fields["flux"])[..., None, None]
    return _joint_probabilities(m_l, m_r, phi_ud, phi_du)
