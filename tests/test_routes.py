"""The three routes share no physics code.

Every cross-route suite in ``verify`` rests on the branch pipelines
(``entangled``), the 4x4 operator oracle (``oracle``) and the closed forms
(``closed_form``, ``chsh``) computing each number independently. A closed
form that called the pipeline's kernel would pass every suite with residual
0, so these tests follow the global names each route's bytecode loads,
transitively within ``topobell``, and require the routes to stay apart.
"""

import dis
import types

import pytest

from topobell import chsh, closed_form, entangled, oracle

#: Boundary checks every route may call: they reject input, they compute no physics.
SHARED_CHECKS = {"entangled._checked_batch", "entangled._checked_point"}

#: Each route's entry points.
ROUTES = {
    "pipeline": [entangled._probabilities],
    "oracle": [oracle._brute_force],
    "closed forms": [getattr(closed_form, name) for name in dir(closed_form)
                     if name.startswith("scenario_")] + [chsh.expectation_closed_form],
}

#: The module constants each route reads, so that a new shared constant is a visible
#: decision. The pipeline's ``_BS`` is ``optics.beam_splitter()``, built at import;
#: the oracle restates its own splitter, and the closed forms read none.
CONSTANTS = {
    "pipeline": {"entangled._BS", "entangled._BS_COLUMNS", "entangled._R"},
    "oracle": {"oracle._READOUT", "oracle._SINGLET_BRANCHES", "oracle._SPLITTERS"},
    "closed forms": set(),
}

#: The types each route names: the scenario label and the distribution it returns are
#: the routes' common interface, not physics.
TYPES = {
    "pipeline": {"entangled.Scenario"},
    "oracle": {"entangled.Scenario"},
    "closed forms": {"entangled.DetectionDistribution"},
}


def _name(obj, attr: str) -> str:
    return f"{obj.__module__.removeprefix('topobell.')}.{attr}"


def _reach(roots) -> tuple[set, set, set]:
    """The topobell functions, module constants and types that ``roots`` reach.

    Follows every global a code object loads, every code object nested in it,
    and every attribute it loads from an imported ``topobell`` module. The walk
    does not enter ``_checks`` or :data:`SHARED_CHECKS`, nor the methods of a type.
    """
    functions, constants, kinds = set(), set(), set()
    todo = [(f.__code__, f.__globals__) for f in roots]
    seen = set()
    while todo:
        code, namespace = todo.pop()
        if code in seen:
            continue
        seen.add(code)
        todo += [(c, namespace) for c in code.co_consts if isinstance(c, types.CodeType)]
        loads = list(dis.get_instructions(code))
        attributes = {i.argval for i in loads if i.opname in ("LOAD_ATTR", "LOAD_METHOD")}
        found = []  # (owner module name, name, object)
        for i in loads:
            if i.opname != "LOAD_GLOBAL" or i.argval not in namespace:
                continue
            obj = namespace[i.argval]
            if isinstance(obj, types.ModuleType):
                if obj.__name__.startswith("topobell.") and obj.__name__ != "topobell._checks":
                    found += [(obj.__name__, a, getattr(obj, a)) for a in attributes
                              if hasattr(obj, a)]
            else:
                found.append((namespace["__name__"], i.argval, obj))
        for module, attr, obj in found:
            if isinstance(obj, types.FunctionType) and obj.__module__.startswith("topobell."):
                name = _name(obj, obj.__name__)
                if obj.__module__ != "topobell._checks" and name not in SHARED_CHECKS:
                    functions.add(name)
                    todo.append((obj.__code__, obj.__globals__))
            elif isinstance(obj, type):
                if obj.__module__.startswith("topobell."):
                    kinds.add(_name(obj, obj.__name__))
            elif not callable(obj) and module.startswith("topobell."):
                constants.add(f"{module.removeprefix('topobell.')}.{attr}")
    return functions, constants, kinds


REACHED = {route: _reach(roots) for route, roots in ROUTES.items()}


def test_each_route_reaches_only_its_own_functions():
    functions = {route: reached[0] for route, reached in REACHED.items()}
    assert functions["pipeline"] >= {"entangled._interferometers",
                                     "entangled._joint_probabilities"}
    assert functions["oracle"] >= {"oracle._kron"}
    for first in ROUTES:
        for second in ROUTES:
            if first < second:
                assert not functions[first] & functions[second], (first, second)


def test_the_closed_forms_reach_no_simulator_code():
    functions, constants, _ = REACHED["closed forms"]
    for name in functions | constants:
        assert name.split(".")[0] not in ("entangled", "oracle", "optics"), name


@pytest.mark.parametrize("route", list(ROUTES))
def test_each_route_reads_the_listed_constants_and_types(route):
    _, constants, kinds = REACHED[route]
    assert constants == CONSTANTS[route]
    assert kinds == TYPES[route]
