"""In-memory span tracer that wraps topobell's public functions from outside.

The package carries no instrumentation of its own, so the tracer replaces
each traced function in every ``topobell`` namespace that holds it (the
defining module and every module that imported the name) with a wrapper
that records a span: layer, parent span, start and end in nanoseconds,
plus a work count and a computed byte count where the layer has one.
A call into a layer from inside the same layer (``run_scenario`` calling
``run_scenario_c``) is folded into the outer span, so ``calls`` counts
entries into a layer. Spans stay in memory until :meth:`Tracer.save`.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

import numpy as np

#: The twelve invariant suites of ``topobell verify``, by the name each
#: suite reports; per-suite metrics are emitted for exactly these.
VERIFY_SUITES = (
    "linalg-unitarity",
    "optics-compact-form",
    "distribution-validity",
    "scenario-b-closed-form",
    "scenario-c-closed-form",
    "scenario-c-gauge",
    "scenario-a-topo-invariance",
    "scenario-ab-reduction",
    "degiorgio-offset",
    "oracle-equivalence",
    "chsh-consistency",
    "chsh-bounds",
)

#: Layers that report calls and self time, in output order.
TIMED_LAYERS = (
    "entangled.runners",
    "entangled.from_array",
    "optics",
    "linalg",
    "oracle.brute_force",
    "oracle.grid_search",
    "chsh.S_values",
    "chsh.S_scalar",
    "chsh.expectation",
    "closed_form",
)


def _public_functions(module) -> list:
    return [value for name, value in vars(module).items()
            if not name.startswith("_") and callable(value)
            and getattr(value, "__module__", None) == module.__name__
            and not isinstance(value, type)]


def _array_bytes(values) -> int:
    return sum(np.asarray(v).nbytes for v in values)


class Tracer:
    """Records spans at topobell layer boundaries while installed."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self.nbytes = array("q")
        self.unit_offsets: list[int] = []
        self.suite_results: dict[str, tuple[str, float]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def _wrap(self, layer: str, fn, measure=None):
        layer_id = self._layer_id(layer)
        stack = self._stack

        def traced(*args, **kwargs):
            if stack and self.layer[stack[-1]] == layer_id:
                return fn(*args, **kwargs)
            index = len(self.start)
            self.layer.append(layer_id)
            self.parent.append(stack[-1] if stack else -1)
            self.work.append(0)
            self.nbytes.append(0)
            self.end.append(0)
            stack.append(index)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter_ns()
                stack.pop()
            if measure is not None:
                measure(index, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _measure_s_values(self, index, args, kwargs, result):
        self.work[index] = int(np.broadcast(*args[:5]).size)
        self.nbytes[index] = _array_bytes(args[:5]) + np.asarray(result).nbytes

    def _measure_grid_search(self, index, args, kwargs, result):
        self.work[index] = int(result.evaluations)

    def _measure_suite(self, index, args, kwargs, result):
        self.suite_results[self.layers[self.layer[index]]] = (
            result.name, float(result.worst_residual))

    def install(self) -> None:
        """Wrap every traced function in every loaded topobell namespace."""
        from topobell import chsh, cli, closed_form, entangled, linalg, optics, oracle, verify

        targets = {}
        for fn in _public_functions(optics):
            targets[id(fn)] = (fn, "optics", None)
        for fn in _public_functions(linalg):
            targets[id(fn)] = (fn, "linalg", None)
        for fn in _public_functions(closed_form):
            targets[id(fn)] = (fn, "closed_form", None)
        for fn in _public_functions(entangled):
            if fn.__name__.startswith("run_scenario"):
                targets[id(fn)] = (fn, "entangled.runners", None)
        targets[id(oracle.brute_force_distribution)] = (
            oracle.brute_force_distribution, "oracle.brute_force", None)
        targets[id(oracle.grid_search_max_S)] = (
            oracle.grid_search_max_S, "oracle.grid_search", self._measure_grid_search)
        targets[id(chsh.chsh_S_values)] = (
            chsh.chsh_S_values, "chsh.S_values", self._measure_s_values)
        targets[id(chsh.chsh_S)] = (chsh.chsh_S, "chsh.S_scalar", None)
        targets[id(chsh.expectation_from_distribution)] = (
            chsh.expectation_from_distribution, "chsh.expectation", None)
        targets[id(cli.main)] = (cli.main, "cli.main", None)
        for name, fn in vars(verify).items():
            if name.startswith("_suite_") and callable(fn):
                targets[id(fn)] = (fn, f"verify:{name}", self._measure_suite)

        wrappers = {key: self._wrap(layer, fn, measure)
                    for key, (fn, layer, measure) in targets.items()}
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "topobell"
                                      or module_name.startswith("topobell.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is targets[id(value)][0]:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

        cls = entangled.DetectionDistribution
        original = cls.__dict__["from_array"]
        self._patched.append((cls, "from_array", original))
        cls.from_array = classmethod(self._wrap("entangled.from_array", original.__func__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def begin_unit(self) -> None:
        """Mark the start of one work unit; its spans share the unit index."""
        self.unit_offsets.append(len(self.start))
        self.suite_results = {}

    def unit_summary(self) -> dict:
        """Per-layer calls, self time, work and bytes for the current unit."""
        first = self.unit_offsets[-1]
        layer = np.frombuffer(self.layer, dtype=np.int64)[first:]
        parent = np.frombuffer(self.parent, dtype=np.int64)[first:] - first
        duration = (np.frombuffer(self.end, dtype=np.int64)[first:]
                    - np.frombuffer(self.start, dtype=np.int64)[first:])
        work = np.frombuffer(self.work, dtype=np.int64)[first:]
        nbytes = np.frombuffer(self.nbytes, dtype=np.int64)[first:]
        children = np.zeros(len(duration), dtype=np.int64)
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        self_ns = duration - children

        summary = {}
        for layer_id, name in enumerate(self.layers):
            mask = layer == layer_id
            summary[name] = {
                "calls": int(mask.sum()),
                "self_s": float(self_ns[mask].sum()) * 1e-9,
                "wall_s": float(duration[mask].sum()) * 1e-9,
                "work": int(work[mask].sum()),
                "p50_us": float(np.median(duration[mask])) * 1e-3 if mask.any() else 0.0,
            }
        grid_id = self._layer_ids.get("oracle.grid_search")
        values_id = self._layer_ids.get("chsh.S_values")
        in_grid = (layer == values_id) & nested
        in_grid[in_grid] = layer[parent[in_grid]] == grid_id
        summary["oracle.grid_search"]["bytes_computed"] = int(nbytes[in_grid].sum())
        summary["suites"] = {suite: (residual, summary[layer_name]["wall_s"])
                             for layer_name, (suite, residual) in self.suite_results.items()}
        return summary

    def save(self, path) -> None:
        """Write every recorded span to a compressed .npz file."""
        np.savez_compressed(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.layer, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            work=np.frombuffer(self.work, dtype=np.int64),
            computed_bytes=np.frombuffer(self.nbytes, dtype=np.int64),
            unit_offsets=np.array(self.unit_offsets, dtype=np.int64),
        )
