#!/usr/bin/env python3
"""topobell benchmark: one workload, one run, one JSON result line.

Usage, from the root of a topobell checkout:

    python3 perfbench/run.py --workload scan-scalar --seed 1 --seconds 35 --trace 0

Workloads (all closed loop, one caller, one process):

* ``verify-default``: ``topobell verify --budget 1000``; the default fixed
  grids with 1000 heavy / 100 light random draws from the program's own
  fixed seeds (the benchmark seed does not enter).
* ``sweep-grid``: ``topobell sweep`` over two-point ranges in [0, pi]
  whose start is offset by the seed; every row is one default-GridSpec
  ``grid_search_max_S``.
* ``scan-scalar``: a seeded stream of single-point ``run_scenario`` calls
  over all four scenarios, each followed by
  ``expectation_from_distribution``.

``--trace 0`` measures the end-to-end metrics with no instrumentation;
times are reported in units of a reference kernel sampled during each work
unit, because this class of shared machine drifts in speed by tens of
percent. ``--trace 1`` alternates untraced and traced work units and reports the
per-layer metrics of ``spans.py``. Every output is checked; the last stdout
line is ``{"correct", "attempted", "failed", "metrics"}`` and a fuller
record goes to ``perfbench/results/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads: the benchmark is single-process and
# single-threaded by design.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
import time  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

VERIFY_ARGV = ("verify", "--budget", "1000")
SWEEP_POINTS = 2
SWEEP_RANGES = 4
SCAN_CALLS = 10_000
SETUP_REPEATS = 11
TAIL_BEYOND = 10

SWEEP_TOL = 1e-6
SCAN_TOL = 1e-12

#: Fresh-interpreter set-up: import the package and finish one first call.
FIRST_CALL = ("simulate", "--scenario", "C", "--theta-l", "0.3", "--theta-r", "1.1",
              "--mu", "1", "--lambda-l", "0.7")
SETUP_CODE = """\
import contextlib, io, sys, time
sys.path.insert(0, {src!r})
import topobell, topobell.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = topobell.cli.main({argv!r})
print(time.monotonic())
sys.exit(code)
"""


def _import_topobell():
    """Import topobell from this checkout's src/, never from elsewhere."""
    if not (SRC / "topobell" / "__init__.py").is_file():
        raise SystemExit(f"error: no topobell sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import topobell
    import topobell.cli
    if Path(topobell.__file__).resolve().parent != (SRC / "topobell").resolve():
        raise SystemExit(f"error: imported topobell from {topobell.__file__}, not {SRC}")
    return topobell


@dataclass
class Unit:
    """One work unit: its wall time, latency samples (s) and op outcomes.

    ``kinds`` labels each sample with its op kind when a unit mixes kinds.
    """

    seconds: float
    samples: np.ndarray
    attempted: int
    failed: int
    ref: float = 0.0
    kinds: np.ndarray | None = None


def _call_cli(cli, argv) -> tuple[float, int | None, str]:
    buffer = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(argv))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        code = None
    return perf_counter() - start, code, buffer.getvalue()


class VerifyDefault:
    """One op is one ``verify`` run; checks exit 0 and 12 PASS lines."""

    def __init__(self, topobell, seed: int):
        self.cli = topobell.cli

    def unit(self, index: int) -> Unit:
        seconds, code, out = _call_cli(self.cli, VERIFY_ARGV)
        lines = out.splitlines()
        passed = sum(": PASS " in line for line in lines)
        ok = code == 0 and passed == 12 and len(lines) == 12
        return Unit(seconds, np.array([seconds]), 1, 0 if ok else 1)


class SweepGrid:
    """One op is one sweep row; a unit is one two-row ``sweep`` call.

    The units cycle over SWEEP_RANGES seeded ranges, so every invocation
    repeats and its stdout hash must repeat too. A unit's latency sample is
    its time per row.
    """

    def __init__(self, topobell, seed: int):
        self.cli = topobell.cli
        offset = np.random.default_rng([seed, 2]).uniform(0.0, np.pi / 2)
        starts = [(offset + k * np.pi / 8) % (np.pi / 2) for k in range(SWEEP_RANGES)]
        self.ranges = [(float(s), float(s + np.pi / 2)) for s in starts]
        self.hashes: dict[int, str] = {}

    def argv(self, index: int) -> list[str]:
        low, high = self.ranges[index % SWEEP_RANGES]
        return ["sweep", "--min", repr(low), "--max", repr(high),
                "--points", str(SWEEP_POINTS)]

    def unit(self, index: int) -> Unit:
        seconds, code, out = _call_cli(self.cli, self.argv(index))
        failed = SWEEP_POINTS
        if code == 0:
            failed = self._check_rows(out)
            digest = hashlib.sha256(out.encode()).hexdigest()
            key = index % SWEEP_RANGES
            if self.hashes.setdefault(key, digest) != digest:
                failed = SWEEP_POINTS
        return Unit(seconds, np.array([seconds / SWEEP_POINTS]), SWEEP_POINTS, failed)

    @staticmethod
    def _check_rows(out: str) -> int:
        """Rows failing the grid-vs-analytic check; all rows if unparsable."""
        try:
            lines = out.strip().splitlines()
            header = lines[0].split(",")
            rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
            if len(rows) != SWEEP_POINTS:
                return SWEEP_POINTS
            failed = 0
            for row in rows:
                analytic = 2.0 * math.sqrt(1.0 + math.cos(2.0 * row["mu_lambda"]) ** 2)
                if not (abs(row["s_max_grid"] - row["s_max_analytic"]) <= SWEEP_TOL
                        and abs(row["s_max_analytic"] - analytic) <= SWEEP_TOL):
                    failed += 1
            return failed
        except (IndexError, KeyError, ValueError):
            return SWEEP_POINTS


class ScanScalar:
    """One op is one ``run_scenario`` + ``expectation_from_distribution`` call.

    A unit is one pass over SCAN_CALLS seeded inputs, an equal number per
    scenario in seeded order, so per-pass layer counts do not depend on the
    seed. Outputs are checked against closed forms computed before timing.
    """

    def __init__(self, topobell, seed: int):
        from topobell import chsh, closed_form
        from topobell.entangled import Scenario, TopoPhaseSpec

        self.topobell = topobell
        rng = np.random.default_rng([seed, 3])
        scenarios = [s for s in Scenario for _ in range(SCAN_CALLS // len(Scenario))]
        order = rng.permutation(len(scenarios))
        self.inputs = []
        self.expected = []
        self.kinds = np.array([list(Scenario).index(scenarios[i]) for i in order])
        for i in order:
            scenario = scenarios[i]
            theta_l, theta_r = (float(x) for x in rng.uniform(0.0, 2.0 * np.pi, size=2))
            reference = None
            if scenario is Scenario.A:
                topo = TopoPhaseSpec.path_integrals(rng.uniform(-2, 2), *rng.uniform(-3, 3, size=4))
            elif scenario is Scenario.C:
                topo = TopoPhaseSpec.spin_conditioned(rng.uniform(-2, 2), *rng.uniform(-3, 3, size=2))
                two_ml = 2.0 * topo.mu * (topo.lambda_l - topo.lambda_r)
                reference = (closed_form.scenario_c_distribution(theta_l, theta_r, two_ml),
                             chsh.expectation_closed_form(theta_l, theta_r, math.cos(two_ml)))
            else:
                topo = None if scenario is Scenario.B else \
                    TopoPhaseSpec.aharonov_bohm(rng.uniform(-6, 6))
                reference = (closed_form.scenario_b_distribution(theta_l, theta_r),
                             chsh.expectation_closed_form(theta_l, theta_r, 1.0))
            self.inputs.append((scenario, theta_l, theta_r, topo))
            self.expected.append(None if reference is None else
                                 (reference[0].as_array(), float(reference[1])))

    def unit(self, index: int) -> Unit:
        run = self.topobell.run_scenario
        expectation = self.topobell.expectation_from_distribution
        samples = np.empty(len(self.inputs))
        outputs = []
        failed = 0
        unit_start = perf_counter()
        for i, (scenario, theta_l, theta_r, topo) in enumerate(self.inputs):
            start = perf_counter()
            try:
                dist = run(scenario, theta_l, theta_r, topo)
                value = expectation(dist)
            except Exception:
                dist = value = None
            samples[i] = perf_counter() - start
            outputs.append((dist, value))
        seconds = perf_counter() - unit_start
        for (dist, value), expected in zip(outputs, self.expected):
            failed += not self._correct(dist, value, expected)
        return Unit(seconds, samples, len(outputs), failed, kinds=self.kinds)

    @staticmethod
    def _correct(dist, value, expected) -> bool:
        if dist is None:
            return False
        p = np.array([dist.p_d0p_d0, dist.p_d0p_d1, dist.p_d1p_d0, dist.p_d1p_d1])
        if not abs(value - (p[0] - p[1] - p[2] + p[3])) <= SCAN_TOL:
            return False
        if expected is None:
            return (abs(float(p.sum()) - 1.0) <= SCAN_TOL
                    and bool(np.all(p >= -SCAN_TOL)) and bool(np.all(p <= 1.0 + SCAN_TOL)))
        reference, reference_value = expected
        return (float(np.max(np.abs(p - reference))) <= SCAN_TOL
                and abs(value - reference_value) <= SCAN_TOL)


WORKLOADS = {
    "verify-default": VerifyDefault,
    "sweep-grid": SweepGrid,
    "scan-scalar": ScanScalar,
}


def measure_setup() -> list[float]:
    """Wall time of SETUP_REPEATS fresh interpreters: import + first call.

    The child stamps its own end on the system-wide monotonic clock, so the
    parent's polling wait (50 ms steps under a timeout) does not enter.
    """
    code = SETUP_CODE.format(src=str(SRC), argv=list(FIRST_CALL))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        child = subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                               capture_output=True, text=True, cwd=ROOT)
        times.append(float(child.stdout.split()[-1]) - start)
    return times


def kind_median(samples: np.ndarray, kinds: np.ndarray | None) -> float:
    """Median latency; with op kinds, the mean of the per-kind medians.

    scan-scalar mixes four scenarios whose latencies form separate clusters;
    the pooled median falls in the gap between them and jumps with their
    relative speed, while each kind's median sits in a dense region.
    """
    if kinds is None:
        return float(np.median(samples))
    return statistics.fmean(float(np.median(samples[kinds == k])) for k in np.unique(kinds))


def tail(samples: np.ndarray) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct, beyond).

    Below 2*TAIL_BEYOND samples that percentile would sit under the median,
    so the maximum is reported instead (percentile 100, 0 beyond).
    """
    n = len(samples)
    if n < 2 * TAIL_BEYOND:
        return float(samples.max()), 100.0, 0
    value = np.partition(samples, n - TAIL_BEYOND - 1)[n - TAIL_BEYOND - 1]
    return float(value), 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


_REFERENCE_ARRAY = np.linspace(0.0, 6.0, 16_000)


def reference_kernel() -> float:
    """Time a fixed Python loop plus a fixed numpy pass (about 1 ms).

    The kernel never touches topobell, so a change to the package cannot
    move it; it moves only with the speed the machine gives this process
    at that moment. End-to-end times are divided by it (see REF_NOTE).
    """
    start = perf_counter()
    total = 0
    for i in range(8_000):
        total += i * i
    x = _REFERENCE_ARRAY
    float(np.abs(np.cos(x) * np.sin(x) - 0.5 * np.cos(x)).max())
    return perf_counter() - start


REF_INTERVAL_S = 0.1
REF_NOTE = ("ref = mean time of the reference kernel, sampled every 0.1 s of wall "
            "time while the work unit runs (plus once after it); the sampling time "
            "is taken out of the unit's time before dividing")


class ReferenceSampler:
    """Samples the reference kernel from a SIGALRM timer during one work unit.

    The machine's speed drifts by tens of percent over seconds (other
    tenants), so the kernel is timed inside the unit rather than around it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0

    def _sample(self, signum, frame):
        start = perf_counter()
        self.samples.append(reference_kernel())
        self.stolen += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(reference_kernel())
        return False


def run_timed(workload, seconds: float) -> list[Unit]:
    """Units until the next one would overrun ``seconds``."""
    units = []
    start = perf_counter()
    while True:
        with ReferenceSampler() as sampler:
            unit = workload.unit(len(units))
        unit.seconds -= sampler.stolen
        unit.ref = statistics.fmean(sampler.samples)
        units.append(unit)
        elapsed = perf_counter() - start
        if elapsed + unit.seconds > seconds:
            return units


def end_to_end_metrics(units: list[Unit], setup: list[float]) -> tuple[dict, dict]:
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = np.concatenate([unit.samples for unit in units])
    scaled = np.concatenate([unit.samples / unit.ref for unit in units])
    kinds = None if units[0].kinds is None else np.concatenate([unit.kinds for unit in units])
    ops = sum(unit.attempted for unit in units)
    busy = sum(unit.seconds for unit in units)
    wall_ref = busy / sum(unit.ref for unit in units)
    tail_value, tail_pct, beyond = tail(samples)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_ref": (wall_ref, "ref"),
        "ops_per_ref": (ops / len(units) / wall_ref, "1/ref"),
        "op_p50_ref": (kind_median(scaled, kinds), "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    sampling = {
        "ref_note": REF_NOTE,
        "units": len(units),
        "unit_seconds": [unit.seconds for unit in units],
        "unit_ref_s": [unit.ref for unit in units],
        "latency_samples": len(samples),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "setup_samples_s": setup,
        "wall_clock": {
            "wall_s": statistics.median(unit.seconds for unit in units),
            "ops_per_s": ops / busy,
            "op_p50_ms": kind_median(samples, kinds) * 1e3,
            "op_tail_ms": tail_value * 1e3,
            "op_tail_ref": tail(scaled)[0],
        },
    }
    return metrics, sampling


def run_traced(workload, seconds: float):
    """Alternate untraced and traced runs of unit 0 until ``seconds`` is used."""
    from spans import TIMED_LAYERS, VERIFY_SUITES, Tracer

    tracer = Tracer()
    untraced, traced, summaries = [], [], []
    start = perf_counter()
    while True:
        untraced.append(workload.unit(0))
        tracer.install()
        try:
            tracer.begin_unit()
            traced.append(workload.unit(0))
        finally:
            tracer.uninstall()
        summaries.append(tracer.unit_summary())
        elapsed = perf_counter() - start
        if elapsed + untraced[-1].seconds + traced[-1].seconds > seconds:
            break

    def median(path):
        return statistics.median(path(s) for s in summaries)

    first = summaries[0]
    metrics = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.calls"] = (first[layer]["calls"], "count")
        metrics[f"{layer}.self_s"] = (median(lambda s: s[layer]["self_s"]), "s")
    metrics["entangled.runners.p50_us"] = (
        median(lambda s: s["entangled.runners"]["p50_us"]), "us")
    metrics["oracle.grid_search.evaluations"] = (first["oracle.grid_search"]["work"], "count")
    metrics["oracle.grid_search.bytes_computed"] = (
        first["oracle.grid_search"]["bytes_computed"], "B")
    metrics["chsh.S_values.elements"] = (first["chsh.S_values"]["work"], "count")
    for suite in VERIFY_SUITES:
        metrics[f"verify.{suite}.wall_s"] = (
            median(lambda s: s["suites"].get(suite, (0.0, 0.0))[1]), "s")
        metrics[f"verify.{suite}.worst_residual"] = (
            first["suites"].get(suite, (0.0, 0.0))[0], "abs")
    metrics["cli.main.self_s"] = (median(lambda s: s["cli.main"]["self_s"]), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(u.seconds for u in traced)
        - statistics.median(u.seconds for u in untraced), "s")

    def counts(summary):
        return {layer: (v["calls"], v["work"], v.get("bytes_computed", 0))
                for layer, v in summary.items() if layer != "suites"}

    sampling = {
        "untraced_units": len(untraced),
        "traced_units": len(traced),
        "counts_repeat": all(counts(s) == counts(first) for s in summaries),
        "spans": len(tracer.start),
    }
    return untraced + traced, metrics, sampling, tracer


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    topobell = _import_topobell()
    setup = measure_setup()
    workload = WORKLOADS[args.workload](topobell, args.seed)
    # In-process warm-up: the same first call the set-up time covers.
    if _call_cli(topobell.cli, FIRST_CALL)[1] != 0:
        raise SystemExit("error: warm-up call failed")

    tracer = None
    if args.trace:
        units, values, sampling, tracer = run_traced(workload, args.seconds)
    else:
        units = run_timed(workload, args.seconds)
        values, sampling = end_to_end_metrics(units, setup)
    attempted = sum(unit.attempted for unit in units)
    failed = sum(unit.failed for unit in units)
    correct = failed == 0 and sampling.get("counts_repeat", True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS_DIR.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.save(RESULTS_DIR / f"{stem}-spans.npz")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "machine": {
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "verify_argv": list(VERIFY_ARGV),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "sampling": sampling,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    if isinstance(workload, SweepGrid):
        record["sweep_stdout_sha256"] = {" ".join(workload.argv(k)): digest
                                         for k, digest in sorted(workload.hashes.items())}
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
