"""Span tracing of speclab's public functions, from outside the package.

Tracing rebinds each traced function, in every module that holds a reference
to it, to a wrapper that records a span (name, start, end, parent span,
pass id) and, for some functions, a count taken from the arguments or the
result.  speclab binds imported names at import time, so rebinding only the
defining module would miss callers such as ``cli.operator_norm``; calls
through a module global (``integral_ops.sl_eigensolve`` calling itself for the
grid-doubling re-solve) go through the wrapper and nest as child spans.
Spans stay in memory until the run ends.

Counts are exact integers that repeat for a fixed seed.  Byte counts are
computed from array shapes, not measured:

* ``nystrom.matrix_bytes``: the returned kernel and symmetrized matrices;
* ``hermitian_eig.projection_bytes``: the returned dense projections;
* ``measure_fourier.temp_bytes``: one complex M x N phase matrix for M
  frequencies against an N-point density grid;
* ``poisson_smooth.temp_bytes``: one float M x N kernel matrix for an M-point
  output grid against an N-point density grid;
* ``dft.temp_bytes``: one complex N x N phase matrix.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np


def _fourier_points(args, kwargs, out) -> int:
    mu, omega = args[0], args[1]
    n = 0 if mu.density_grid is None else mu.density_grid.size
    return int(np.size(omega)) * n


def _smooth_kernel_bytes(args, kwargs, out) -> int:
    mu, grid = args[0], args[2]
    n = 0 if mu.density_grid is None else mu.density_grid.size
    return 8 * int(np.size(grid)) * n


# (module, attribute, count taken from (args, kwargs, result)); spans take the attribute's name
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("speclab.integral_ops", "sl_eigensolve", None),
    ("speclab.integral_ops", "sl_shift", None),
    ("speclab.integral_ops", "sl_homogeneous_solutions", None),
    ("speclab.integral_ops", "nystrom", lambda a, k, out: out.kernel_matrix.nbytes + out.symmetrized.nbytes),
    ("speclab.integral_ops", "volterra", None),
    ("numpy.linalg", "eigh", None),
    ("speclab.measures", "measure_fourier", _fourier_points),
    ("speclab.measures", "poisson_smooth", _smooth_kernel_bytes),
    ("speclab.measures", "herglotz_recover", None),
    ("speclab.measures", "extract_atoms", None),
    ("speclab.measures", "positive_definite_test", None),
    ("speclab.harmonic", "dft", lambda a, k, out: 16 * int(np.size(a[0])) ** 2),
    ("speclab.harmonic", "inverse_dft", None),
    ("speclab.harmonic", "poisson_halfplane", None),
    ("speclab.harmonic", "poisson_disc", None),
    ("speclab.harmonic", "momentum_model", None),
    ("speclab.linalg_core", "hermitian_eig", lambda a, k, out: sum(p.nbytes for p in out.projections)),
    ("speclab.linalg_core", "operator_norm", None),
    ("speclab.linalg_core", "SpectralResolution.reconstruct", None),
    ("speclab.spectral_fd", "pvm", None),
    ("speclab.spectral_fd", "measurable_calculus", None),
    ("speclab.spectral_fd", "spectral_measure", None),
    ("speclab.spectral_fd", "commuting_diagonalization", None),
    ("speclab.spectral_fd", "neumann_resolvent", lambda a, k, out: out.terms),
    ("speclab.spectral_fd", "evolve", None),
    ("speclab.spectral_fd", "spectral_radius_gelfand", None),
    ("speclab.spectral_fd", "hausdorff_distance_spectra", None),
    ("speclab.spectral_fd", "uncertainty", None),
    ("speclab.spectral_fd", "cayley", None),
    ("speclab.rkhs", "gram", lambda a, k, out: out.size),
    ("speclab.rkhs", "multiplier_adjoint_check", None),
    ("speclab.rkhs", "dirichlet_seminorm_quad", None),
    ("speclab.cli", "run_experiment", None),
)

SPECLAB_MODULES = ("speclab", "speclab.linalg_core", "speclab.harmonic", "speclab.measures",
                   "speclab.spectral_fd", "speclab.integral_ops", "speclab.rkhs", "speclab.cli")

NAME, START, END, PARENT, PASS, COUNT = range(6)


class Tracer:
    """Rebinds the traced functions while installed; records spans while enabled."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.enabled = False
        self.pass_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: str, count: Callable | None) -> Callable:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack, spans = tracer._stack, tracer.spans
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserves the index children refer to
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # a tuple of atoms, which the garbage collector stops tracking
                spans[index] = (name, start, end, parent, tracer.pass_id, 0)
            if count is not None:
                spans[index] = spans[index][:COUNT] + (int(count(args, kwargs, out)),)
            return out

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in SPECLAB_MODULES]
        for module_name, attr, count in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:  # a method: rebind it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(fn, attr, count))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(fn, attr, count)
            holders = [owner] + [m for m in modules if m is not owner and getattr(m, attr, None) is fn]
            for holder in holders:
                self._restore.append((holder, attr, fn))
                setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._restore):
            setattr(holder, attr, fn)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def pass_spans(self, pass_id: int) -> list[tuple[int, tuple]]:
        return [(i, s) for i, s in enumerate(self.spans) if s[PASS] == pass_id]


def _aggregate(tracer: Tracer, pass_id: int) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds (outermost spans only), self seconds,
    nested seconds (spans whose parent has the same name) and summed counts;
    for ``sl_shift``, also ``shots``, its direct ``sl_homogeneous_solutions`` children."""
    spans = tracer.spans
    agg: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    child_time: dict[int, float] = defaultdict(float)
    mine = tracer.pass_spans(pass_id)
    for _, s in mine:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    for i, s in mine:
        a = agg[s[NAME]]
        dur = s[END] - s[START]
        a["calls"] += 1
        a["self_s"] += dur - child_time[i]
        a["count"] += s[COUNT]
        p = s[PARENT]
        outermost = True
        while p >= 0:
            if spans[p][NAME] == s[NAME]:
                outermost = False
                break
            p = spans[p][PARENT]
        if outermost:
            a["s"] += dur
        if s[PARENT] >= 0:
            parent_name = spans[s[PARENT]][NAME]
            if parent_name == s[NAME]:
                a["nested_s"] += dur
            elif (parent_name, s[NAME]) == ("sl_shift", "sl_homogeneous_solutions"):
                agg[parent_name]["shots"] += 1
    return agg


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Metrics that are not one span's time or call count, from the aggregate of a pass
DERIVED: dict[str, Callable[[dict], float]] = {
    "sl_eigensolve.refine_s": lambda agg: agg["sl_eigensolve"]["nested_s"],
    "sl_shift.attempts_per_call": lambda agg: _ratio(agg["sl_shift"]["shots"], agg["sl_shift"]["calls"]),
    "nystrom.matrix_bytes": lambda agg: agg["nystrom"]["count"],
    "measure_fourier.points_per_s": lambda agg: _ratio(agg["measure_fourier"]["count"], agg["measure_fourier"]["s"]),
    "measure_fourier.temp_bytes": lambda agg: 16 * agg["measure_fourier"]["count"],
    "poisson_smooth.temp_bytes": lambda agg: agg["poisson_smooth"]["count"],
    "dft.temp_bytes": lambda agg: agg["dft"]["count"],
    "hermitian_eig.projection_bytes": lambda agg: agg["hermitian_eig"]["count"],
    "neumann_resolvent.terms": lambda agg: agg["neumann_resolvent"]["count"],
    "gram.entries": lambda agg: agg["gram"]["count"],
    "cli.self_s": lambda agg: agg["run_experiment"]["self_s"],
}
SPAN_KEYS = ("s", "self_s", "calls")
SPAN_NAMES = frozenset(attr for _, attr, _ in TARGETS)


def layer_metrics(tracer: Tracer, pass_id: int, names) -> dict[str, float]:
    """The named per-layer metrics of one traced pass (times in seconds, counts exact).

    A name is a key of DERIVED or ``<span>.<key>`` with a key of SPAN_KEYS;
    a span that did not run in the pass reads 0.
    """
    agg = _aggregate(tracer, pass_id)
    out: dict[str, float] = {}
    for name in names:
        span, _, key = name.rpartition(".")
        if name in DERIVED:
            out[name] = DERIVED[name](agg)
        elif span in SPAN_NAMES and key in SPAN_KEYS:
            out[name] = agg[span][key]
        else:
            raise ValueError(f"no per-layer metric is defined as {name!r}")
    return out


def is_count(metric: str) -> bool:
    """Counts (calls, entries, terms, attempts, bytes) must repeat exactly for a seed."""
    return metric.endswith((".calls", ".entries", ".terms", ".attempts_per_call", "_bytes"))
