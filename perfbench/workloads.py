"""Seeded inputs, operations and result checks for the speclab benchmark.

A workload is a fixed list of operations on speclab's public API.  One pass
issues them in order from a single caller, each after the previous one has
returned (a closed loop with one client).  Every operation's output is
verified right after it returns, outside the timed region, against a closed
form, an independent second route or a structural invariant, using the
tolerances the test suite and the CLI already use.

Run as a script, ``python3 perfbench/workloads.py <workload> <seed>`` imports
speclab and generates the seeded inputs, then exits: the benchmark times this
fresh process as its set-up cost.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import speclab  # noqa: E402
from speclab import cli, harmonic, integral_ops, linalg_core, measures, spectral_fd  # noqa: E402

if not Path(speclab.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"speclab was imported from {speclab.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# checks

class Checks:
    """Verification tally: attempted, failed, and the worst measured/tolerance ratio."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.worst_ratio = -np.inf

    def leq(self, label: str, measured: float, tolerance: float) -> None:
        measured = float(measured)
        self.attempted += 1
        if tolerance > 0.0:
            self.worst_ratio = max(self.worst_ratio, measured / tolerance)
        if not measured <= tolerance:  # also catches nan
            self.failures.append(f"{label}: {measured:.3e} > {tolerance:.3e}")

    def flag(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    def report(self, rep: cli.ExperimentReport) -> None:
        """Count an experiment's own checks, as `speclab run` judges them."""
        for c in rep.checks:
            self.attempted += 1
            if c.tolerance > 0.0:
                self.worst_ratio = max(self.worst_ratio, c.measured / c.tolerance)
            if not c.passed:
                self.failures.append(f"{rep.name}: {c.label} (measured {c.measured:.3e}, tolerance {c.tolerance:.3e})")


# ---------------------------------------------------------------------------
# operations

@dataclasses.dataclass
class Op:
    label: str
    call: Callable[[], Any]
    verify: Callable[[Any, Checks], None]
    csv: Path | None = None  # an experiment's CSV, which stands for its output


def _experiment(cfg: cli.ExperimentConfig, label: str | None = None) -> Op:
    # run_experiment is looked up at call time, so a traced run sees the rebound name
    return Op(
        label or cfg.name,
        lambda: cli.run_experiment(cfg),
        lambda rep, chk: chk.report(rep),
        Path(cfg.out) / f"{cfg.name}.csv",
    )


def _sl_chain(seed: int, out: str) -> list[Op]:
    runs = (("sl-dirichlet", 400), ("sl-dirichlet", 800), ("sl-shifted", 400), ("volterra", 400))
    return [_experiment(cli.ExperimentConfig(name=n, seed=seed, nodes=k, out=out), f"{n}@{k}") for n, k in runs]


def _fourier_measures(seed: int, out: str) -> list[Op]:
    rng = np.random.default_rng(seed)

    # acceptance criterion 3, verbatim: 81 frequencies against the 256 001-point
    # Poisson density of height y = 1
    y = 1.0
    grid = np.arange(-3.2e4, 3.2e4 + 0.125, 0.25)
    poisson = measures.FiniteMeasure.from_density(grid, (y / np.pi) / (grid * grid + y * y))
    omega = np.linspace(-10.0, 10.0, 81)

    def check_fourier(got, chk):
        chk.leq("measure_fourier vs e^{-y|w|}", np.max(np.abs(got - np.exp(-y * np.abs(omega)))), 1e-4)

    # a seeded positive mixture of Gaussian bumps on a 4001-point grid
    u = np.linspace(-10.0, 10.0, 4001)
    centers = rng.uniform(-4.0, 4.0, 3)
    widths = rng.uniform(0.3, 1.0, 3)
    weights = rng.uniform(0.5, 1.5, 3)
    bumps = sum(w * np.exp(-((u - c) / s) ** 2) for c, s, w in zip(centers, widths, weights))
    bump_measure = measures.FiniteMeasure.from_density(u, bumps)
    y_smooth = 0.5

    def check_smooth(out_measure, chk):
        # each input sample keeps the kernel mass that falls inside the window,
        # (arctan((hi - u)/y) + arctan((u - lo)/y)) / pi, in closed form
        captured = (np.arctan((u[-1] - u) / y_smooth) + np.arctan((u - u[0]) / y_smooth)) / np.pi
        want = np.trapezoid(bumps * captured, u)
        mass = out_measure.total_mass()
        chk.leq("poisson_smooth mass vs closed-form captured mass", abs(mass - want), 1e-6 * abs(want))
        chk.flag("poisson_smooth mass does not exceed input mass", mass.real <= bump_measure.total_mass().real)

    n = 4096
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    xnorm = float(np.linalg.norm(x))

    def check_dft(got, chk):
        chk.leq("dft vs ifft(x) sqrt(N), normwise", np.linalg.norm(got - np.fft.ifft(x) * np.sqrt(n)), 1e-12 * xnorm)

    def check_inverse_dft(got, chk):
        chk.leq("inverse_dft vs fft(x)/sqrt(N), normwise", np.linalg.norm(got - np.fft.fft(x) / np.sqrt(n)), 1e-12 * xnorm)

    halfplane = cli.ExperimentConfig(name="poisson-halfplane", seed=seed, out=out)
    return [
        Op("measure_fourier[81x256001]", lambda: measures.measure_fourier(poisson, omega), check_fourier),
        _experiment(halfplane),
        Op("poisson_smooth[4001x4001]", lambda: measures.poisson_smooth(bump_measure, y_smooth, u), check_smooth),
        Op("dft[4096]", lambda: harmonic.dft(x), check_dft),
        Op("inverse_dft[4096]", lambda: harmonic.inverse_dft(x), check_inverse_dft),
    ]


RESOLUTION_N = 384
CLUSTER_VALUES = (-1.0, 0.5, 2.0)


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _hermitian_from(q: np.ndarray, d: np.ndarray) -> np.ndarray:
    a = (q * d) @ q.conj().T
    return (a + a.conj().T) / 2.0


def _probe(t):
    return t ** 3 - 2.0 * t + 1.0


def _resolution_ops(tag: str, a: np.ndarray, rng: np.random.Generator, distinct: int | None) -> list[Op]:
    """hermitian_eig on `a`, then reconstruct, pvm, measurable_calculus and spectral_measure on the result."""
    n = a.shape[0]
    eye = np.eye(n)
    a_norm = linalg_core.operator_norm(a)
    lo, hi = np.sort(rng.uniform(-1.5, 1.5, 2))
    borel = spectral_fd.BorelSet.interval(float(lo), float(hi))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x /= np.linalg.norm(x)
    yv = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    yv /= np.linalg.norm(yv)
    probe_direct = linalg_core.inner_product(x, (a @ a @ a - 2.0 * a + eye) @ yv)
    state: dict[str, Any] = {}

    def eig():
        res = linalg_core.hermitian_eig(a)
        state["res"] = res
        return res

    def check_eig(res, chk):
        chk.leq(f"{tag}: sum of projections vs I", linalg_core.operator_norm(sum(res.projections) - eye), 1e-10)
        chk.flag(f"{tag}: multiplicities sum to n", int(np.sum(res.multiplicities)) == n)
        chk.flag(f"{tag}: eigenvalues strictly ascending", bool(np.all(np.diff(res.eigenvalues) > 0)))
        if distinct is not None:
            chk.flag(f"{tag}: {distinct} distinct eigenvalues", len(res.eigenvalues) == distinct)

    def check_reconstruct(m, chk):
        chk.leq(f"{tag}: reconstruct() vs A", linalg_core.operator_norm(m - a), 1e-10 * (1.0 + a_norm))

    def check_pvm(p, chk):
        res = state["res"]
        rank = sum(int(k) for lam, k in zip(res.eigenvalues, res.multiplicities) if borel.contains(float(lam)))
        chk.leq(f"{tag}: pvm idempotent", linalg_core.operator_norm(p @ p - p), 1e-10)
        chk.leq(f"{tag}: pvm self-adjoint", linalg_core.operator_norm(p - p.conj().T), 1e-10)
        chk.flag(f"{tag}: pvm trace equals its rank", round(float(np.trace(p).real)) == rank)

    def check_calculus(m, chk):
        got = linalg_core.inner_product(x, m @ yv)
        state["calculus_xy"] = got
        chk.leq(f"{tag}: measurable_calculus vs A^3 - 2A + I", abs(got - probe_direct), 1e-10 * (1.0 + abs(probe_direct)))

    def check_measure(sm, chk):
        xy = linalg_core.inner_product(x, yv)
        mass_tol = 1e-12 * (1.0 + np.linalg.norm(x) * np.linalg.norm(yv))
        chk.leq(f"{tag}: spectral_measure mass vs <x,y>", abs(sm.total_mass() - xy), mass_tol)
        want = state["calculus_xy"]
        chk.leq(f"{tag}: spectral_measure probe vs calculus", abs(sm.integrate(_probe) - want), 1e-10 * (1.0 + abs(want)))
        state.clear()  # drop the resolution's dense projections before the next operation

    return [
        Op(f"hermitian_eig[{tag}]", eig, check_eig),
        Op(f"reconstruct[{tag}]", lambda: state["res"].reconstruct(), check_reconstruct),
        Op(f"pvm[{tag}]", lambda: spectral_fd.pvm(state["res"], borel), check_pvm),
        Op(f"measurable_calculus[{tag}]", lambda: spectral_fd.measurable_calculus(state["res"], _probe), check_calculus),
        Op(f"spectral_measure[{tag}]", lambda: spectral_fd.spectral_measure(state["res"], x, yv), check_measure),
    ]


def _resolution_large(seed: int, out: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    n = RESOLUTION_N
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    simple = (m + m.conj().T) / (2.0 * np.sqrt(n))  # semicircle spectrum on about [-2, 2]
    q = _random_unitary(rng, n)
    clustered = _hermitian_from(q, rng.choice(CLUSTER_VALUES, n))
    partner = _hermitian_from(q, rng.standard_normal(n))  # commutes with `clustered`

    def check_joint(res, chk):
        chk.flag("commuting pair detected compatible", res.compatible)
        if res.compatible:
            da = res.basis.conj().T @ clustered @ res.basis
            db = res.basis.conj().T @ partner @ res.basis
            chk.leq("joint off-diagonal residual (A)", linalg_core.operator_norm(da - np.diag(np.diag(da))), 1e-8)
            chk.leq("joint off-diagonal residual (B)", linalg_core.operator_norm(db - np.diag(np.diag(db))), 1e-8)

    radius = float(np.max(np.abs(np.linalg.eigvalsh(simple))))
    z = 2.0 * radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))

    def check_neumann(res, chk):
        chk.flag("neumann series converged", res.converged)
        chk.leq("neumann_resolvent vs -resolvent", linalg_core.operator_norm(res.matrix + spectral_fd.resolvent(simple, z)), 1e-8)

    twist, order = 0.5, 128

    def check_momentum(res, chk):
        modes = np.arange(-order, order + 1)
        chk.leq("momentum eigenvalues vs twist + n", np.max(np.abs(res.eigenvalues - (twist + modes))), 0.0)
        chk.leq("momentum sum of projections vs I", linalg_core.operator_norm(sum(res.projections) - np.eye(res.dim)), 1e-10)

    return (
        _resolution_ops("simple", simple, rng, None)
        + _resolution_ops("clustered", clustered, rng, len(CLUSTER_VALUES))
        + [
            Op("commuting_diagonalization[384]", lambda: spectral_fd.commuting_diagonalization(clustered, partner), check_joint),
            Op("neumann_resolvent[384]", lambda: spectral_fd.neumann_resolvent(simple, z), check_neumann),
            Op("momentum_model[0.5,128]", lambda: harmonic.momentum_model(twist, order), check_momentum),
        ]
    )


TRIAL_SUITE = (
    "poisson-disc", "herglotz-roundtrip", "bochner", "dft-unitarity",
    "gelfand", "hausdorff", "cayley", "evolve", "uncertainty", "compatibility", "spectral-measures",
    "rkhs-psd", "multiplier-adjoint", "dirichlet-invariance", "hs-invariance", "momentum-model",
)


def _trial_suite(seed: int, out: str) -> list[Op]:
    return [_experiment(cli.ExperimentConfig(name=n, seed=seed, out=out)) for n in TRIAL_SUITE]


WORKLOADS: dict[str, Callable[[int, str], list[Op]]] = {
    "sl-chain": _sl_chain,
    "fourier-measures": _fourier_measures,
    "resolution-large": _resolution_large,
    "trial-suite": _trial_suite,
}


def make_ops(workload: str, seed: int, out: str) -> list[Op]:
    """Generate the seeded inputs of a workload and return its operations."""
    return WORKLOADS[workload](seed, out)


# ---------------------------------------------------------------------------
# passes

def digest(obj: Any, h=None) -> str:
    """Content hash of an operation's output (arrays by bytes, dataclasses by field)."""
    top = h is None
    h = hashlib.sha256() if top else h
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).data)
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            digest(getattr(obj, f.name), h)
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            digest(item, h)
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else ""


def run_pass(
    ops: list[Op],
    checks: Checks,
    tracer=None,
    measure_memory: bool = False,
    outputs: dict | None = None,
    op_seconds: dict | None = None,
) -> tuple[float, int]:
    """Issue every operation once; return (seconds inside the calls, peak traced bytes).

    Only the calls are timed and traced: verification runs between them.
    With measure_memory the caller has started tracemalloc, and the peak is
    taken over the calls only.  With outputs, each operation's output (an
    experiment's CSV bytes, else a digest) is stored under its label; with
    op_seconds, each call's time is appended to a list under its label.
    """
    gc.collect()
    seconds = 0.0
    peak = 0
    for op in ops:
        if measure_memory:
            tracemalloc.reset_peak()
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        result = op.call()
        elapsed = time.perf_counter() - t0
        seconds += elapsed
        if op_seconds is not None:
            op_seconds.setdefault(op.label, []).append(elapsed)
        if tracer is not None:
            tracer.enabled = False
        if measure_memory:
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        op.verify(result, checks)
        if outputs is not None:
            outputs[op.label] = op.csv.read_bytes() if op.csv else digest(result)
        del result
    return seconds, peak


if __name__ == "__main__":
    make_ops(sys.argv[1], int(sys.argv[2]), str(ROOT))
