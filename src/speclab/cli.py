"""Command-line experiment runner.

Every library module is exposed as named desk-scale experiments.  Each run is
fully determined by (experiment name, seed, size parameters): randomness comes
from one splittable generator whose per-experiment substream is keyed by the
experiment name, so reruns with identical configuration produce byte-identical
CSV output.

Trials draw in order from that substream, one CSV row each, trial by trial or
in blocks of up to 128 drawn at once (same bits) and computed as one stack; a
worst-case check is np.max over a column of rows, so a NaN in any trial fails it.

Usage:
    speclab run <name> [--seed N] [--nodes N] [--dim N] [--trials N] [--trunc N]
                       [--out DIR] [--config FILE]
    speclab list

The seed and sizes must be integers (seed >= 0; nodes, dim, trials >= 1;
trunc >= 2): any other value is a usage error (exit status 2), and
run_experiment raises ValueError.

Outputs <name>.csv (measurement table) and <name>.json (machine-readable
report with verdicts) in the output directory.  The JSON is strict: a
non-finite measurement is written as the string "NaN", "Infinity" or
"-Infinity".  Exit status is 0 iff every check passes; failing checks are
named on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field, asdict
from operator import is_
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.random import SeedSequence, default_rng  # loaded with the CLI: numpy imports it lazily, and every run draws from it

from .linalg_core import (
    _hermitian_norm,
    _hermitian_part,
    _read_key_values,
    _require_count,
    _row_blocks,
    _sum_of_squares,
    hermitian_eig,
    inner_product,
    operator_norm,
)
from . import harmonic
from . import integral_ops
from . import measures
from . import rkhs
from . import spectral_fd

__all__ = ["main", "run_experiment", "experiment_names", "ExperimentConfig"]


# ---------------------------------------------------------------------------
# configuration

_CONFIG_KEYS = ("seed", "nodes", "dim", "trials", "trunc", "out")
_TRIAL_BLOCK = 128  # trials per stacked library call: bounds the stacks' memory


@dataclass
class ExperimentConfig:
    """Everything a run depends on; unknown keys are rejected at parse time."""

    name: str
    seed: int = 0
    nodes: int = 400
    dim: int = 8
    trials: int | None = None  # None: per-experiment default
    trunc: int = 64
    out: str = "."

    def resolved_trials(self, default: int) -> int:
        return default if self.trials is None else self.trials


def _check_sizes(cfg: ExperimentConfig) -> None:
    """Raise ValueError for a seed or size that is not an integer >= its least value (trials=None keeps the default)."""
    trials = {} if cfg.trials is None else {"trials": cfg.trials}
    _require_count(0, seed=cfg.seed)
    _require_count(1, nodes=cfg.nodes, dim=cfg.dim, **trials)
    _require_count(2, trunc=cfg.trunc)


@dataclass(frozen=True)
class Check:
    label: str
    measured: float
    tolerance: float
    passed: bool


def _leq(label: str, measured: float, tolerance: float) -> Check:
    return Check(label, float(measured), float(tolerance), float(measured) <= float(tolerance))


def _flag(label: str, ok: bool) -> Check:
    return Check(label, 0.0 if ok else 1.0, 0.0, bool(ok))


def _max_leq(label: str, rows: list[tuple], col, tolerance: float) -> Check:
    """Check the largest row[col] (col may be a slice) against tolerance.

    np.max propagates NaN, so a NaN in any row fails the check.
    """
    return _leq(label, np.max([r[col] for r in rows]), tolerance)


@dataclass
class ExperimentReport:
    name: str
    header: list[str]
    rows: list[tuple]
    checks: list[Check]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _rng(name: str, seed: int) -> np.random.Generator:
    key = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")
    return default_rng(SeedSequence(seed, spawn_key=(key,)))


def _trials(cfg: ExperimentConfig, rng: np.random.Generator, default: int, trial: Callable) -> list[tuple]:
    """One row (t, *trial(rng, t)) per trial t, all drawn in order from the experiment's stream."""
    return [(t, *trial(rng, t)) for t in range(cfg.resolved_trials(default))]


def _trial_blocks(cfg: ExperimentConfig, rng: np.random.Generator, default: int, block: Callable) -> list[tuple]:
    """As _trials, for block(rng, count): the result columns of `count` trials drawn at once, _TRIAL_BLOCK at a time."""
    trials = cfg.resolved_trials(default)
    blocks = [block(rng, min(_TRIAL_BLOCK, trials - start)) for start in range(0, trials, _TRIAL_BLOCK)]
    return list(zip(range(trials), *(np.concatenate(c).tolist() for c in zip(*blocks))))


def _hermitians(z: np.ndarray) -> np.ndarray:
    """(m + m*) / 2 for m = z[..., 0, :, :] + i z[..., 1, :, :]: a random Hermitian matrix from standard draws."""
    return _hermitian_part(z[..., 0, :, :] + 1j * z[..., 1, :, :])


def _unitaries(z: np.ndarray) -> np.ndarray:
    """Q of m = QR with its columns phased by R's diagonal, m as in _hermitians: a random unitary from standard draws."""
    q, r = np.linalg.qr(z[..., 0, :, :] + 1j * z[..., 1, :, :])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _hermitian_with_spectrum(q: np.ndarray, d: np.ndarray) -> np.ndarray:
    """q diag(d) q*, symmetrized: Hermitian with eigenvalues d when q is unitary."""
    return _hermitian_part(q @ np.diag(d) @ q.conj().T)


def _states(z: np.ndarray) -> np.ndarray:
    """Unit vectors h / ||h|| for h = z[..., 0, :] + i z[..., 1, :]: random states from standard draws."""
    h = z[..., 0, :] + 1j * z[..., 1, :]
    return h / np.sqrt(_sum_of_squares(h))[..., None]


# ---------------------------------------------------------------------------
# experiments

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])


def _sl_rows(cfg: ExperimentConfig, shift: float, scale: Callable[[float], float]) -> tuple:
    """The problem -f'' + shift f = lambda f on [0, pi] with Dirichlet ends, its modes,
    and rows (k, lambda, target k^2 + shift, |lambda - target| / scale(target), residual)."""
    p = integral_ops.SturmLiouvilleProblem(0.0, np.pi, lambda x: shift + 0.0 * np.asarray(x, dtype=float))
    modes = integral_ops.sl_eigensolve(p, n_nodes=cfg.nodes, k_wanted=5)
    targets = [float(m.k ** 2 + shift) for m in modes]
    return p, modes, [(m.k, m.lam, t, abs(m.lam - t) / scale(t), m.residual) for m, t in zip(modes, targets)]


def _exp_sl_dirichlet(cfg: ExperimentConfig, rng: np.random.Generator) -> ExperimentReport:
    p, modes, rows = _sl_rows(cfg, 0.0, lambda t: t)
    grid = integral_ops._panel_grid(p.a, p.b, cfg.nodes)  # the eigensolver's own grid
    s = np.stack([m.samples for m in modes])
    g = (s * grid.weights) @ s.conj().T
    gram_defect = float(np.max(np.abs(g - np.eye(len(modes)))))
    checks = [
        _max_leq("eigenvalue max relative error vs k^2", rows, 3, 5e-3),
        _leq("eigenfunction gram defect", gram_defect, 1e-8),
    ]
    return ExperimentReport(cfg.name, ["k", "lambda", "target", "rel_err", "residual"], rows, checks)


def _exp_sl_shifted(cfg: ExperimentConfig, rng: np.random.Generator) -> ExperimentReport:
    *_, rows = _sl_rows(cfg, -1.0, lambda t: 1.0 + abs(t))
    checks = [_max_leq("eigenvalue max normalized error vs k^2 - 1", rows, 3, 5e-3)]
    return ExperimentReport(cfg.name, ["k", "lambda", "target", "norm_err", "residual"], rows, checks)


def _lower_triangular_radius(op: integral_ops.IntegralOperator) -> float:
    """Spectral radius of an operator whose kernel matrix K is lower triangular.

    B = W^{1/2} K W^{1/2} is then lower triangular too, and its eigenvalues are
    its diagonal entries sw_i K_ii sw_i, formed here with B's bits.  K's strict
    upper triangle is checked one row block of _row_blocks at a time, so no n x n
    array is formed.
    """
    k = op.kernel_matrix
    if any(np.triu(k[rows], rows.start + 1).any() for rows in _row_blocks(k.shape)):
        raise ValueError("matrix is not lower triangular")
    sw = np.sqrt(op.grid.weights)
    return float(np.max(np.abs(sw * np.diag(k) * sw)))


def _exp_volterra(cfg: ExperimentConfig, rng: np.random.Generator) -> ExperimentReport:
    grid = integral_ops._panel_grid(0.0, 1.0, cfg.nodes)
    # V's kernel chi(y <= x) vanishes above the diagonal; it is dropped before V*V's is sampled
    vmax = _lower_triangular_radius(integral_ops.nystrom(integral_ops._volterra_step, grid))
    # V*V's kernel 1 - max(x, y) is the Green form u(max) v(min) / W with u = 1 - x, v = 1, W = 1
    mu = integral_ops._green_eigs(1.0 - grid.nodes, 1.0, 1.0, grid, 5)[0]
    targets = [4.0 / ((2 * k - 1) ** 2 * np.pi ** 2) for k in range(1, 6)]
    rows = [(k, float(m), t, abs(m - t) / t) for k, m, t in zip(range(1, 6), mu, targets)]
    tr = integral_ops.trace(integral_ops.nystrom(integral_ops._volterra_product, grid))
    checks = [
        _max_leq("V*V eigenvalues max relative error", rows, 3, 1e-3),
        _leq("max |eigenvalue| of discretized V", vmax, 0.05),
        _leq("trace(V*V) error vs 1/2", abs(tr - 0.5), 1e-12),
    ]
    return ExperimentReport(cfg.name, ["k", "mu", "target", "rel_err"], rows, checks)


def _exp_poisson_halfplane(cfg: ExperimentConfig, rng: np.random.Generator) -> ExperimentReport:
    y = 1.0
    t = 2.0 * harmonic.halfplane_window(y)  # tail ~ tau_tail/2: clear margin inside 1e-6
    ones = harmonic.SampledBoundaryFunction.on_window(lambda x: np.ones_like(x), -t, t, 4097)
    mass = harmonic.poisson_halfplane(ones, 0.0, y)
    mass_err = abs(mass - 1.0)

    r, h = 3.2e4, 0.25
    grid = np.arange(-r, r + h / 2, h)
    dens = np.multiply(grid, grid)  # (y / pi) / (grid ** 2 + y * y), formed in place
    dens += y * y
    np.divide(y / np.pi, dens, out=dens)
    mu = measures.FiniteMeasure.from_density(grid, dens)
    omegas = np.linspace(-10.0, 10.0, 81)
    vals = measures.measure_fourier(mu, omegas)
    targets = np.exp(-y * np.abs(omegas))
    rows = [(float(w), v.real, v.imag, tw, abs(v - tw)) for w, v, tw in zip(omegas, vals, targets)]
    checks = [
        _leq("kernel mass error |int P_y - 1|", mass_err, 1e-6),
        _max_leq("max |P_y^hat - e^{-y|w|}| on [-10, 10]", rows, 4, 1e-4),
    ]
    return ExperimentReport(cfg.name, ["omega", "re", "im", "target", "err"], rows, checks)


def _exp_poisson_disc(cfg: ExperimentConfig, rng: np.random.Generator) -> ExperimentReport:
    phis = {n: harmonic.SampledBoundaryFunction.on_circle(lambda t, n=n: np.exp(1j * n * t)) for n in (0, 1, -2, 5)}
    vals = [
        (n, rho, s, harmonic.poisson_disc(phi, rho, s))
        for n, phi in phis.items() for rho in (0.3, 0.8) for s in (0.0, 1.1, 2.0 * np.pi - 0.4)
    ]
    rows = [(n, rho, s, v.real, v.imag, abs(v - rho ** abs(n) * np.exp(1j * n * s))) for n, rho, s, v in vals]
    checks = [_max_leq("max error vs rho^|n| e^{ins}", rows, 5, 1e-10)]
    return ExperimentReport(cfg.name, ["n", "rho", "s", "re", "im", "err"], rows, checks)


def _exp_herglotz(cfg: ExperimentConfig, rng: np.random.Generator) -> ExperimentReport:
    targets = ((-1.0, 2.0), (1.0, 3.0))

    def u(z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape)
        for a, m in targets:
            out = out + m * (z.imag / np.pi) / ((z.real - a) ** 2 + z.imag ** 2)
        return out

    eps = 1e-3
    rec = measures.extract_atoms(measures.herglotz_recover(u, eps, (-2.0, 2.0)), eps)
    matched = len(rec.atoms) == len(targets)
    # with the wrong atom count nothing pairs up: each target gets a NaN row, which fails both checks
    found = sorted(rec.atoms) if matched else [(np.nan, np.nan)] * len(targets)
    rows = [(ra, rm.real, a, m, abs(rm.real - m) / m) for (a, m), (ra, rm) in zip(targets, found)]
    checks = [
        _flag("recovered atom count = 2", matched),
        _max_leq("max relative mass error", rows, 4, 0.02),
        _leq("max location error", np.max([abs(ra - a) for ra, _, a, _, _ in rows]), 10 * eps),
    ]
    return ExperimentReport(cfg.name, ["location", "mass", "target_location", "target_mass", "rel_err"], rows, checks)


def _exp_bochner(cfg: ExperimentConfig, rng: np.random.Generator) -> ExperimentReport:
    pts = np.sort(rng.uniform(-5.0, 5.0, 16))
    cases = [
        ("exp(-|x|)", lambda x: np.exp(-abs(x)), True),
        ("cos(x)", np.cos, True),
        ("x^2", lambda x: x * x, False),
    ]
    rows = []
    checks = []
    for label, f, expect_pd in cases:
        v = measures.positive_definite_test(f, pts)
        rows.append((label, v.verdict, v.min_eigenvalue))
        checks.append(_flag(f"{label} verdict is {'PD' if expect_pd else 'not-PD'}", v.is_pd == expect_pd))
    try:
        measures.positive_definite_test(lambda x: x, pts)
        raised = False
    except ValueError:
        raised = True
    rows.append(("x", "symmetry-error", float("nan")))
    checks.append(_flag("f(x)=x rejected by Hermitian-symmetry precheck", raised))
    return ExperimentReport(cfg.name, ["function", "verdict", "min_eigenvalue"], rows, checks)


def _exp_dft_unitarity(cfg: ExperimentConfig, rng: np.random.Generator) -> ExperimentReport:
    def row(n):
        f = np.stack([harmonic.dft(col) for col in np.eye(n, dtype=complex).T], axis=1)
        defect = operator_norm(f.conj().T @ f - np.eye(n))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return n, defect, float(np.linalg.norm(harmonic.inverse_dft(harmonic.dft(x)) - x))

    rows = [row(n) for n in (1, 2, 3, 8, 64)]
    checks = [_max_leq("max unitarity/roundtrip defect", rows, slice(1, 3), 1e-12)]
    return ExperimentReport(cfg.name, ["N", "unitarity_defect", "roundtrip_defect"], rows, checks)


def _exp_gelfand(cfg: ExperimentConfig, rng: np.random.Generator) -> ExperimentReport:
    def block(rng, count):
        a = _hermitians(rng.standard_normal((count, 2, cfg.dim, cfg.dim)))
        estimate = spectral_fd.spectral_radius_gelfand(a, kmax=20)[:, -1]
        r = _hermitian_norm(a)
        return estimate, r, np.abs(estimate - r)

    rows = _trial_blocks(cfg, rng, 100, block)
    checks = [_max_leq("max |gelfand_20 - spectral radius|", rows, 3, 1e-6)]
    return ExperimentReport(cfg.name, ["trial", "estimate", "spectral_radius", "err"], rows, checks)


def _exp_hausdorff(cfg: ExperimentConfig, rng: np.random.Generator) -> ExperimentReport:
    def block(rng, count):
        a, b = _hermitians(rng.standard_normal((count, 2, 2, cfg.dim, cfg.dim))).swapaxes(0, 1)
        dh = spectral_fd.hausdorff_distance_spectra(a, b)
        nd = _hermitian_norm(a - b)
        return dh, nd, dh - nd

    rows = _trial_blocks(cfg, rng, 1000, block)
    checks = [_max_leq("max (d_H - ||A-B||)", rows, 3, 1e-10)]
    return ExperimentReport(cfg.name, ["trial", "hausdorff", "norm_diff", "margin"], rows, checks)


def _exp_cayley(cfg: ExperimentConfig, rng: np.random.Generator) -> ExperimentReport:
    def block(rng, count):
        a = _hermitians(rng.standard_normal((count, 2, cfg.dim, cfg.dim)))
        u = spectral_fd.cayley(a)
        unit = operator_norm(u.conj().swapaxes(-2, -1) @ u - np.eye(cfg.dim))
        return unit, spectral_fd._set_distance(np.linalg.eigvals(u), spectral_fd.cayley_map(np.linalg.eigvalsh(a)))

    rows = _trial_blocks(cfg, rng, 100, block)
    checks = [
        _max_leq("max unitarity defect", rows, 1, 1e-10),
        _max_leq("max spectral mapping defect", rows, 2, 1e-10),
    ]
    return ExperimentReport(cfg.name, ["trial", "unitarity_defect", "mapping_defect"], rows, checks)


def _exp_evolve(cfg: ExperimentConfig, rng: np.random.Generator) -> ExperimentReport:
    h = 1e-4

    def block(rng, count):
        # a trial draws two uniforms after its matrix, so the trials are drawn one by one
        draws = [(rng.standard_normal((2, cfg.dim, cfg.dim)), *rng.uniform(-2.0, 2.0, 2)) for _ in range(count)]
        z, s, t = (np.stack(c) for c in zip(*draws))
        a = _hermitians(z)
        u = spectral_fd.evolve(a, np.stack([s + t, s, t, np.full(count, h)]))
        group = operator_norm(u[0] - u[1] @ u[2])
        gen = operator_norm((u[3] - np.eye(cfg.dim)) / h - 1j * a)
        return group, gen, [nrm ** 2 * h for nrm in _hermitian_norm(a).tolist()]

    rows = _trial_blocks(cfg, rng, 100, block)
    checks = [
        _max_leq("max group-law defect", rows, 1, 1e-10),
        _leq("max generator defect / (||A||^2 h)", np.max([gen / bound for _, _, gen, bound in rows]), 1.0),
    ]
    return ExperimentReport(cfg.name, ["trial", "group_defect", "generator_defect", "bound"], rows, checks)


def _exp_uncertainty(cfg: ExperimentConfig, rng: np.random.Generator) -> ExperimentReport:
    def block(rng, count):
        z = rng.standard_normal((count, 4 * cfg.dim + 2, cfg.dim))  # per trial: A, B and h, in rows of dim draws
        a, b = _hermitians(z[:, :-2].reshape(count, 2, 2, cfg.dim, cfg.dim)).swapaxes(0, 1)
        rec = spectral_fd.uncertainty(a, b, _states(z[:, -2:]))
        return rec.lhs, rec.robertson_lhs, rec.rhs

    rows = _trial_blocks(cfg, rng, 1000, block)
    pauli = spectral_fd.uncertainty(_SIGMA_X, _SIGMA_Y, np.array([1.0, 0.0], dtype=complex))
    checks = [
        _leq("max normalized Heisenberg violation", np.max([(h - r) / (1.0 + r) for _, h, _, r in rows]), 1e-12),
        _leq("max normalized Robertson-Schrodinger violation", np.max([(s - r) / (1.0 + r) for _, _, s, r in rows]), 1e-12),
        _leq("Pauli equality gap |lhs - rhs|", abs(pauli.lhs - pauli.rhs), 1e-12),
    ]
    return ExperimentReport(cfg.name, ["trial", "lhs", "robertson_lhs", "rhs"], rows, checks)


def _exp_compatibility(cfg: ExperimentConfig, rng: np.random.Generator) -> ExperimentReport:
    q = _unitaries(rng.standard_normal((2, cfg.dim, cfg.dim)))
    d1 = np.sort(rng.integers(0, 3, cfg.dim).astype(float))  # repeats force refinement
    d2 = rng.standard_normal(cfg.dim)
    a = _hermitian_with_spectrum(q, d1)
    b = _hermitian_with_spectrum(q, d2)
    res = spectral_fd.commuting_diagonalization(a, b)
    rows = [("commuting", res.compatible, res.commutator_norm)]
    checks = [_flag("commuting pair detected compatible", res.compatible)]
    if res.compatible:
        da = res.basis.conj().T @ a @ res.basis
        db = res.basis.conj().T @ b @ res.basis
        off = float(np.max(np.abs([da - np.diag(np.diag(da)), db - np.diag(np.diag(db))])))
        checks.append(_leq("joint off-diagonal residual", off, 1e-8))
        rows.append(("joint-residual", True, off))
    pauli = spectral_fd.commuting_diagonalization(_SIGMA_X, _SIGMA_Y)
    rows.append(("pauli-xy", pauli.compatible, pauli.commutator_norm))
    checks.append(_flag("Pauli pair detected incompatible", not pauli.compatible))
    checks.append(_leq("Pauli commutator norm error vs 2", abs(pauli.commutator_norm - 2.0), 1e-12))
    return ExperimentReport(cfg.name, ["case", "compatible", "witness"], rows, checks)


def _exp_rkhs_psd(cfg: ExperimentConfig, rng: np.random.Generator) -> ExperimentReport:
    def worst_lowest_eigenvalue(k):
        sets = []
        for _ in range(cfg.resolved_trials(200)):  # a trial draws its size, then its radii and angles
            size = int(rng.integers(2, 13))
            sets.append(rng.uniform(0.0, 0.95, size) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size)))
        low = []
        for size in set(map(len, sets)):  # one Gram and eigensolve per stack of up to _TRIAL_BLOCK sets of a size
            group = [z for z in sets if len(z) == size]
            for i in range(0, len(group), _TRIAL_BLOCK):
                g = rkhs.gram(k, np.stack(group[i:i + _TRIAL_BLOCK]))
                low.append(np.linalg.eigvalsh(_hermitian_part(g))[:, 0])
        return np.min(np.concatenate(low))

    rows = [(name, cfg.resolved_trials(200), worst_lowest_eigenvalue(rkhs.kernel_by_name(name))) for name in rkhs.KERNEL_NAMES]
    checks = [_leq(f"{name} worst gram min-eigenvalue >= -1e-9", -worst, 1e-9) for name, _, worst in rows]
    return ExperimentReport(cfg.name, ["kernel", "point_sets", "worst_min_eigenvalue"], rows, checks)


def _exp_multiplier_adjoint(cfg: ExperimentConfig, rng: np.random.Generator) -> ExperimentReport:
    r = 0.5
    pts = list(r * np.sqrt(rng.uniform(0.0, 1.0, 12)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 12)))
    pts += [r + 0j, -r + 0j, r * 1j, r * np.exp(0.3j)]  # extremes on |x| = r
    rep = rkhs.multiplier_adjoint_check((0.0, 1.0), rkhs.kernel_by_name("hardy"), pts, cfg.trunc)
    bound = 2.0 * r ** cfg.trunc
    rows = [(complex(x).real, complex(x).imag, float(res)) for x, res in zip(rep.points, rep.residuals)]
    checks = [
        _leq("max adjoint residual vs 2 r^N", rep.max_residual, bound),
        _leq("max|b| minus multiplier norm", rep.max_abs_symbol - rep.multiplier_norm, 1e-9),
    ]
    return ExperimentReport(cfg.name, ["x_re", "x_im", "residual"], rows, checks)


def _exp_dirichlet_invariance(cfg: ExperimentConfig, rng: np.random.Generator) -> ExperimentReport:
    def trial(rng, t):
        c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        s_coeff = rkhs.dirichlet_seminorm(c)
        dp = rkhs.poly_derivative(c)
        s_quad = rkhs.dirichlet_seminorm_quad(lambda z: rkhs.poly_eval(dp, z))
        a = 0.6 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        v = np.exp(2j * np.pi * rng.uniform())
        s_mob = rkhs.dirichlet_seminorm_quad(rkhs.compose_mobius(c, a, v).derivative)
        c4 = c[:5]
        e_pow = np.max([
            abs(rkhs.dirichlet_seminorm(rkhs.compose_power(c4, n)) - n * rkhs.dirichlet_seminorm(c4))
            for n in (2, 3, 7)
        ])
        return s_coeff, s_quad, s_mob, abs(s_coeff - s_quad), abs(s_coeff - s_mob), e_pow

    rows = _trials(cfg, rng, 20, trial)
    checks = [
        _max_leq("max |coefficient - quadrature| seminorm gap", rows, 4, 1e-6),
        _max_leq("max Mobius invariance gap", rows, 5, 1e-6),
        _max_leq("max |[f o p_n] - n [f]|", rows, 6, 1e-8),
    ]
    header = ["trial", "seminorm", "quadrature", "mobius", "err_quad", "err_mobius", "err_power"]
    return ExperimentReport(cfg.name, header, rows, checks)


def _exp_hs_invariance(cfg: ExperimentConfig, rng: np.random.Generator) -> ExperimentReport:
    def block(rng, count):
        z = rng.standard_normal((count, 4, cfg.dim, cfg.dim))  # per trial: A, then the draws of U
        a, u = z[:, 0] + 1j * z[:, 1], _unitaries(z[:, 2:])
        hs = integral_ops.hs_norm(a)
        inv = np.abs(integral_ops.hs_norm(u @ a @ u.conj().swapaxes(-2, -1)) - hs) / (1.0 + hs)
        return hs, inv, operator_norm(a) - hs

    rows = _trial_blocks(cfg, rng, 200, block)
    checks = [
        _max_leq("max normalized unitary-invariance defect", rows, 2, 1e-10),
        _max_leq("max (||A|| - ||A||_HS)", rows, 3, 0.0),
    ]
    return ExperimentReport(cfg.name, ["trial", "hs_norm", "invariance_defect", "norm_minus_hs"], rows, checks)


def _exp_spectral_measures(cfg: ExperimentConfig, rng: np.random.Generator) -> ExperimentReport:
    probe = lambda t: t ** 3 - 2.0 * t + 1.0

    def trial(rng, t):
        if t % 3 == 0:
            q = _unitaries(rng.standard_normal((2, cfg.dim, cfg.dim)))
            a = _hermitian_with_spectrum(q, np.sort(rng.integers(-2, 3, cfg.dim).astype(float)))
        else:
            a = _hermitians(rng.standard_normal((2, cfg.dim, cfg.dim)))
        res = hermitian_eig(a)
        x, y = _states(rng.standard_normal((2, 2, cfg.dim)))
        sm = spectral_fd.spectral_measure(res, x, y)
        mass_err = abs(sm.total_mass() - inner_product(x, y))
        ma = spectral_fd.measurable_calculus(res, probe)
        probe_err = abs(sm.integrate(probe) - inner_product(x, ma @ y))
        # eigenvalue <=> atom: each P_i carries mass for some vector; P(union of gap points), a sum of projections, is 0 iff each gap's is
        ev = res.eigenvalues
        first = res.eigenvectors[:, res.offsets[:-1]].T  # each cluster's first eigenvector
        atoms = np.all(spectral_fd.spectral_measure(res, first, first).masses.diagonal().real > 0.5)
        mids = (ev[:-1] + ev[1:]) / 2.0
        gaps = spectral_fd.BorelSet(points=tuple(mids[np.min(np.abs(ev[:, None] - mids), axis=0) > 1e-6].tolist()))
        return mass_err, probe_err, bool(atoms and not np.any(spectral_fd.pvm(res, gaps)))

    rows = _trials(cfg, rng, 100, trial)
    checks = [
        _max_leq("max |total mass - <x,y>|", rows, 1, 1e-12),
        _max_leq("max polynomial-probe defect", rows, 2, 1e-10),
        _flag("eigenvalue <=> atom on all instances", all(r[3] for r in rows)),
    ]
    return ExperimentReport(cfg.name, ["trial", "mass_err", "probe_err"], [r[:3] for r in rows], checks)


def _exp_momentum_model(cfg: ExperimentConfig, rng: np.random.Generator) -> ExperimentReport:
    order = 8
    twist = 0.5  # dyadic, so twist + n and the unit gaps are exact in floats
    res = harmonic.momentum_model(twist, order)
    modes = np.arange(-order, order + 1)
    eig_err = float(np.max(np.abs(res.eigenvalues - (twist + modes))))
    gap_err = float(np.max(np.abs(np.diff(res.eigenvalues) - 1.0)))
    d = res.reconstruct()
    u = spectral_fd.evolve(d, 0.37)
    unit = operator_norm(u.conj().T @ u - np.eye(res.dim))
    rows = [(int(n), float(lam)) for n, lam in zip(modes, res.eigenvalues)]
    checks = [
        _leq("max |eigenvalue - (twist + n)|", eig_err, 0.0),
        _leq("max |gap - 1|", gap_err, 0.0),
        _leq("evolution unitarity defect", unit, 1e-12),
    ]
    return ExperimentReport(cfg.name, ["n", "eigenvalue"], rows, checks)


_EXPERIMENTS: dict[str, tuple[str, str, Callable[[ExperimentConfig, np.random.Generator], ExperimentReport]]] = {
    "sl-dirichlet": ("integral_ops", "Sturm-Liouville q=0 Dirichlet eigenvalues vs k^2 and eigenfunction Gram", _exp_sl_dirichlet),
    "sl-shifted": ("integral_ops", "Non-injective Sturm-Liouville problem solved through the shift ladder", _exp_sl_shifted),
    "volterra": ("integral_ops", "Volterra spectrum collapse and V*V eigenvalues vs 4/((2k-1)^2 pi^2)", _exp_volterra),
    "poisson-halfplane": ("harmonic", "Half-plane Poisson kernel mass and Fourier transform e^{-y|w|}", _exp_poisson_halfplane),
    "poisson-disc": ("harmonic", "Disc Poisson integral damps e^{int} to rho^|n| e^{ins}", _exp_poisson_disc),
    "herglotz-roundtrip": ("measures", "Atom masses recovered from a positive harmonic function slice", _exp_herglotz),
    "bochner": ("measures", "Positive-definiteness verdicts for exp(-|x|), cos, x^2 and the symmetry precheck", _exp_bochner),
    "dft-unitarity": ("harmonic", "Unitarity and inversion of the normalized DFT", _exp_dft_unitarity),
    "gelfand": ("spectral_fd", "Normalized-squaring norm sequence converging to the spectral radius", _exp_gelfand),
    "hausdorff": ("spectral_fd", "Spectral Hausdorff distance bounded by the operator-norm distance", _exp_hausdorff),
    "cayley": ("spectral_fd", "Cayley transform unitarity and spectral mapping", _exp_cayley),
    "evolve": ("spectral_fd", "Unitary group law and generator recovery for e^{itA}", _exp_evolve),
    "uncertainty": ("spectral_fd", "Heisenberg and Robertson-Schrodinger inequalities plus the Pauli equality case", _exp_uncertainty),
    "compatibility": ("spectral_fd", "Joint diagonalization of commuting pairs, commutator witness otherwise", _exp_compatibility),
    "rkhs-psd": ("rkhs", "Gram positivity of the builtin kernels over random disc point sets", _exp_rkhs_psd),
    "multiplier-adjoint": ("rkhs", "Adjoint multiplier identity on truncated Hardy kernel vectors", _exp_multiplier_adjoint),
    "dirichlet-invariance": ("rkhs", "Dirichlet seminorm: coefficients vs quadrature, Mobius and power composition", _exp_dirichlet_invariance),
    "hs-invariance": ("integral_ops", "Hilbert-Schmidt norm unitary invariance and domination of the operator norm", _exp_hs_invariance),
    "spectral-measures": ("spectral_fd", "Vector-pair spectral measures: mass, polynomial probes, atom placement", _exp_spectral_measures),
    "momentum-model": ("harmonic", "Twisted momentum eigenvalues lambda + n with unit gaps and unitary evolution", _exp_momentum_model),
}


def experiment_names() -> tuple[str, ...]:
    return tuple(_EXPERIMENTS)


# ---------------------------------------------------------------------------
# reporting

def _number_format(x) -> str | None:
    """The %-format of a number cell: %d for an integer, %.17g for a float, None for anything
    else (a bool is not a number here)."""
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, np.integer)):
        return "%d"
    if isinstance(x, (float, np.floating)):
        return "%.17g"
    return None


def _fmt(x) -> str:
    """A CSV cell's text: true/false for a bool, a number by _number_format, str(x) otherwise."""
    if isinstance(x, bool):
        return "true" if x else "false"
    spec = _number_format(x)
    return str(x) if spec is None else spec % x


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    """One line per row, each cell as _fmt writes it.

    A row of numbers alone is written by one %-format, joined from _number_format's formats
    of its cells and rebuilt whenever a row's cell types differ from the last row's; a row
    with any other cell is joined from _fmt's cells.
    """
    lines = [",".join(header)]
    kinds = fmt = None
    for row in rows:
        # types compared one by one: a new tuple of them per row raised trial-suite's peak_mb by 2 KB
        if kinds is None or len(row) != len(kinds) or not all(map(is_, map(type, row), kinds)):
            kinds = tuple(map(type, row))
            specs = [_number_format(x) for x in row]
            fmt = None if None in specs else ",".join(specs)
        lines.append(",".join(map(_fmt, row)) if fmt is None else fmt % tuple(row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, cfg: ExperimentConfig, report: ExperimentReport) -> None:
    doc = {
        "experiment": report.name,
        "seed": cfg.seed,
        "params": {"nodes": cfg.nodes, "dim": cfg.dim, "trials": cfg.trials, "trunc": cfg.trunc},
        "checks": [{k: _json_number(v) for k, v in asdict(c).items()} for c in report.checks],
        "passed": report.passed,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _json_number(v):
    """A non-finite float as its name ("NaN", "Infinity", "-Infinity"): JSON has no literal for it."""
    return json.dumps(v) if isinstance(v, float) and not np.isfinite(v) else v


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run one registered experiment and write <name>.csv / <name>.json."""
    if cfg.name not in _EXPERIMENTS:
        raise KeyError(cfg.name)
    _check_sizes(cfg)
    report = _EXPERIMENTS[cfg.name][2](cfg, _rng(cfg.name, cfg.seed))
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / f"{cfg.name}.csv", report.header, report.rows)
    _write_json(out / f"{cfg.name}.json", cfg, report)
    return report


# ---------------------------------------------------------------------------
# command line

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="speclab", description="Run named numerical experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment and write <name>.csv / <name>.json")
    runp.add_argument("name", help="experiment name (see 'speclab list')")
    for key in _CONFIG_KEYS:
        if key == "out":
            runp.add_argument("--out", default=None, help="output directory (default: current)")
        else:
            runp.add_argument(f"--{key}", type=int, default=None)
    runp.add_argument("--config", default=None, help="flat key=value config file")
    sub.add_parser("list", help="list registered experiments")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        width = max(len(n) for n in _EXPERIMENTS)
        for name, (module, blurb, _) in _EXPERIMENTS.items():
            print(f"{name:<{width}}  [{module}] {blurb}")
        return 0

    if args.name not in _EXPERIMENTS:
        parser.error(f"unknown experiment {args.name!r} (run 'speclab list')")

    cfg = ExperimentConfig(name=args.name)
    try:
        values = _read_key_values(args.config, _CONFIG_KEYS) if args.config is not None else {}
        values.update({key: getattr(args, key) for key in _CONFIG_KEYS if getattr(args, key) is not None})
        for key, val in values.items():
            setattr(cfg, key, val if key == "out" else int(val))
        _check_sizes(cfg)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))

    report = run_experiment(cfg)
    for c in report.checks:
        tag = "PASS" if c.passed else "FAIL"
        print(f"{tag}  {c.label} (measured {c.measured:.6g}, tolerance {c.tolerance:.6g})")
    print(f"experiment {report.name}: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
