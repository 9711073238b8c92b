"""Experiment runner: catalog, determinism, config precedence, exit codes."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from speclab import cli, integral_ops, measures, rkhs, spectral_fd
from speclab.cli import ExperimentConfig, experiment_names, main, run_experiment

LIBRARY_MODULES = {"linalg_core", "harmonic", "measures", "spectral_fd", "integral_ops", "rkhs"}


def test_catalog_has_twenty_named_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 20
    assert len(experiment_names()) == 20
    assert any(ln.startswith("sl-dirichlet") for ln in lines)
    # every catalog entry names the library module it exercises
    for ln in lines:
        assert any(f"[{m}]" in ln for m in LIBRARY_MODULES), ln


def test_run_writes_table_and_report(tmp_path):
    rc = main(["run", "dft-unitarity", "--out", str(tmp_path)])
    assert rc == 0
    csv_path = tmp_path / "dft-unitarity.csv"
    json_path = tmp_path / "dft-unitarity.json"
    assert csv_path.exists() and json_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert "," in header and "." not in header.split(",")[0]  # named columns, not numbers
    doc = json.loads(json_path.read_text())
    assert doc["experiment"] == "dft-unitarity"
    assert doc["passed"] is True
    for check in doc["checks"]:
        assert {"label", "measured", "tolerance", "passed"} <= set(check)


def strict_json(path):
    """Parse a report as RFC 8259 JSON: a bare NaN or Infinity is an error."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.parametrize("name", experiment_names())
def test_reruns_are_byte_identical(tmp_path, name):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["run", name, "--out", str(out)]) == 0
    assert (a / f"{name}.csv").read_bytes() == (b / f"{name}.csv").read_bytes()
    assert strict_json(a / f"{name}.json")["passed"] is True


def test_nan_in_a_later_trial_fails_its_check(tmp_path, monkeypatch):
    real = spectral_fd.hausdorff_distance_spectra

    def nan_at_index_one(a, b):
        out = real(a, b)
        out[1] = np.nan
        return out

    # the stacked call returns trial 1's distance as NaN: a builtin max would skip it, np.max does not
    monkeypatch.setattr(spectral_fd, "hausdorff_distance_spectra", nan_at_index_one)
    report = run_experiment(ExperimentConfig(name="hausdorff", trials=5, out=str(tmp_path)))
    assert [math.isnan(r[1]) for r in report.rows] == [False, True, False, False, False]
    assert not report.passed
    (check,) = report.checks
    assert math.isnan(check.measured) and not check.passed
    doc = strict_json(tmp_path / "hausdorff.json")
    assert doc["passed"] is False and doc["checks"][0]["measured"] == "NaN"

    # a wrong atom count leaves nothing to pair: NaN rows, and every check fails
    monkeypatch.setattr(measures, "extract_atoms", lambda *args: measures.FiniteMeasure(atoms=((0.0, 5.0),)))
    report = run_experiment(ExperimentConfig(name="herglotz-roundtrip", out=str(tmp_path)))
    assert not any(c.passed for c in report.checks)
    assert all(math.isnan(r[0]) for r in report.rows) and len(report.rows) == 2


def test_seed_changes_the_table(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["run", "gelfand", "--seed", "1", "--out", str(a)]) == 0
    assert main(["run", "gelfand", "--seed", "2", "--out", str(b)]) == 0
    assert (a / "gelfand.csv").read_bytes() != (b / "gelfand.csv").read_bytes()


def test_config_file_applies_and_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\ndim = 4  # small matrices\ntrials = 5\nout = ignored\n")
    out = tmp_path / "out"
    rc = main(["run", "cayley", "--config", str(cfg), "--out", str(out)])
    assert rc == 0  # --out beat the file's out=
    doc = json.loads((out / "cayley.json").read_text())
    assert doc["seed"] == 5
    assert doc["params"]["dim"] == 4
    assert doc["params"]["trials"] == 5

    flag_out = tmp_path / "flagged"
    main(["run", "cayley", "--config", str(cfg), "--seed", "9", "--trials", "3", "--trunc", "16",
          "--out", str(flag_out)])
    doc2 = json.loads((flag_out / "cayley.json").read_text())
    assert doc2["seed"] == 9  # command line > file
    assert doc2["params"]["trials"] == 3
    assert doc2["params"]["trunc"] == 16
    assert len((flag_out / "cayley.csv").read_text().splitlines()) == 1 + 3


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    for text in ("sede = 5\n", "trials = 0\n", "dim = 0\n", "trunc = 1\n", "seed = -1\n"):
        cfg.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["run", "cayley", "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2, text
    for flags in (["--trials", "0"], ["--trials", "-3"], ["--dim", "0"], ["--nodes", "0"], ["--trunc", "1"], ["--seed", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(["run", "hausdorff", *flags, "--out", str(tmp_path)])
        assert exc.value.code == 2, flags
    assert not list(tmp_path.glob("*.json"))  # rejected before anything ran


def test_unknown_experiment_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["run", "no-such-experiment"])
    assert exc.value.code == 2


def test_run_experiment_api_reports_checks(tmp_path):
    report = run_experiment(ExperimentConfig(name="momentum-model", out=str(tmp_path)))
    assert report.passed
    assert report.rows and report.checks
    assert all(c.measured <= c.tolerance for c in report.checks)
    with pytest.raises(KeyError):
        run_experiment(ExperimentConfig(name="nope", out=str(tmp_path)))
    for size in ({"trials": 0}, {"dim": 0}, {"nodes": -1}, {"trunc": 1}):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(name="gelfand", out=str(tmp_path), **size))


def test_readme_and_usage_list_the_run_flags(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    flags = set(re.findall(r"--[a-z]+", capsys.readouterr().out)) - {"--help"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"--[a-z]+", section)) == flags
    assert set(re.findall(r"--[a-z]+", cli.__doc__)) == flags


# ---------------------------------------------------------------- stacked experiments

def sequential_hermitian(rng, n):
    """A random Hermitian matrix drawn as the trial-by-trial experiments drew it: the reference."""
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2.0


def sequential_state(rng, n):
    """A random unit vector drawn and normalized as the trial-by-trial experiments did it: the reference."""
    h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return h / np.linalg.norm(h)


def sequential_unitary(rng, n):
    """A random unitary drawn and phased as the trial-by-trial experiments did it: the reference."""
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    d = np.diag(r)
    return q * (d / np.abs(d))


def sequential_hs_trial(rng, n):
    """One hs-invariance trial as it was drawn: A, then U; the HS norm is taken of A and of U A U*."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u = sequential_unitary(rng, n)
    return [a, u @ a @ u.conj().T]


# per experiment: its stacked library call, its default trial count, and one trial's sequential draws
SEQUENTIAL_DRAWS = {
    "gelfand": (spectral_fd, "spectral_radius_gelfand", 100, lambda rng, n: [sequential_hermitian(rng, n)]),
    "hausdorff": (spectral_fd, "hausdorff_distance_spectra", 1000, lambda rng, n: [sequential_hermitian(rng, n) for _ in "ab"]),
    "cayley": (spectral_fd, "cayley", 100, lambda rng, n: [sequential_hermitian(rng, n)]),
    "evolve": (spectral_fd, "evolve", 100, lambda rng, n: [sequential_hermitian(rng, n), *rng.uniform(-2.0, 2.0, 2)]),
    "uncertainty": (
        spectral_fd, "uncertainty", 1000,
        lambda rng, n: [sequential_hermitian(rng, n), sequential_hermitian(rng, n), sequential_state(rng, n)],
    ),
    "hs-invariance": (integral_ops, "hs_norm", 200, sequential_hs_trial),
}


@pytest.mark.parametrize("trials", [5, 128, 129, None])
@pytest.mark.parametrize("name", sorted(SEQUENTIAL_DRAWS))
def test_block_draws_equal_sequential_draws(tmp_path, monkeypatch, name, trials):
    module, library, default, draw = SEQUENTIAL_DRAWS[name]
    real = getattr(module, library)
    calls = []

    def spy(*args, **kwargs):
        if np.ndim(args[0]) == 3:  # a stack of trials, not uncertainty's single Pauli check
            calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, library, spy)
    report = run_experiment(ExperimentConfig(name=name, trials=trials, out=str(tmp_path)))
    count = trials or default
    assert report.passed and [r[0] for r in report.rows] == list(range(count))
    per_block = 2 if name == "hs-invariance" else 1  # hs-invariance: hs_norm(A), then hs_norm(U A U*)
    sizes = [len(args[0]) for args in calls[::per_block]]
    assert sizes == [cli._TRIAL_BLOCK] * (count // cli._TRIAL_BLOCK) + [count % cli._TRIAL_BLOCK] * (count % cli._TRIAL_BLOCK > 0)

    rng = cli._rng(name, 0)
    want = [np.stack(column) for column in zip(*(draw(rng, 8) for _ in range(count)))]
    if name == "evolve":  # the library call takes A and the times [s + t, s, t, h]
        got = [np.concatenate([args[0] for args in calls])] + [np.concatenate([args[1][i] for args in calls]) for i in (1, 2)]
    elif name == "hs-invariance":
        got = [np.concatenate([args[0] for args in calls[i::2]]) for i in (0, 1)]
    else:
        got = [np.concatenate([args[i] for args in calls]) for i in range(len(want))]
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def sequential_point_set(rng):
    """One rkhs-psd trial's points, drawn as the trial-by-trial experiment drew them: the reference."""
    size = int(rng.integers(2, 13))
    return rng.uniform(0.0, 0.95, size) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size))


@pytest.mark.parametrize("trials", [5, 129, 1500, None])
def test_rkhs_psd_gram_stacks_hold_the_sequential_point_sets(tmp_path, monkeypatch, trials):
    # the sets differ in size, so they are stacked by size, not in trial blocks
    real, calls = rkhs.gram, []
    monkeypatch.setattr(rkhs, "gram", lambda k, z: calls.append((k.name, z)) or real(k, z))
    report = run_experiment(ExperimentConfig(name="rkhs-psd", trials=trials, out=str(tmp_path)))
    count = trials or 200
    assert report.passed and [r[0] for r in report.rows] == list(rkhs.KERNEL_NAMES)
    rng = cli._rng("rkhs-psd", 0)
    for name, point_sets, worst in report.rows:
        sets = [sequential_point_set(rng) for _ in range(count)]
        stacks = [z for kernel, z in calls if kernel == name]
        assert all(z.ndim == 2 and len(z) <= cli._TRIAL_BLOCK for z in stacks)
        assert sorted(row.tobytes() for z in stacks for row in z) == sorted(z.tobytes() for z in sets)
        # each set solved on its own, as the trial-by-trial experiment did it
        grams = (real(rkhs.kernel_by_name(name), z) for z in sets)
        assert point_sets == count and worst == np.min([np.linalg.eigvalsh((g + g.conj().T) / 2.0)[0] for g in grams])
    if trials is None:
        assert len(calls) == 3 * 11  # one stack per kernel and size
    if trials == 1500:
        assert max(len(z) for _, z in calls) == cli._TRIAL_BLOCK  # a size's sets fill more than one stack


def test_spectral_measures_fails_when_a_gap_carries_mass(tmp_path, monkeypatch):
    # a mutation that moves the lowest eigenvalue onto the first gap point before P(union of gap points) is formed
    real = spectral_fd.pvm

    def moved(res, e):
        ev = res.eigenvalues.copy()
        ev[0] = e.points[0] if e.points else ev[0]
        return real(dataclasses.replace(res, eigenvalues=ev), e)

    monkeypatch.setattr(spectral_fd, "pvm", moved)
    report = run_experiment(ExperimentConfig(name="spectral-measures", out=str(tmp_path)))
    assert [c.label for c in report.checks if not c.passed] == ["eigenvalue <=> atom on all instances"]


def test_block_states_keep_the_per_vector_bits():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 8, 33, 100):
        z = rng.standard_normal((50, 2, n))
        want = np.stack([z_t[0] + 1j * z_t[1] for z_t in z])
        want = np.stack([h / np.linalg.norm(h) for h in want])
        np.testing.assert_array_equal(cli._states(z), want)


@pytest.mark.parametrize("name", ["hausdorff", "uncertainty"])
def test_stacked_experiments_bound_their_memory(tmp_path, name):
    # the stacks are drawn _TRIAL_BLOCK trials at a time: one stack of all 1000 trials peaks above 8 MB
    cfg = ExperimentConfig(name=name, out=str(tmp_path))
    run_experiment(cfg)  # first run: imports and lazy set-up
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


@pytest.mark.parametrize("nodes", [8, 120, 400, 800])
def test_volterra_lanczos_eigenvalues_match_the_dense_route(tmp_path, nodes):
    # the experiment's V*V eigenvalues come from Lanczos on the O(n) Green
    # product; the dense eigensolve of the symmetrized kernel is the oracle
    report = run_experiment(ExperimentConfig(name="volterra", nodes=nodes, out=str(tmp_path)))
    grid = integral_ops._panel_grid(0.0, 1.0, nodes)
    dense = np.linalg.eigvalsh(integral_ops.volterra(grid).vstar_v.symmetrized)[::-1][:5]
    mu = np.array([row[1] for row in report.rows])
    assert mu.shape == (5,)
    assert np.all(np.abs(mu - dense) <= 1e-12 * dense)


def test_random_hermitians_keep_the_bits_of_the_written_out_hermitian_part():
    z = np.random.default_rng(3).standard_normal((4, 2, 6, 6))
    m = z[..., 0, :, :] + 1j * z[..., 1, :, :]
    assert cli._hermitians(z).tobytes() == ((m + m.conj().swapaxes(-2, -1)) / 2.0).tobytes()
    q, d = cli._unitaries(z[0]), np.array([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0])
    a = q @ np.diag(d) @ q.conj().T
    assert cli._hermitian_with_spectrum(q, d).tobytes() == ((a + a.conj().T) / 2.0).tobytes()


@pytest.mark.parametrize("nodes", [8, 16, 80, 120, 400, 800, 1600])
def test_volterra_radius_from_the_diagonal_matches_the_dense_eigenvalues(nodes):
    # V's symmetrized Nystrom matrix is lower triangular, so its spectrum is its diagonal;
    # the dense nonsymmetric eigensolve is the oracle, to the bit
    op = integral_ops.volterra(integral_ops._panel_grid(0.0, 1.0, nodes)).v
    assert cli._lower_triangular_radius(op) == float(np.max(np.abs(np.linalg.eigvals(op.symmetrized))))


def test_lower_triangular_radius_rejects_an_entry_above_the_diagonal():
    grid = integral_ops.gauss_legendre_grid(0.0, 1.0, panels=1, per_panel=4)
    k = np.tril(np.ones((4, 4)))
    k[1, 3] = 1e-300
    with pytest.raises(ValueError, match="not lower triangular"):
        cli._lower_triangular_radius(integral_ops.IntegralOperator(grid, k))


@pytest.mark.parametrize("entry", [(0, 1), (0, 399), (40, 41), (79, 80), (200, 399), (398, 399)])
def test_lower_triangular_radius_checks_every_row_block(entry):
    # 400 nodes: ten row blocks of 40 rows, each checked above its rows' diagonal
    grid = integral_ops._panel_grid(0.0, 1.0, 400)
    k = np.tril(np.ones((400, 400)))
    assert cli._lower_triangular_radius(integral_ops.IntegralOperator(grid, k)) > 0.0
    k[entry] = -1e-300
    with pytest.raises(ValueError, match="^matrix is not lower triangular$"):
        cli._lower_triangular_radius(integral_ops.IntegralOperator(grid, k))


def test_volterra_experiment_bounds_its_memory(tmp_path):
    # real kernels and no dense V*V eigensolve: the complex route peaked at 20.5 MB at 400 nodes
    cfg = ExperimentConfig(name="volterra", nodes=400, out=str(tmp_path))
    run_experiment(cfg)  # first run: imports and lazy set-up
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6


def test_herglotz_experiment_bounds_its_memory(tmp_path):
    # the 96 001-point slice was sampled in one call on the complex grid x + 1j * eps,
    # beside the evaluator's whole-array temporaries: 5.38 MB; it is now sampled in blocks
    cfg = ExperimentConfig(name="herglotz-roundtrip", out=str(tmp_path))
    run_experiment(cfg)  # first run: imports and lazy set-up
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0e6


def test_herglotz_experiment_does_not_import_numpy_ma(tmp_path):
    # np.median's NaN check imported numpy.ma (0.93 MB of modules) on its first call
    script = (
        "import sys\n"
        "from speclab.cli import ExperimentConfig, run_experiment\n"
        f"assert run_experiment(ExperimentConfig(name='herglotz-roundtrip', out={str(tmp_path)!r})).passed\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "False"


def test_poisson_halfplane_experiment_bounds_its_memory(tmp_path):
    # the experiment's 256001-point grid and density (16 B/point, 4.1 MB) are alive while the
    # transform runs; it held 16 B/point of weights and blocks beside them, 8.32 MB in all,
    # then ran in row blocks beside O(sqrt(N) M) phases, 5.47 MB.  Now it takes one sum per
    # |w| (41 of the 81 w) and reuses one block buffer: the transform adds under 1 MB
    n = np.arange(-3.2e4, 3.2e4 + 0.125, 0.25).size
    cfg = ExperimentConfig(name="poisson-halfplane", out=str(tmp_path))
    run_experiment(cfg)  # first run: imports and lazy set-up
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n + 1e6


def test_volterra_experiment_holds_one_kernel_at_a_time(tmp_path):
    # V's kernel is dropped before V*V's is sampled, and trace holds the lower triangle of
    # (B + B*) / 2 beside V*V's kernel: 1.64 * 8 n^2 at 400 nodes.  Both kernels while V*V was
    # sampled, or V*V's kernel with trace's B, once peaked at 2.31 * 8 n^2; V's kernel, B and
    # the copies of trace's check at 7.7 MB, and trace's B with (B + B*) / 2 and its factor at 3.9 MB
    cfg = ExperimentConfig(name="volterra", nodes=400, out=str(tmp_path))
    n = integral_ops._panel_grid(0.0, 1.0, cfg.nodes).size
    run_experiment(cfg)  # first run: imports and lazy set-up
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.64 * 8 * n * n + 128 * 1024  # with room for another numpy's temporaries


def former_fmt(x) -> str:
    """A CSV cell's text as _fmt wrote it cell by cell: the reference for the row formats."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    return str(x)


CSV_CELLS = [True, False, np.bool_(True), 0, -7, 2 ** 70, np.int64(-3), np.int32(5), np.uint64(2 ** 64 - 1), 0.1, -0.0,
             1e300, 5e-324, np.float64(2.0 / 3.0), np.float32(0.1), np.nan, np.inf, -np.inf, np.float64(-np.inf), "label", ""]


def test_csv_rows_have_the_bytes_of_their_cells(tmp_path):
    # a row of numbers is written by one %-format of its cell types; a row whose types differ from the
    # row before (a float where an int was, a bool where an int was) needs a format of its own
    rng = np.random.default_rng(5)
    rows = [tuple(CSV_CELLS), (1, 0.5, np.float64(0.25)), (1.0, 0.5, np.float64(0.25)), (True, 0.5, np.float64(0.25)),
            (np.int64(2), np.float32(0.5), 7), ("a", 0.5, 1), (), (3, -0.0, np.nan)]
    rows += [tuple(rng.choice(np.array(CSV_CELLS, dtype=object), 4)) for _ in range(200)]
    path = tmp_path / "cells.csv"
    for order in (rows, rows[1:], rows[::-1]):  # the first row with a str in it, of numbers alone, random
        cli._write_csv(path, ["a", "b"], order)
        want = "\n".join(["a,b"] + [",".join(map(cli._fmt, row)) for row in order]) + "\n"
        assert path.read_text() == want
        assert want == "\n".join(["a,b"] + [",".join(map(former_fmt, row)) for row in order]) + "\n"
