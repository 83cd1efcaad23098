"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with ``pytest -s`` or on failure).

Criteria
  1. split-band marginal coverage >= 0.87 over 500 synthetic replications
     at alpha = 0.1 (99% one-sided binomial floor for true coverage 0.9)
  1b. the wild-bootstrap box's joint and per-coordinate coverage of the
     held-out projected truth is reported, not gated
  2. kernel-average predictions match a brute-force evaluation to 1e-12
     on 50 random small datasets
  3. local quadratic smoothing reproduces noiseless quadratics to 1e-9
     relative, 20 random polynomials x spans {0.3, 0.5, 0.9}
  4. two-point perturbation law: 1e6 draws give |mean| <= 0.005,
     |m2 - 1| <= 0.01, |m3 - 1| <= 0.05 (3-sigma bounds from the exact law)
  5. FPCA: orthonormality <= 1e-8, eigenvalue sum equals integrated
     variance <= 1e-8, full-rank reconstruction <= 1e-6 in L2
  6. end-to-end mock study (100 train / 100 test, seeded): mean relative
     error below 0.15 (1.5x the 0.1008 measured by the pre-build
     reference run), the 95% CI of the mean signed error contains zero at
     >= 80% of grid points, and 90% bands cover >= 85% of test truths
  7. an alpha too small for the calibration size yields a flagged
     all-covering band
  8. seeded CLI commands re-run byte-identically
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from specband.cli import main as cli_main
from specband.conformal import ConformalCalibration, band, calibrate, contains
from specband.curves import (
    Curve,
    CurvePair,
    WavelengthGrid,
    resample,
    trapezoid_weights,
)
from specband.evaluation import coverage_rate, plain_error, relative_error, summarize
from specband.fpca import fit_fpca, project
from specband.mockgen import generate, synthetic_model
from specband.pipeline import PipelineConfig, fit_pairs, smooth_spectra
from specband.regression import FittedRegression, KernelSpec, fit_kappa, predict, predict_many
from specband.semimetrics import SemimetricSpec, distances_to
from specband.smoothing import smooth_block
from specband.wild_bootstrap import WildBootstrapConfig, _draw_v, bootstrap_bands

L2 = SemimetricSpec.parse("l2")
KERNEL = KernelSpec()

# mean relative error ceiling: 1.5x the 0.1008 measured by the standalone
# reference implementation of the identical pipeline, run before this
# package was built
MEAN_RELATIVE_ERROR_CEILING = 0.15

MEAN_U_CI_COVERS_ZERO_FLOOR = 0.80
CONFORMAL_TEST_COVERAGE_FLOOR = 0.85
MARGINAL_COVERAGE_FLOOR = 0.87


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def _slice_pair(spectrum, config: PipelineConfig) -> CurvePair:
    """Cut the noisy full-range samples directly into a curve pair."""
    wl = spectrum.wavelengths
    pm = (wl >= config.predictor_range[0]) & (wl <= config.predictor_range[1])
    rm = (wl >= config.response_range[0]) & (wl <= config.response_range[1])
    return CurvePair(
        Curve(WavelengthGrid(wl[pm]), spectrum.flux[pm]),
        Curve(WavelengthGrid(wl[rm]), spectrum.flux[rm]),
    )


# --------------------------------------------------------------- criterion 1

def test_criterion_1_marginal_validity():
    start = time.time()
    config = PipelineConfig(mock_grid_points=141)
    model = synthetic_model(config.mock_grid(), seed=2024)
    hits = 0
    reps = 500
    for rep in range(reps):
        realizations = generate(model, 61, seed=10_000 + rep)
        pairs = [_slice_pair(r.noisy, config) for r in realizations]
        cal = calibrate(pairs[:60], 0.1, L2, KERNEL, (2, 4, 8), split_seed=rep)
        b = band(cal, pairs[60].predictor)
        hits += contains(b, pairs[60].response)
    coverage = hits / reps
    elapsed = time.time() - start
    _report(
        "1 marginal validity",
        coverage >= MARGINAL_COVERAGE_FLOOR and elapsed < 300.0,
        f"coverage {coverage:.3f} over {reps} replications in {elapsed:.1f}s",
    )


# -------------------------------------------------------------- criterion 1b

def _continuum_pairs(model, config: PipelineConfig, count: int, seed: int) -> list:
    """Noise-free pairs: true continua resampled onto the pipeline's grids,
    divided by the predictor value nearest the normalization wavelength."""
    x_grid, y_grid = config.predictor_grid(), config.response_grid()
    norm = int(np.argmin(np.abs(x_grid.points - config.normalization_wavelength)))
    pairs = []
    for realization in generate(model, count, seed):
        x = resample(realization.true_continuum, x_grid)
        y = resample(realization.true_continuum, y_grid)
        ref = x.values[norm]
        pairs.append(CurvePair(x.with_values(x.values / ref), y.with_values(y.values / ref)))
    return pairs


def _bootstrap_coverage(train: list, held_out: list, config: PipelineConfig):
    """Joint and per-coordinate share of held-out responses, projected on the
    training FPCA, that fall inside their bootstrap coefficient box."""
    fitted, _ = fit_kappa(train, L2, KERNEL, config.kappa_candidates)
    fpca_model = fit_fpca([p.response for p in train], 5)
    boot = WildBootstrapConfig(replicates=500, components=5, alpha=0.1, seed=3)
    inside = []
    for pair in held_out:
        box = bootstrap_bands(train, fitted, pair.predictor, fpca_model, boot).component_intervals
        coords = project(fpca_model, pair.response)
        inside.append((box[:, 0] <= coords) & (coords <= box[:, 1]))
    inside = np.array(inside)
    return float(inside.all(axis=1).mean()), inside.mean(axis=0)


def test_criterion_1b_bootstrap_band_coverage_is_reported():
    """The bootstrap box is a variance band for the projected operator. On
    noise-free pairs the response is nearly a function of the predictor, so
    the error is bias and the box seldom holds the truth; response-only
    scatter (five smooth cosines, coefficient sd 0.2) shows it in the regime
    it assumes. Reported, not gated."""
    config = PipelineConfig()
    model = synthetic_model(config.mock_grid(), seed=31)
    train = _continuum_pairs(model, config, 200, seed=31)
    held_out = _continuum_pairs(model, config, 100, seed=31 + 1_000_003)

    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 1.0, len(config.response_grid()))
    cosines = np.cos(np.pi * np.arange(1, 6)[:, None] * t)
    scatter = rng.normal(0.0, 0.2, size=(len(train), 5)) @ cosines
    # the held-out responses stay scatter-free: they are the targets
    scattered = [CurvePair(p.predictor, p.response.with_values(p.response.values + s))
                 for p, s in zip(train, scatter)]

    for label, sample in (("noise-free", train), ("scatter sd 0.2", scattered)):
        joint, per_coordinate = _bootstrap_coverage(sample, held_out, config)
        again = _bootstrap_coverage(sample, held_out, config)
        assert again[0] == joint and np.array_equal(again[1], per_coordinate)
        assert 0.0 <= joint <= 1.0 and np.all((0.0 <= per_coordinate) & (per_coordinate <= 1.0))
        print(f"ACCEPTANCE 1b bootstrap coverage, {label}: joint {joint:.2f}, per coordinate "
              f"{np.array2string(per_coordinate, precision=2)} over {len(held_out)} held-out pairs")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_estimator_matches_brute_force():
    start = time.time()
    rng = np.random.default_rng(7)
    grid_x = WavelengthGrid(np.linspace(1300.0, 1600.0, 20))
    grid_y = WavelengthGrid(np.linspace(1050.0, 1185.0, 20))
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        pairs = tuple(
            CurvePair(
                Curve(grid_x, rng.normal(size=20)),
                Curve(grid_y, rng.normal(size=20)),
            )
            for _ in range(n)
        )
        kappa = int(rng.integers(1, n))
        model = FittedRegression(pairs, L2, KERNEL, kappa)
        x = Curve(grid_x, rng.normal(size=20))

        # direct transcription of the weighted-average formula
        dists = [distances_to(L2, p.predictor.values, x.values, x.grid.points)[0] for p in pairs]
        ordered = sorted(dists)
        h = (
            ordered[kappa - 1]
            if ordered[kappa - 1] == ordered[kappa]
            else 0.5 * (ordered[kappa - 1] + ordered[kappa])
        )
        num = np.zeros(20)
        den = 0.0
        for d, pair in zip(dists, pairs):
            u = d / h
            w = 1.0 - u * u if u <= 1.0 else 0.0
            num += w * pair.response.values
            den += w
        brute = num / den

        got = predict(model, x).values
        worst = max(worst, float(np.max(np.abs(got - brute))))
    elapsed = time.time() - start
    _report(
        "2 brute-force equivalence",
        worst < 1e-12 and elapsed < 10.0,
        f"worst sup deviation {worst:.2e} over 50 datasets in {elapsed:.1f}s",
    )


# --------------------------------------------------------------- criterion 3

def test_criterion_3_smoother_reproduces_quadratics():
    rng = np.random.default_rng(11)
    lam = np.linspace(1000.0, 1200.0, 120)
    out_grid = WavelengthGrid(np.linspace(1005.0, 1195.0, 60))
    worst = 0.0
    for _ in range(20):
        a, b_, c = rng.uniform(-3.0, 3.0, 3)
        flux = a + b_ * (lam / 1000.0) + c * (lam / 1000.0) ** 2
        flux = flux + 10.0  # keep values away from zero for the relative error
        truth = a + b_ * (out_grid.points / 1000.0) + c * (out_grid.points / 1000.0) ** 2 + 10.0
        for span in (0.3, 0.5, 0.9):
            fit = smooth_block(lam, flux[None], (1000.0, 1200.0), [span], out_grid)[0]
            rel = np.max(np.abs(fit - truth) / np.abs(truth))
            worst = max(worst, float(rel))
    _report(
        "3 smoother exactness",
        worst < 1e-9,
        f"worst relative deviation {worst:.2e} over 20 quadratics x 3 spans",
    )


# --------------------------------------------------------------- criterion 4

def test_criterion_4_perturbation_law_moments():
    draws = _draw_v(np.random.default_rng(99), 1_000_000)
    mean = float(draws.mean())
    m2 = float(np.mean(draws**2))
    m3 = float(np.mean(draws**3))
    ok = abs(mean) <= 0.005 and abs(m2 - 1.0) <= 0.01 and abs(m3 - 1.0) <= 0.05
    _report(
        "4 perturbation law",
        ok,
        f"mean {mean:+.4f}, m2 {m2:.4f}, m3 {m3:.4f} over 1e6 draws",
    )


# --------------------------------------------------------------- criterion 5

def test_criterion_5_fpca_contracts():
    rng = np.random.default_rng(5)
    grid = WavelengthGrid(np.linspace(1050.0, 1185.0, 80))
    w = trapezoid_weights(grid.points)
    n = 30
    curves = [Curve(grid, rng.normal(size=80) * rng.uniform(0.5, 2.0)) for _ in range(n)]
    model = fit_fpca(curves, m=n - 1)

    comp = model.components
    gram = (comp * w) @ comp.T
    ortho_dev = float(np.max(np.abs(gram - np.eye(n - 1))))

    data = np.stack([c.values for c in curves])
    pointwise_var = ((data - data.mean(axis=0)) ** 2).mean(axis=0)
    var_dev = abs(float(np.sum(model.eigenvalues)) - float(np.sum(w * pointwise_var)))

    recon_dev = 0.0
    for c in curves:
        back = model.mean.values + project(model, c) @ comp
        err = float(np.sqrt(np.sum(w * (back - c.values) ** 2)))
        recon_dev = max(recon_dev, err)

    ok = ortho_dev <= 1e-8 and var_dev <= 1e-8 and recon_dev <= 1e-6
    _report(
        "5 fpca contracts",
        ok,
        f"orthonormality {ortho_dev:.2e}, variance-sum {var_dev:.2e}, "
        f"reconstruction {recon_dev:.2e}",
    )


# --------------------------------------------------------------- criterion 6

@pytest.fixture(scope="module")
def mock_study():
    """The seeded 100-train / 100-test simulation, run once."""
    start = time.time()
    config = PipelineConfig()
    model = synthetic_model(
        config.mock_grid(),
        n_components=config.mock_components,
        eigenvalue_decay=config.mock_eigenvalue_decay,
        variance_scale=config.mock_variance_scale,
        noise_level=config.mock_noise_level,
        seed=20240801,
    )
    realizations = generate(model, 200, seed=42)

    pairs, truths = [], []
    resp_grid = config.response_grid()
    smoothed = smooth_spectra([r.noisy for r in realizations], config, pairs=True)
    for realization, (pair, ref) in zip(realizations, smoothed):
        pairs.append(pair)
        truth = resample(realization.true_continuum, resp_grid)
        truths.append(truth.with_values(truth.values / ref))

    train_pairs, test_pairs = pairs[:100], pairs[100:]
    test_truths = truths[100:]

    fitted, _ = fit_pairs(train_pairs, config)
    queries = np.stack([p.predictor.values for p in test_pairs])
    predicted = predict_many(fitted, queries)
    predictions = [Curve(resp_grid, row) for row in predicted]

    cal = calibrate(
        train_pairs, 0.1, fitted.semimetric, fitted.kernel,
        config.kappa_candidates, split_seed=7,
    )
    bands = [band(cal, p.predictor) for p in test_pairs]
    elapsed = time.time() - start
    return predictions, test_truths, bands, elapsed


def test_criterion_6a_mean_relative_error(mock_study):
    predictions, truths, _, elapsed = mock_study
    summary = summarize([relative_error(p, t) for p, t in zip(predictions, truths)])
    ok = summary.overall_mean < MEAN_RELATIVE_ERROR_CEILING and elapsed < 600.0
    _report(
        "6a mock-study relative error",
        ok,
        f"mean relative error {summary.overall_mean:.4f} "
        f"(ceiling {MEAN_RELATIVE_ERROR_CEILING}), pipeline {elapsed:.1f}s",
    )


def test_criterion_6b_signed_error_is_centered(mock_study):
    predictions, truths, _, _ = mock_study
    summary = summarize([plain_error(p, t) for p, t in zip(predictions, truths)])
    covers = (summary.ci_lower.values <= 0.0) & (0.0 <= summary.ci_upper.values)
    fraction = float(covers.mean())
    _report(
        "6b signed-error CI covers zero",
        fraction >= MEAN_U_CI_COVERS_ZERO_FLOOR,
        f"CI contains 0 at {fraction:.3f} of grid points (floor "
        f"{MEAN_U_CI_COVERS_ZERO_FLOOR})",
    )


def test_criterion_6c_band_coverage_on_test_mocks(mock_study):
    _, truths, bands, _ = mock_study
    rate = coverage_rate(bands, truths)
    _report(
        "6c conformal coverage",
        rate >= CONFORMAL_TEST_COVERAGE_FLOOR,
        f"90% bands cover {rate:.3f} of 100 test truths (floor "
        f"{CONFORMAL_TEST_COVERAGE_FLOOR})",
    )


# --------------------------------------------------------------- criterion 7

def test_criterion_7_degenerate_band():
    rng = np.random.default_rng(3)
    grid_x = WavelengthGrid(np.linspace(1300.0, 1600.0, 30))
    grid_y = WavelengthGrid(np.linspace(1050.0, 1185.0, 25))
    pairs = tuple(
        CurvePair(Curve(grid_x, rng.normal(size=30)), Curve(grid_y, rng.normal(size=25)))
        for _ in range(8)
    )
    model = FittedRegression(pairs[:4], L2, KERNEL, kappa=2)
    scores = np.array([-1.0, -2.0, -0.5, -3.0])
    # n2 = 4, alpha = 0.15: floor(5 * 0.15) = 0
    cal = ConformalCalibration(model, scores, alpha=0.15)
    b = band(cal, pairs[5].predictor)
    wild = Curve(grid_y, 1e9 * rng.normal(size=25))
    ok = b.degenerate and math.isinf(b.half_width) and contains(b, wild)
    _report(
        "7 degenerate band",
        ok,
        f"degenerate={b.degenerate}, half_width={b.half_width}, contains=True",
    )


# --------------------------------------------------------------- criterion 8

def test_criterion_8_seeded_commands_are_byte_identical(tmp_path):
    runner = CliRunner()
    config = {
        "predictor_points": 40,
        "response_points": 30,
        "mock_grid_points": 140,
        "mock_count": 10,
        "span_candidates": [0.3, 0.6],
        "kappa_candidates": [2, 4],
        "alpha": 0.2,
        "bootstrap_components": 2,
        "bootstrap_replicates": 40,
        "seed": 3,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    def run_pipeline(root: Path) -> list[Path]:
        mocks = root / "mocks"
        model = root / "model.json"
        predictions = root / "predictions"
        boot = root / "bootstrap"
        evaluation_dir = root / "eval"
        steps = [
            ["mockgen", "--config", str(config_path), "--out", str(mocks)],
            ["fit", "--config", str(config_path), "--manifest", str(mocks / "manifest.json"), "--out", str(model)],
            ["predict", "--alpha", "0.2", "--model", str(model), "--manifest", str(mocks / "manifest.json"), "--out", str(predictions)],
            ["bootstrap", "--seed", "3", "--alpha", "0.2", "-m", "2", "-B", "40", "--model", str(model), "--spectrum", str(mocks / "spectra" / "mock_0000.csv"), "--out", str(boot)],
            ["eval", "--predictions", str(predictions), "--manifest", str(mocks / "manifest.json"), "--out", str(evaluation_dir)],
        ]
        for step in steps:
            result = runner.invoke(cli_main, step)
            assert result.exit_code == 0, f"{step[0]}: {result.output}"
        return sorted(p for p in root.rglob("*") if p.is_file())

    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")
    names1 = [p.relative_to(tmp_path / "run1") for p in first]
    names2 = [p.relative_to(tmp_path / "run2") for p in second]
    identical = names1 == names2 and all(
        a.read_bytes() == b.read_bytes() for a, b in zip(first, second)
    )
    _report(
        "8 determinism",
        identical,
        f"{len(first)} files byte-identical across reruns",
    )
