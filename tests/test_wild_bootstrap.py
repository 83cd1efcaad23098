import math

import numpy as np
import pytest

from specband.curves import Curve, CurvePair, WavelengthGrid, trapezoid_weights
from specband.fpca import fit_fpca, project
from specband.regression import FittedRegression, KernelSpec, predict, predict_many, prediction_weights
from specband.semimetrics import SemimetricSpec
from specband.wild_bootstrap import (
    V_HIGH,
    V_LOW,
    V_LOW_PROB,
    BootstrapBand,
    WildBootstrapConfig,
    bootstrap_bands,
    quantile_levels,
    sample_v,
)

L2 = SemimetricSpec.parse("l2")
KERNEL = KernelSpec()
PRED_GRID = WavelengthGrid(np.linspace(2.0, 3.0, 40))
RESP_GRID = WavelengthGrid(np.linspace(1.0, 1.5, 25))


def _pairs(rng, n):
    return tuple(
        CurvePair(
            Curve(PRED_GRID, rng.normal(size=40)),
            Curve(RESP_GRID, rng.normal(size=25)),
        )
        for _ in range(n)
    )


# -------------------------------------------------------- perturbation law

def test_two_point_law_constants():
    assert V_LOW == pytest.approx((1.0 - math.sqrt(5.0)) / 2.0)
    assert V_HIGH == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0)
    p = V_LOW_PROB
    q = 0.1 * (5.0 - math.sqrt(5.0))
    assert p + q == pytest.approx(1.0, abs=1e-15)
    # exact moment identities of the two-point law
    assert p * V_LOW + q * V_HIGH == pytest.approx(0.0, abs=1e-15)
    assert p * V_LOW**2 + q * V_HIGH**2 == pytest.approx(1.0, abs=1e-14)
    assert p * V_LOW**3 + q * V_HIGH**3 == pytest.approx(1.0, abs=1e-14)


def test_draws_take_only_the_two_values():
    draws = sample_v(1000, seed=1)
    assert set(np.unique(draws)) <= {V_LOW, V_HIGH}


def test_sample_moments_at_modest_size():
    draws = sample_v(100_000, seed=7)
    # 3-sigma bounds for 1e5 draws: sd(mean)=0.0032, sd(m2)=0.0032, sd(m3)=0.0063
    assert abs(draws.mean()) < 0.0095
    assert abs(np.mean(draws**2) - 1.0) < 0.0095
    assert abs(np.mean(draws**3) - 1.0) < 0.019


def test_sample_v_is_seeded():
    assert np.array_equal(sample_v(50, seed=3), sample_v(50, seed=3))
    assert not np.array_equal(sample_v(50, seed=3), sample_v(50, seed=4))


def test_quantile_levels_bonferroni_split():
    lo, hi = quantile_levels(0.1, 5)
    assert lo == pytest.approx(0.01)
    assert hi == pytest.approx(0.99)


# ------------------------------------------------------------------- bands

def test_zero_residuals_collapse_the_band():
    # a shared response curve is a fixed point of the kernel average, so the
    # fitted values reproduce the responses exactly and residuals vanish;
    # every replicate then projects to the same coefficients
    rng = np.random.default_rng(0)
    shared = Curve(RESP_GRID, np.sin(RESP_GRID.points * 4.0))
    pairs = tuple(
        CurvePair(Curve(PRED_GRID, rng.normal(size=40)), shared) for _ in range(4)
    )
    model = FittedRegression(pairs, L2, KERNEL, kappa=2)
    fpca_model = fit_fpca([p.response for p in pairs], m=2)
    x = Curve(PRED_GRID, rng.normal(size=40))
    band = bootstrap_bands(
        pairs, model, x, fpca_model,
        WildBootstrapConfig(replicates=16, components=2, alpha=0.5, seed=5),
    )
    widths = band.component_intervals[:, 1] - band.component_intervals[:, 0]
    assert np.allclose(widths, 0.0, atol=1e-10)
    point_scores = project(fpca_model, predict(model, x))
    assert np.allclose(band.component_intervals[:, 0], point_scores, atol=1e-10)
    assert np.allclose(
        band.envelope_lower.values, band.envelope_upper.values, atol=1e-9
    )


def test_four_replicates_match_enumerated_oracle():
    """B=4, m=1, alpha=0.5: the quantile levels 0.25/0.75 select the smallest
    and the third-smallest replicate coordinate; replicate draws are
    re-enacted independently from the same seed schedule."""
    rng = np.random.default_rng(42)
    pairs = _pairs(rng, 3)
    model = FittedRegression(pairs, L2, KERNEL, kappa=1)
    fpca_model = fit_fpca([p.response for p in pairs], m=1)
    x = Curve(PRED_GRID, rng.normal(size=40))
    config = WildBootstrapConfig(replicates=4, components=1, alpha=0.5, seed=123)
    band = bootstrap_bands(pairs, model, x, fpca_model, config)

    # independent scalar re-enactment
    n = 3
    x_mat = np.stack([p.predictor.values for p in pairs])
    y_mat = np.stack([p.response.values for p in pairs])
    fitted = predict_many(model, x_mat)
    residuals = y_mat - fitted
    w = prediction_weights(model, x)
    quad = trapezoid_weights(RESP_GRID.points)
    comp = fpca_model.components[0].values
    mean_vals = fpca_model.mean.values
    coords = []
    for child in np.random.SeedSequence(123).spawn(4):
        gen = np.random.default_rng(child)
        idx = gen.integers(0, n, size=n)
        v = np.where(gen.random(n) < V_LOW_PROB, V_LOW, V_HIGH)
        replicate = np.zeros(25)
        for i in range(n):
            replicate += w[i] * (fitted[i] + residuals[idx[i]] * v[i])
        coords.append(float(np.sum(quad * (replicate - mean_vals) * comp)))
    ordered = sorted(coords)
    assert band.component_intervals[0, 0] == pytest.approx(ordered[0], abs=1e-12)
    assert band.component_intervals[0, 1] == pytest.approx(ordered[2], abs=1e-12)


def test_sparse_replicates_match_the_dense_formula():
    """Every replicate sums over the weights' support only; re-enacting the
    dense sum over all n pairs with the same draws gives the same band."""
    rng = np.random.default_rng(43)
    pairs = _pairs(rng, 40)
    model = FittedRegression(pairs, L2, KERNEL, kappa=5)
    fpca_model = fit_fpca([p.response for p in pairs], m=3)
    x = Curve(PRED_GRID, rng.normal(size=40))
    config = WildBootstrapConfig(replicates=200, components=3, alpha=0.3, seed=17)
    band = bootstrap_bands(pairs, model, x, fpca_model, config)

    n = len(pairs)
    y_mat = np.stack([p.response.values for p in pairs])
    fitted = predict_many(model, np.stack([p.predictor.values for p in pairs]))
    residuals = y_mat - fitted
    weights = prediction_weights(model, x)
    assert 0 < np.count_nonzero(weights) <= 5  # the sparse path skips pairs
    quad = trapezoid_weights(RESP_GRID.points)
    comp = np.stack([c.values for c in fpca_model.components])
    coords = []
    for child in np.random.SeedSequence(17).spawn(200):
        gen = np.random.default_rng(child)
        draw = gen.integers(0, n, size=n)
        v = np.where(gen.random(n) < V_LOW_PROB, V_LOW, V_HIGH)
        replicate = weights @ fitted + (weights * v) @ residuals[draw]
        coords.append((quad * (replicate - fpca_model.mean.values)) @ comp.T)
    ordered = np.sort(np.array(coords), axis=0)
    lo, hi = quantile_levels(0.3, 3)
    want = np.stack([ordered[math.ceil(lo * 200) - 1], ordered[math.ceil(hi * 200) - 1]], axis=1)
    assert np.max(np.abs(band.component_intervals - want)) < 1e-12


def test_bands_reject_a_sample_that_is_not_the_models():
    rng = np.random.default_rng(44)
    pairs = _pairs(rng, 6)
    model = FittedRegression(pairs, L2, KERNEL, kappa=2)
    fpca_model = fit_fpca([p.response for p in pairs], m=2)
    x = Curve(PRED_GRID, rng.normal(size=40))
    config = WildBootstrapConfig(replicates=64, components=2, alpha=0.5, seed=1)
    other = _pairs(rng, 6)
    same_predictors = tuple(CurvePair(p.predictor, q.response) for p, q in zip(pairs, other))
    for sample in (other, same_predictors, pairs[::-1]):
        with pytest.raises(ValueError, match="fitted on the given sample"):
            bootstrap_bands(sample, model, x, fpca_model, config)
    bootstrap_bands(list(pairs), model, x, fpca_model, config)


def test_bands_are_deterministic_in_the_seed():
    rng = np.random.default_rng(1)
    pairs = _pairs(rng, 6)
    model = FittedRegression(pairs, L2, KERNEL, kappa=3)
    fpca_model = fit_fpca([p.response for p in pairs], m=2)
    x = Curve(PRED_GRID, rng.normal(size=40))
    config = WildBootstrapConfig(replicates=64, components=2, alpha=0.2, seed=9)
    one = bootstrap_bands(pairs, model, x, fpca_model, config)
    two = bootstrap_bands(pairs, model, x, fpca_model, config)
    assert np.array_equal(one.component_intervals, two.component_intervals)
    assert np.array_equal(one.envelope_lower.values, two.envelope_lower.values)


def test_intervals_nest_as_alpha_shrinks():
    rng = np.random.default_rng(2)
    pairs = _pairs(rng, 8)
    model = FittedRegression(pairs, L2, KERNEL, kappa=4)
    fpca_model = fit_fpca([p.response for p in pairs], m=2)
    x = Curve(PRED_GRID, rng.normal(size=40))
    wide = bootstrap_bands(
        pairs, model, x, fpca_model,
        WildBootstrapConfig(replicates=400, components=2, alpha=0.02, seed=3),
    )
    narrow = bootstrap_bands(
        pairs, model, x, fpca_model,
        WildBootstrapConfig(replicates=400, components=2, alpha=0.4, seed=3),
    )
    assert np.all(wide.component_intervals[:, 0] <= narrow.component_intervals[:, 0])
    assert np.all(wide.component_intervals[:, 1] >= narrow.component_intervals[:, 1])


def test_bootstrap_responses_center_on_the_fit():
    """Replicate curves average to the point prediction under resampling."""
    rng = np.random.default_rng(4)
    pairs = _pairs(rng, 5)
    model = FittedRegression(pairs, L2, KERNEL, kappa=2)
    fpca_model = fit_fpca([p.response for p in pairs], m=3)
    x = Curve(PRED_GRID, rng.normal(size=40))
    config = WildBootstrapConfig(replicates=4000, components=3, alpha=0.1, seed=11)
    band = bootstrap_bands(pairs, model, x, fpca_model, config)
    point = project(fpca_model, predict(model, x))
    # every coordinate interval should surround the point projection
    assert np.all(band.component_intervals[:, 0] <= point + 1e-9)
    assert np.all(band.component_intervals[:, 1] >= point - 1e-9)


def test_resampled_responses_are_unbiased_around_the_fit():
    """Resampled-and-perturbed residuals average to zero, so the replicate
    responses center on the fitted curves (3-sigma Monte Carlo check)."""
    rng = np.random.default_rng(5)
    pairs = _pairs(rng, 5)
    model = FittedRegression(pairs, L2, KERNEL, kappa=2)
    y_mat = np.stack([p.response.values for p in pairs])
    fitted = predict_many(model, np.stack([p.predictor.values for p in pairs]))
    residuals = y_mat - fitted

    reps = 20_000
    n = 5
    total = np.zeros_like(residuals)
    for child in np.random.SeedSequence(77).spawn(reps):
        gen = np.random.default_rng(child)
        idx = gen.integers(0, n, size=n)
        v = np.where(gen.random(n) < V_LOW_PROB, V_LOW, V_HIGH)
        total += fitted + residuals[idx] * v[:, None]
    mean_star = total / reps
    # var of one replicate entry is the mean squared residual at that point
    sd = np.sqrt(np.mean(residuals**2, axis=0) / reps)
    assert np.all(np.abs(mean_star - fitted) <= 3.0 * sd[None, :] + 1e-12)


def test_envelope_is_the_exact_box_image():
    rng = np.random.default_rng(6)
    pairs = _pairs(rng, 6)
    model = FittedRegression(pairs, L2, KERNEL, kappa=3)
    fpca_model = fit_fpca([p.response for p in pairs], m=3)
    x = Curve(PRED_GRID, rng.normal(size=40))
    band = bootstrap_bands(
        pairs, model, x, fpca_model,
        WildBootstrapConfig(replicates=64, components=3, alpha=0.3, seed=8),
    )
    comp = np.stack([c.values for c in fpca_model.components])
    mean_vals = fpca_model.mean.values
    # brute force over the 2^3 corners of the coefficient box
    corners = []
    for bits in range(8):
        coeff = [
            band.component_intervals[j, (bits >> j) & 1] for j in range(3)
        ]
        corners.append(mean_vals + np.asarray(coeff) @ comp)
    corners = np.stack(corners)
    assert np.allclose(band.envelope_lower.values, corners.min(axis=0), atol=1e-12)
    assert np.allclose(band.envelope_upper.values, corners.max(axis=0), atol=1e-12)


def test_too_few_replicates_for_the_quantile():
    rng = np.random.default_rng(7)
    pairs = _pairs(rng, 5)
    model = FittedRegression(pairs, L2, KERNEL, kappa=2)
    fpca_model = fit_fpca([p.response for p in pairs], m=2)
    x = Curve(PRED_GRID, rng.normal(size=40))
    with pytest.raises(ValueError, match="increase B"):
        bootstrap_bands(
            pairs, model, x, fpca_model,
            WildBootstrapConfig(replicates=30, components=2, alpha=0.1, seed=0),
        )


def test_config_validation():
    with pytest.raises(ValueError, match="replicate"):
        WildBootstrapConfig(replicates=0)
    with pytest.raises(ValueError, match="component"):
        WildBootstrapConfig(components=0)
    with pytest.raises(ValueError, match="alpha"):
        WildBootstrapConfig(alpha=1.0)


def test_band_interval_order_is_validated():
    rng = np.random.default_rng(8)
    pairs = _pairs(rng, 4)
    fpca_model = fit_fpca([p.response for p in pairs], m=1)
    grid = fpca_model.grid
    with pytest.raises(ValueError, match="lower <= upper"):
        BootstrapBand(
            component_intervals=np.array([[1.0, 0.0]]),
            fpca=fpca_model,
            envelope_lower=Curve(grid, np.zeros(25)),
            envelope_upper=Curve(grid, np.ones(25)),
            alpha=0.1,
            replicates=4,
        )
