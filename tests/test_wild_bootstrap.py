import itertools
import math

import numpy as np
import pytest

from specband import regression, wild_bootstrap
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
    _draw_v,
    quantile_levels,
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
    draws = _draw_v(np.random.default_rng(1), 1000)
    assert set(np.unique(draws)) <= {V_LOW, V_HIGH}


def test_sample_moments_at_modest_size():
    draws = _draw_v(np.random.default_rng(7), 100_000)
    # 3-sigma bounds for 1e5 draws: sd(mean)=0.0032, sd(m2)=0.0032, sd(m3)=0.0063
    assert abs(draws.mean()) < 0.0095
    assert abs(np.mean(draws**2) - 1.0) < 0.0095
    assert abs(np.mean(draws**3) - 1.0) < 0.019


def test_draws_are_seeded():
    def draws(seed):
        return _draw_v(np.random.default_rng(seed), 50)

    assert np.array_equal(draws(3), draws(3))
    assert not np.array_equal(draws(3), draws(4))


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
    re-enacted independently, one scalar at a time, from the same seed."""
    rng = np.random.default_rng(42)
    pairs = _pairs(rng, 3)
    model = FittedRegression(pairs, L2, KERNEL, kappa=2)
    fpca_model = fit_fpca([p.response for p in pairs], m=1)
    x = Curve(PRED_GRID, rng.normal(size=40))
    config = WildBootstrapConfig(replicates=4, components=1, alpha=0.5, seed=123)
    band = bootstrap_bands(pairs, model, x, fpca_model, config)

    # independent scalar re-enactment: row b of the (B, |S|) draw perturbs
    # the support's own residuals in index order
    n = 3
    x_mat = np.stack([p.predictor.values for p in pairs])
    y_mat = np.stack([p.response.values for p in pairs])
    fitted = predict_many(model, x_mat)
    residuals = y_mat - fitted
    support, w = prediction_weights(model, x)
    assert len(support) == 2 and all(0 <= i < n for i in support)
    quad = trapezoid_weights(RESP_GRID.points)
    comp = fpca_model.components[0]
    mean_vals = fpca_model.mean.values
    gen = np.random.default_rng(123)
    coords = []
    for _ in range(4):
        replicate = np.zeros(25)
        for i, w_i in zip(support, w):
            v = V_LOW if gen.random() < V_LOW_PROB else V_HIGH
            replicate += w_i * (fitted[i] + residuals[i] * v)
        coords.append(float(np.sum(quad * (replicate - mean_vals) * comp)))
    ordered = sorted(coords)
    assert band.component_intervals[0, 0] == pytest.approx(ordered[0], abs=1e-12)
    assert band.component_intervals[0, 1] == pytest.approx(ordered[2], abs=1e-12)


def test_sparse_replicates_match_the_dense_formula():
    """Every replicate sums over the weights' support only; re-enacting the
    dense sum of whole replicate curves over all n pairs, with the same
    draws on the support and arbitrary ones elsewhere, gives the same band."""
    rng = np.random.default_rng(43)
    pairs = _pairs(rng, 40)
    model = FittedRegression(pairs, L2, KERNEL, kappa=5)
    fpca_model = fit_fpca([p.response for p in pairs], m=3)
    x = Curve(PRED_GRID, rng.normal(size=40))
    config = WildBootstrapConfig(replicates=200, components=3, alpha=0.3, seed=17)
    band = bootstrap_bands(pairs, model, x, fpca_model, config)

    y_mat = np.stack([p.response.values for p in pairs])
    fitted = predict_many(model, np.stack([p.predictor.values for p in pairs]))
    residuals = y_mat - fitted
    support, w = prediction_weights(model, x)
    weights = np.zeros(40)  # dense: every pair's weight, zero off the support
    weights[support] = w
    assert 0 < support.size <= 5  # the sparse path skips pairs
    v = _draw_v(np.random.default_rng(99), (200, 40))  # off the support: any draw
    v[:, support] = _draw_v(np.random.default_rng(17), (200, support.size))
    replicates = weights @ fitted + (weights * v) @ residuals  # (B, p) curves
    quad = trapezoid_weights(RESP_GRID.points)
    coords = (quad * (replicates - fpca_model.mean.values)) @ fpca_model.components.T
    ordered = np.sort(coords, axis=0)
    lo, hi = quantile_levels(0.3, 3)
    want = np.stack([ordered[math.ceil(lo * 200) - 1], ordered[math.ceil(hi * 200) - 1]], axis=1)
    assert np.max(np.abs(band.component_intervals - want)) < 1e-12


def test_bands_predict_only_the_support(monkeypatch):
    """A replicate needs the fitted curves of the |S| pairs of non-zero weight
    alone, so one call predicts at most |S| training rows, not all n."""
    rng = np.random.default_rng(45)
    pairs = _pairs(rng, 40)
    model = FittedRegression(pairs, L2, KERNEL, kappa=5)  # fresh: nothing cached
    fpca_model = fit_fpca([p.response for p in pairs], m=2)
    x = Curve(PRED_GRID, rng.normal(size=40))
    support, _ = prediction_weights(model, x)
    rows = []

    def counting(model, queries):
        rows.append(len(queries))
        return predict_many(model, queries)

    monkeypatch.setattr(wild_bootstrap, "predict_many", counting, raising=False)
    monkeypatch.setattr(regression, "predict_many", counting)
    bootstrap_bands(pairs, model, x, fpca_model,
                    WildBootstrapConfig(replicates=64, components=2, alpha=0.5, seed=2))
    assert 0 < support.size <= 5 and sum(rows) <= support.size


def test_each_pair_keeps_its_own_residual():
    """On a support of 3 pairs whose residuals differ in size, a coordinate's
    bootstrap law is the 2^3-point law of point + sum_i w_i c_i v_i, with c_i
    pair i's own projected residual: every interval endpoint is one of its
    values, the one its cumulative probabilities pick at the quantile level,
    and its variance is sum_i w_i^2 c_i^2, not the pooled residuals' value."""
    rng = np.random.default_rng(12)
    scales = [0.2, 3.0, 0.5, 1.0, 6.0, 0.3, 2.0, 0.1]
    pairs = tuple(
        CurvePair(Curve(PRED_GRID, rng.normal(size=40)), Curve(RESP_GRID, s * rng.normal(size=25)))
        for s in scales
    )
    model = FittedRegression(pairs, L2, KERNEL, kappa=3)
    fpca_model = fit_fpca([p.response for p in pairs], m=2)
    x = Curve(PRED_GRID, rng.normal(size=40))
    config = WildBootstrapConfig(replicates=20_000, components=2, alpha=0.4, seed=5)
    band = bootstrap_bands(pairs, model, x, fpca_model, config)

    y_mat = np.stack([p.response.values for p in pairs])
    fitted = predict_many(model, np.stack([p.predictor.values for p in pairs]))
    residuals = y_mat - fitted
    support, w = prediction_weights(model, x)
    assert support.size == 3
    quad = trapezoid_weights(RESP_GRID.points)
    levels = quantile_levels(0.4, 2)
    q_high = 1.0 - V_LOW_PROB
    for j, comp in enumerate(fpca_model.components):
        proj = quad * comp
        point = float(np.sum(proj * (w @ fitted[support] - fpca_model.mean.values)))
        c = residuals @ proj  # every pair's own projected residual
        law = {}
        for pattern in itertools.product((V_LOW, V_HIGH), repeat=3):
            value = point + sum(w_i * c[i] * v for w_i, i, v in zip(w, support, pattern))
            prob = math.prod(V_LOW_PROB if v == V_LOW else q_high for v in pattern)
            law[value] = law.get(value, 0.0) + prob
        values = np.array(sorted(law))
        cumulative = np.cumsum([law[v] for v in values])
        mean = float(np.dot(values, [law[v] for v in values]))
        variance = sum(law[v] * (v - mean) ** 2 for v in values)
        own = sum(w_i**2 * c[i] ** 2 for w_i, i in zip(w, support))
        pooled = sum(w**2) * np.mean(c**2)
        assert mean == pytest.approx(point, abs=1e-12)
        assert variance == pytest.approx(own, rel=1e-12)
        assert abs(variance - pooled) > 0.1 * pooled  # the sample is heteroscedastic
        for end, level in enumerate(levels):
            got = band.component_intervals[j, end]
            assert np.min(np.abs(values - got)) <= 1e-12 * (1.0 + abs(got))
            # B = 20000 resolves the level: the empirical CDF's sd is at most
            # 0.0035, and no cumulative probability is within 0.01 of it
            assert np.min(np.abs(cumulative - level)) > 0.01
            assert got == pytest.approx(values[np.searchsorted(cumulative, level)], abs=1e-12)


def test_bands_reject_a_sample_that_is_not_the_models():
    rng = np.random.default_rng(44)
    pairs = _pairs(rng, 6)
    model = FittedRegression(pairs, L2, KERNEL, kappa=2)
    fpca_model = fit_fpca([p.response for p in pairs], m=2)
    x = Curve(PRED_GRID, rng.normal(size=40))
    config = WildBootstrapConfig(replicates=64, components=2, alpha=0.5, seed=1)
    other = _pairs(rng, 6)
    same_predictors = tuple(CurvePair(p.predictor, q.response) for p, q in zip(pairs, other))
    for sample in (other, same_predictors, pairs[::-1], pairs[:-1]):
        with pytest.raises(ValueError, match="fitted on the given sample"):
            bootstrap_bands(sample, model, x, fpca_model, config)
    # the model's own pairs, and new objects holding equal values, pass
    copies = [CurvePair(Curve(p.predictor.grid, p.predictor.values.copy()), Curve(p.response.grid, p.response.values.copy()))
              for p in pairs]
    expected = bootstrap_bands(list(pairs), model, x, fpca_model, config)
    got = bootstrap_bands(copies, model, x, fpca_model, config)
    assert got.component_intervals.tobytes() == expected.component_intervals.tobytes()


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
    comp = fpca_model.components
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


def test_derived_envelope_is_bit_for_bit_the_stored_min_max_formula():
    """Reference: the min/max formula bootstrap_bands applied when a band stored its envelope."""
    rng = np.random.default_rng(10)
    pairs = _pairs(rng, 12)
    model = FittedRegression(pairs, L2, KERNEL, kappa=4)
    fpca_model = fit_fpca([p.response for p in pairs], m=4)
    band = bootstrap_bands(
        pairs, model, Curve(PRED_GRID, rng.normal(size=40)), fpca_model,
        WildBootstrapConfig(replicates=200, components=3, alpha=0.2, seed=3),
    )
    intervals = band.component_intervals
    comp_mat = fpca_model.components[:3]
    lo_part = np.minimum(intervals[:, 0][:, None] * comp_mat, intervals[:, 1][:, None] * comp_mat).sum(axis=0)
    hi_part = np.maximum(intervals[:, 0][:, None] * comp_mat, intervals[:, 1][:, None] * comp_mat).sum(axis=0)
    # the band bootstrap_bands returns, and one built from its box alone
    for derived in (band, BootstrapBand(intervals, fpca_model, alpha=0.2, replicates=200)):
        assert derived.envelope_lower.values.tobytes() == (fpca_model.mean.values + lo_part).tobytes()
        assert derived.envelope_upper.values.tobytes() == (fpca_model.mean.values + hi_part).tobytes()


def test_band_derives_its_envelope_from_its_box():
    rng = np.random.default_rng(9)
    fpca_model = fit_fpca([p.response for p in _pairs(rng, 6)], m=2)
    box = np.array([[-1.0, 2.0], [0.5, 0.75]])
    band = BootstrapBand(box, fpca_model, alpha=0.1, replicates=4)
    assert band.envelope_lower.grid is fpca_model.grid and band.envelope_upper is band.envelope_upper
    # an envelope is no argument, so none can disagree with the box
    with pytest.raises(TypeError):
        BootstrapBand(box, fpca_model, Curve(RESP_GRID, np.zeros(25)), Curve(RESP_GRID, np.ones(25)), 0.1, 4)
    with pytest.raises(ValueError, match=r"shape \(m, 2\) with 1 <= m <= 2"):
        BootstrapBand(np.zeros((3, 2)), fpca_model, alpha=0.1, replicates=4)


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
    with pytest.raises(ValueError, match="lower <= upper"):
        BootstrapBand(
            component_intervals=np.array([[1.0, 0.0]]),
            fpca=fpca_model,
            alpha=0.1,
            replicates=4,
        )


def test_bands_reject_an_fpca_with_too_few_components_or_off_the_response_grid():
    rng = np.random.default_rng(45)
    pairs = _pairs(rng, 6)
    model = FittedRegression(pairs, L2, KERNEL, kappa=2)
    x = Curve(PRED_GRID, rng.normal(size=40))
    config = WildBootstrapConfig(replicates=64, components=2, alpha=0.5, seed=1)
    with pytest.raises(ValueError, match="config asks for 2 components but the FPCA model holds 1"):
        bootstrap_bands(pairs, model, x, fit_fpca([p.response for p in pairs], m=1), config)
    off_grid = WavelengthGrid(RESP_GRID.points + 0.5)
    with pytest.raises(ValueError, match="the FPCA model is not on the regression's response grid"):
        bootstrap_bands(pairs, model, x, fit_fpca([Curve(off_grid, p.response.values) for p in pairs], m=2), config)
