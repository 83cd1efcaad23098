import dataclasses
import math

import numpy as np
import pytest

from specband.conformal import (
    ConformalBand,
    ConformalCalibration,
    band,
    calibrate,
    contains,
)
from specband.curves import Curve, CurvePair, WavelengthGrid, sup_distance
from specband.regression import FittedRegression, KernelSpec, predict
from specband.semimetrics import SemimetricSpec

L2 = SemimetricSpec.parse("l2")
KERNEL = KernelSpec()
PRED_GRID = WavelengthGrid(np.linspace(2.0, 3.0, 50))
RESP_GRID = WavelengthGrid(np.linspace(1.0, 1.5, 30))


def _random_pairs(rng, n):
    return [
        CurvePair(
            Curve(PRED_GRID, rng.normal(size=50)),
            Curve(RESP_GRID, rng.normal(size=30)),
        )
        for _ in range(n)
    ]


def _model(rng, n=6, kappa=2):
    return FittedRegression(tuple(_random_pairs(rng, n)), L2, KERNEL, kappa)


def _calibration(scores, alpha, rng_seed=0):
    model = _model(np.random.default_rng(rng_seed))
    return ConformalCalibration(model, np.asarray(scores, dtype=float), alpha)


# ------------------------------------------------------------------- scores
# a calibration score is -sup_distance(y, predict(model, x)) for a held-out
# pair (x, y), with the model fitted on the other half of the sample

def _held_out(n, split_seed):
    return np.random.default_rng(split_seed).permutation(n)[n // 2:]


def _scores_by_definition(cal, pairs, split_seed):
    model = cal.trained_model
    return np.array([-sup_distance(pairs[i].response, predict(model, pairs[i].predictor))
                     for i in _held_out(len(pairs), split_seed)])


def test_score_is_zero_at_the_prediction():
    # one neighbour, weight exactly 1: every prediction is the shared response
    rng = np.random.default_rng(1)
    y = rng.normal(size=30)
    pairs = [CurvePair(Curve(PRED_GRID, rng.normal(size=50)), Curve(RESP_GRID, y)) for _ in range(10)]
    cal = calibrate(pairs, 0.1, L2, KERNEL, [1], split_seed=3)
    assert cal.trained_model.kappa == 1
    assert np.all(cal.calibration_scores == 0.0)


def test_score_of_constant_offset():
    rng = np.random.default_rng(2)
    y = rng.normal(size=30)
    held_out = set(_held_out(10, 3).tolist())
    pairs = [CurvePair(Curve(PRED_GRID, rng.normal(size=50)), Curve(RESP_GRID, y + 2.0 * (i in held_out)))
             for i in range(10)]
    cal = calibrate(pairs, 0.1, L2, KERNEL, [1], split_seed=3)
    assert cal.calibration_scores == pytest.approx([-2.0] * 5)


def test_score_matches_sup_distance_composition():
    rng = np.random.default_rng(3)
    pairs = _random_pairs(rng, 12)
    cal = calibrate(pairs, 0.1, SemimetricSpec.parse("deriv1"), KERNEL, [1, 2], split_seed=4)
    assert cal.calibration_scores.tobytes() == _scores_by_definition(cal, pairs, 4).tobytes()


# ---------------------------------------------------------------- calibrate

def test_split_sizes_ten_and_seven():
    rng = np.random.default_rng(4)
    cal10 = calibrate(_random_pairs(rng, 10), 0.1, L2, KERNEL, [1, 2], split_seed=5)
    assert len(cal10.trained_model) == 5 and cal10.n2 == 5
    cal7 = calibrate(_random_pairs(rng, 7), 0.1, L2, KERNEL, [1, 2], split_seed=5)
    assert len(cal7.trained_model) == 3 and cal7.n2 == 4


def test_calibration_is_deterministic_in_the_seed():
    rng = np.random.default_rng(5)
    pairs = _random_pairs(rng, 12)
    one = calibrate(pairs, 0.1, L2, KERNEL, [1, 2, 4], split_seed=9)
    two = calibrate(pairs, 0.1, L2, KERNEL, [1, 2, 4], split_seed=9)
    assert np.array_equal(one.calibration_scores, two.calibration_scores)
    assert one.trained_model.kappa == two.trained_model.kappa
    other = calibrate(pairs, 0.1, L2, KERNEL, [1, 2, 4], split_seed=10)
    assert not np.array_equal(one.calibration_scores, other.calibration_scores)


def test_calibrate_requires_four_pairs():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match="at least 4"):
        calibrate(_random_pairs(rng, 3), 0.1, L2, KERNEL, [1], split_seed=0)


@pytest.mark.parametrize("part", ["predictor", "response"])
def test_calibrate_checks_the_whole_sample_shares_one_grid_before_fitting(part, monkeypatch):
    from specband import conformal

    pairs = _random_pairs(np.random.default_rng(3), 12)
    curve = getattr(pairs[-1], part)
    moved = Curve(WavelengthGrid(curve.grid.points * (1.0 + 1e-9)), curve.values)
    pairs[-1] = dataclasses.replace(pairs[-1], **{part: moved})
    monkeypatch.setattr(conformal, "fit_kappa", lambda *a: pytest.fail("fitted before the check"))
    with pytest.raises(ValueError, match=f"all training {part}s must share one grid"):
        calibrate(pairs, 0.1, L2, KERNEL, [2], split_seed=0)


def test_scores_are_non_positive():
    rng = np.random.default_rng(7)
    cal = calibrate(_random_pairs(rng, 14), 0.1, L2, KERNEL, [1, 3], split_seed=1)
    assert np.all(cal.calibration_scores <= 0.0)


def test_calibration_scores_are_bitwise_conformity_scores():
    rng = np.random.default_rng(13)
    pairs = _random_pairs(rng, 150)  # 75 scores, past one block of predictions
    cal = calibrate(pairs, 0.1, L2, KERNEL, [2, 4], split_seed=5)
    assert cal.calibration_scores.tobytes() == _scores_by_definition(cal, pairs, 5).tobytes()


# --------------------------------------------------------------------- band

def test_rank_one_uses_most_negative_score():
    # n2 = 9, alpha = 0.1 -> k = floor(10 * 0.1) = 1
    scores = [-4.0, -1.0, -3.0, -0.5, -2.0, -0.1, -0.2, -0.3, -0.4]
    cal = _calibration(scores, alpha=0.1)
    b = band(cal, Curve(PRED_GRID, np.zeros(50)))
    assert not b.degenerate
    assert b.half_width == pytest.approx(4.0)


def test_small_alpha_gives_degenerate_band():
    # n2 = 9, alpha = 0.05 -> k = 0
    scores = [-1.0] * 9
    cal = _calibration(scores, alpha=0.05)
    b = band(cal, Curve(PRED_GRID, np.zeros(50)))
    assert b.degenerate
    assert math.isinf(b.half_width)
    assert contains(b, b.center.with_values(b.center.values + 1e12))


def test_second_smallest_score_example():
    # scores {-5,-3,-1,0}, n2 = 4, alpha = 0.4 -> k = 2, q = -3
    cal = _calibration([-5.0, -3.0, -1.0, 0.0], alpha=0.4)
    b = band(cal, Curve(PRED_GRID, np.zeros(50)))
    assert b.half_width == pytest.approx(3.0)


def test_band_center_is_split_model_prediction():
    rng = np.random.default_rng(8)
    cal = calibrate(_random_pairs(rng, 10), 0.3, L2, KERNEL, [1, 2], split_seed=3)
    x = Curve(PRED_GRID, rng.normal(size=50))
    b = band(cal, x)
    assert np.array_equal(b.center.values, predict(cal.trained_model, x).values)


def test_half_width_shrinks_as_alpha_grows():
    rng = np.random.default_rng(9)
    pairs = _random_pairs(rng, 20)
    x = Curve(PRED_GRID, rng.normal(size=50))
    widths = []
    for alpha in (0.1, 0.3, 0.5, 0.8):
        cal = calibrate(pairs, alpha, L2, KERNEL, [1, 2], split_seed=11)
        b = band(cal, x)
        widths.append(b.half_width)
    assert all(w1 >= w2 for w1, w2 in zip(widths, widths[1:]))


def test_band_invariant_to_calibration_score_order():
    scores = [-4.0, -1.0, -3.0, -0.5, -2.0]
    x = Curve(PRED_GRID, np.zeros(50))
    b1 = band(_calibration(scores, 0.4), x)
    b2 = band(_calibration(scores[::-1], 0.4), x)
    assert b1.half_width == b2.half_width


def test_band_width_is_constant_in_wavelength():
    rng = np.random.default_rng(12)
    cal = calibrate(_random_pairs(rng, 12), 0.2, L2, KERNEL, [2, 3], split_seed=1)
    b = band(cal, Curve(PRED_GRID, rng.normal(size=50)))
    assert isinstance(b.half_width, float)  # one radius for every wavelength
    lower, upper = b.center.values - b.half_width, b.center.values + b.half_width
    assert np.allclose(upper - lower, 2.0 * b.half_width, atol=1e-12)
    assert np.allclose(upper - b.center.values, b.center.values - lower, atol=1e-12)


def test_boundary_rank_arithmetic_is_exact():
    # 10 * 0.1 must floor to exactly 1, never to 0 or 2
    cal = _calibration([-float(i) for i in range(1, 10)], alpha=0.1)
    assert band(cal, Curve(PRED_GRID, np.zeros(50))).half_width == pytest.approx(9.0)


# ----------------------------------------------------------------- contains

def test_contains_center_and_rejects_offsets():
    rng = np.random.default_rng(10)
    center = Curve(RESP_GRID, rng.normal(size=30))
    b = ConformalBand(center, 0.5, alpha=0.1)
    assert contains(b, center)
    outside = center.with_values(center.values + 0.5 * 1.01)
    assert not contains(b, outside)
    inside = center.with_values(center.values + 0.49)
    assert contains(b, inside)


def test_degenerate_band_contains_everything():
    center = Curve(RESP_GRID, np.zeros(30))
    b = ConformalBand(center, math.inf, alpha=0.01)
    wild = Curve(RESP_GRID, 1e12 * np.ones(30))
    assert contains(b, wild)


def test_band_is_degenerate_exactly_when_its_half_width_is_infinite():
    center = Curve(RESP_GRID, np.zeros(30))
    assert [ConformalBand(center, h, 0.1).degenerate for h in (0.0, 0.5, 1e300, math.inf)] == [
        False, False, False, True]
    for bad in (-0.5, -math.inf, math.nan):
        with pytest.raises(ValueError, match="half width"):
            ConformalBand(center, bad, 0.1)
    with pytest.raises(TypeError):  # no flag that could disagree with the width
        ConformalBand(center, 0.5, 0.1, degenerate=True)


# ------------------------------------------------------- marginal validity

def test_marginal_coverage_on_synthetic_pairs():
    """Quick coverage sanity check; the acceptance suite runs the full one."""
    rng = np.random.default_rng(2024)
    hits = 0
    reps = 60
    for _ in range(reps):
        pairs = []
        for _ in range(13):
            shift = rng.normal()
            pairs.append(
                CurvePair(
                    Curve(PRED_GRID, shift + 0.1 * rng.normal(size=50)),
                    Curve(RESP_GRID, shift + 0.1 * rng.normal(size=30)),
                )
            )
        cal = calibrate(pairs[:12], 0.2, L2, KERNEL, [2, 4], split_seed=int(rng.integers(1 << 31)))
        b = band(cal, pairs[12].predictor)
        hits += contains(b, pairs[12].response)
    # true coverage >= 0.8; 60 trials put the 3-sigma floor near 0.63
    assert hits / reps >= 0.63


@pytest.mark.parametrize("scores, alpha, message", [
    ([], 0.1, "calibration needs at least one score"),
    ([-1.0, 0.5], 0.1, "conformity scores must be finite and non-positive"),
    ([-1.0, -np.inf], 0.1, "conformity scores must be finite and non-positive"),
    ([np.nan, -1.0], 0.1, "conformity scores must be finite and non-positive"),
    ([-1.0], 0.0, "alpha must be in"),
    ([-1.0], 1.0, "alpha must be in"),
], ids=["empty", "positive", "infinite", "nan", "alpha-0", "alpha-1"])
def test_calibration_rejects_scores_or_an_alpha_it_cannot_rank(scores, alpha, message):
    with pytest.raises(ValueError, match=message):
        _calibration(scores, alpha)
    assert _calibration([-1.0, -0.0], 0.5).n2 == 2
