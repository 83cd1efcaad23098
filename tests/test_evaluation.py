import math

import numpy as np
import pytest

from specband.conformal import ConformalBand
from specband.curves import Curve, WavelengthGrid
from specband.evaluation import (
    ErrorSummary,
    coverage_rate,
    plain_error,
    relative_error,
    summarize,
)

GRID = WavelengthGrid(np.linspace(1050.0, 1185.0, 30))


def _curve(values):
    return Curve(GRID, np.broadcast_to(np.asarray(values, dtype=float), (30,)).copy())


def test_relative_error_zero_at_truth():
    truth = _curve(np.linspace(1.0, 2.0, 30))
    assert np.array_equal(relative_error(truth, truth).values, np.zeros(30))


def test_relative_error_of_ten_percent_offset():
    truth = _curve(np.linspace(1.0, 2.0, 30))
    pred = truth.with_values(1.1 * truth.values)
    assert np.allclose(relative_error(pred, truth).values, 0.1, atol=1e-12)


def test_relative_error_requires_positive_truth():
    truth = _curve(np.linspace(-0.5, 2.0, 30))
    pred = _curve(1.0)
    with pytest.raises(ValueError, match="non-positive at wavelengths"):
        relative_error(pred, truth)


def test_plain_error_is_the_signed_difference():
    truth = _curve(np.linspace(1.0, 2.0, 30))
    assert np.array_equal(plain_error(truth, truth).values, np.zeros(30))
    shifted = truth.with_values(truth.values + 0.2)
    assert np.allclose(plain_error(shifted, truth).values, 0.2, atol=1e-15)


def test_relative_and_plain_errors_are_consistent():
    rng = np.random.default_rng(0)
    for _ in range(20):
        truth = _curve(rng.uniform(0.5, 2.0, 30))
        pred = _curve(rng.normal(1.0, 0.3, 30))
        rel = relative_error(pred, truth).values
        plain = plain_error(pred, truth).values
        assert np.max(np.abs(rel * truth.values - np.abs(plain))) < 1e-12


def test_summary_of_identical_curves_is_flat():
    curve = _curve(np.linspace(0.0, 1.0, 30))
    summary = summarize([curve] * 5)
    for stat in (summary.mean, summary.median, summary.q1, summary.q3):
        assert np.allclose(stat.values, curve.values, atol=1e-15)
    assert np.allclose(summary.ci_lower.values, curve.values, atol=1e-15)
    assert np.allclose(summary.ci_upper.values, curve.values, atol=1e-15)


def test_summary_of_antisymmetric_pair_is_centered():
    c = _curve(np.sin(GRID.points / 20.0))
    summary = summarize([c, c.with_values(-c.values)])
    assert np.allclose(summary.mean.values, 0.0, atol=1e-15)
    assert np.allclose(
        summary.ci_lower.values, -summary.ci_upper.values, atol=1e-12
    )


def test_summary_mean_of_standard_normals_is_near_zero():
    rng = np.random.default_rng(1)
    curves = [_curve(rng.normal(size=30)) for _ in range(100)]
    summary = summarize(curves)
    assert np.mean(np.abs(summary.mean.values) <= 0.3) >= 0.99


def test_summary_quartiles_are_ordered():
    rng = np.random.default_rng(2)
    curves = [_curve(rng.normal(size=30)) for _ in range(25)]
    summary = summarize(curves)
    assert np.all(summary.q1.values <= summary.median.values)
    assert np.all(summary.median.values <= summary.q3.values)


def test_summary_needs_two_curves():
    with pytest.raises(ValueError, match="at least 2"):
        summarize([_curve(1.0)])


def test_overall_mean_averages_the_mean_curve():
    rng = np.random.default_rng(3)
    curves = [_curve(rng.uniform(0.0, 1.0, 30)) for _ in range(10)]
    summary = summarize(curves)
    assert summary.overall_mean == pytest.approx(float(summary.mean.values.mean()))


def test_summary_reads_its_grid_and_overall_mean_from_its_mean():
    rng = np.random.default_rng(4)
    summary = summarize([_curve(rng.uniform(0.5, 1.0, 30)) for _ in range(5)])
    curves = dict(mean=summary.mean, median=summary.median, q1=summary.q1, q3=summary.q3,
                  ci_lower=summary.ci_lower, ci_upper=summary.ci_upper)
    rebuilt = ErrorSummary(**curves)
    assert rebuilt.grid is summary.mean.grid
    assert rebuilt.overall_mean == float(summary.mean.values.mean())
    # a second grid among the curves is rejected, whichever curve carries it
    shifted = WavelengthGrid(GRID.points + 0.5)
    for name in ("mean", "ci_upper"):
        odd = {**curves, name: Curve(shifted, curves[name].values)}
        with pytest.raises(ValueError, match="all summary curves must share one grid"):
            ErrorSummary(**odd)


def test_coverage_rates():
    center = _curve(1.0)
    degenerate = ConformalBand(center, math.inf, 0.1)
    assert coverage_rate([degenerate] * 3, [_curve(1e9)] * 3) == 1.0

    zero_width = ConformalBand(center, 0.0, 0.1)
    off = center.with_values(center.values + 0.1)
    assert coverage_rate([zero_width] * 2, [off] * 2) == 0.0

    half = ConformalBand(center, 0.2, 0.1)
    truths = [center, off, center.with_values(center.values + 0.5)]
    assert coverage_rate([half] * 3, truths) == pytest.approx(2 / 3)


def test_coverage_length_mismatch():
    band = ConformalBand(_curve(1.0), 1.0, 0.1)
    with pytest.raises(ValueError, match="bands for"):
        coverage_rate([band], [_curve(1.0), _curve(1.0)])



def test_summary_rejects_unordered_quartiles():
    curves = dict(mean=_curve(1.0), median=_curve(1.0), q1=_curve(0.5), q3=_curve(1.5),
                  ci_lower=_curve(0.9), ci_upper=_curve(1.1))
    ErrorSummary(**curves)
    for odd in ({"q1": _curve(1.25)}, {"q3": _curve(0.75)}):
        with pytest.raises(ValueError, match="quartiles must be ordered"):
            ErrorSummary(**{**curves, **odd})


def test_coverage_of_no_bands_is_rejected():
    with pytest.raises(ValueError, match="need at least one band"):
        coverage_rate([], [])
