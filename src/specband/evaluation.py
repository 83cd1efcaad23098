"""Error metrics and per-wavelength summaries for prediction experiments.

Covers the relative error |prediction - truth| / truth, the signed plain
error, pointwise sample summaries (mean, quartiles, a normal-approximation
CI for the mean) and empirical band coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conformal import ConformalBand, contains
from .curves import Curve, WavelengthGrid, shared_grid


@dataclass(frozen=True, eq=False)
class ErrorSummary:
    """Per-wavelength statistics over a set of error curves, on their mean's grid."""

    mean: Curve
    median: Curve
    q1: Curve
    q3: Curve
    ci_lower: Curve
    ci_upper: Curve

    def __post_init__(self) -> None:
        shared_grid([self.mean, self.median, self.q1, self.q3, self.ci_lower, self.ci_upper], "summary curves")
        if (self.q1.values > self.median.values).any() or (self.median.values > self.q3.values).any():
            raise ValueError("quartiles must be ordered q1 <= median <= q3")

    @property
    def grid(self) -> WavelengthGrid:
        return self.mean.grid

    @property
    def overall_mean(self) -> float:
        """The mean curve averaged over its grid points."""
        return float(self.mean.values.mean())


def relative_error(prediction: Curve, truth: Curve) -> Curve:
    """Pointwise |prediction - truth| / truth; truth must be strictly positive."""
    shared_grid([prediction, truth], "curves")
    bad = truth.values <= 0.0
    if np.any(bad):
        where = truth.grid.points[bad]
        raise ValueError(
            f"truth must be strictly positive; non-positive at wavelengths {where.tolist()}"
        )
    return Curve(truth.grid, np.abs(prediction.values - truth.values) / truth.values)


def plain_error(prediction: Curve, truth: Curve) -> Curve:
    """Signed pointwise difference prediction - truth."""
    shared_grid([prediction, truth], "curves")
    return Curve(truth.grid, prediction.values - truth.values)


def summarize(errors: Sequence[Curve]) -> ErrorSummary:
    """Pointwise mean/median/quartiles plus a 95% CI for the mean.

    Quartiles use the median-unbiased order-statistic interpolation; the CI
    is mean +/- 1.96 * sd / sqrt(n) with the sample sd.
    """
    if len(errors) < 2:
        raise ValueError("need at least 2 curves to summarize")
    grid = shared_grid(errors, "error curves")
    data = np.stack([c.values for c in errors])

    mean = data.mean(axis=0)
    q1, med, q3 = np.quantile(data, [0.25, 0.5, 0.75], axis=0, method="median_unbiased")
    half = 1.96 * data.std(axis=0, ddof=1) / np.sqrt(data.shape[0])
    return ErrorSummary(
        mean=Curve(grid, mean),
        median=Curve(grid, med),
        q1=Curve(grid, q1),
        q3=Curve(grid, q3),
        ci_lower=Curve(grid, mean - half),
        ci_upper=Curve(grid, mean + half),
    )


def coverage_rate(bands: Sequence[ConformalBand], truths: Sequence[Curve]) -> float:
    """Fraction of truth curves contained in their band."""
    if len(bands) != len(truths):
        raise ValueError(
            f"got {len(bands)} bands for {len(truths)} truth curves"
        )
    if len(bands) == 0:
        raise ValueError("need at least one band")
    hits = sum(1 for b, t in zip(bands, truths) if contains(b, t))
    return hits / len(bands)
