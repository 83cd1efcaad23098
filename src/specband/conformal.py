"""Split conformal prediction bands with finite-sample marginal coverage.

The sample is split in half: a regression is fitted on the first part and
sup-norm conformity scores are collected on the second. The band around a
new prediction is the centered sup-norm ball whose radius is the k-th
smallest calibration score (negated), with k = floor((n2 + 1) * alpha); the
rank statistics of exchangeable scores make the band contain a fresh
response with probability at least 1 - alpha, for any data distribution.

When k = 0 the guarantee can only be met by the whole response space, so the
band is returned with an infinite half-width, and only then is it ``degenerate``.

The command line splits once: ``fit`` calibrates and stores the fitting rows,
kappa and scores with the model, and ``predict`` rebuilds the calibration
from them with its own alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .curves import Curve, CurvePair, FloatArray, frozen_array, shared_grid, sup_distance
from .regression import FittedRegression, KernelSpec, fit_kappa, predict, predict_many
from .semimetrics import SemimetricSpec

# two pairs to fit on (kappa >= 1 needs n1 >= 2) and two to score
MIN_PAIRS = 4


@dataclass(frozen=True, eq=False)
class ConformalCalibration:
    """A split-fitted model plus the held-out conformity scores; ``fit_rows``,
    when known, are the sample rows of the model's pairs, in split order."""

    trained_model: FittedRegression
    calibration_scores: FloatArray
    alpha: float
    fit_rows: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        scores = frozen_array(self.calibration_scores, "calibration scores")
        if scores.size < 1:
            raise ValueError("calibration needs at least one score")
        if not np.isfinite(scores).all() or (scores > 0.0).any():
            raise ValueError("conformity scores must be finite and non-positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        object.__setattr__(self, "calibration_scores", scores)

    @property
    def n2(self) -> int:
        return int(self.calibration_scores.size)

    @cached_property
    def half_width(self) -> float:
        """Minus the k-th smallest score, k = floor((n2 + 1) * alpha); inf if k = 0."""
        k = _score_rank(self.n2, self.alpha)
        return -float(np.partition(self.calibration_scores, k - 1)[k - 1]) if k else math.inf


@dataclass(frozen=True, eq=False)
class ConformalBand:
    """Constant-width sup-norm band: center curve plus half-width (inf: degenerate)."""

    center: Curve
    half_width: float
    alpha: float

    def __post_init__(self) -> None:
        if not self.half_width >= 0.0:
            raise ValueError("half width must be non-negative")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")

    @property
    def degenerate(self) -> bool:
        return math.isinf(self.half_width)


def calibrate(
    sample: Sequence[CurvePair],
    alpha: float,
    semimetric: SemimetricSpec,
    kernel: KernelSpec,
    kappa_candidates: Sequence[int],
    split_seed: int,
) -> ConformalCalibration:
    """Split the sample, fit on one half, score conformity on the other.

    The split draws floor(n/2) pairs without replacement using the given
    seed; their indices are the result's ``fit_rows``. On the fitted half
    alone, ``fit_kappa`` selects kappa by leave-one-out CV, each candidate
    above n1 - 1 counting as n1 - 1, or takes it as given when that leaves
    one value.
    """
    n = len(sample)
    if n < MIN_PAIRS:
        raise ValueError(f"conformal calibration needs at least {MIN_PAIRS} pairs, got {n}")
    shared_grid([p.predictor for p in sample], "training predictors")
    shared_grid([p.response for p in sample], "training responses")

    rng = np.random.default_rng(split_seed)
    order = rng.permutation(n)
    n1 = n // 2
    fit_pairs = [sample[i] for i in order[:n1]]
    score_pairs = [sample[i] for i in order[n1:]]

    model = fit_kappa(fit_pairs, semimetric, kernel, kappa_candidates)[0]

    predictors = np.stack([p.predictor.values for p in score_pairs])
    responses = np.stack([p.response.values for p in score_pairs])
    # one block of predictions; each score is -sup_distance(y, predict(model, x)), bit for bit
    scores = -np.max(np.abs(responses - predict_many(model, predictors)), axis=1)
    return ConformalCalibration(model, scores, alpha, tuple(order[:n1].tolist()))


def _score_rank(n2: int, alpha: float) -> int:
    # floor((n2 + 1) * alpha) in exact rational arithmetic, so boundary cases
    # like 10 * 0.1 never misround
    return math.floor(Fraction(alpha) * (n2 + 1))


def band(cal: ConformalCalibration, x: Curve) -> ConformalBand:
    """Band around the split-model prediction at ``x``.

    The half-width is minus the k-th smallest calibration score with
    k = floor((n2 + 1) * alpha); k = 0 yields the degenerate all-covering
    band.
    """
    center = predict(cal.trained_model, x)
    return ConformalBand(center, cal.half_width, cal.alpha)


def contains(band_: ConformalBand, y: Curve) -> bool:
    """Whether ``y`` stays within the band (always true when degenerate)."""
    if band_.degenerate:
        return True
    return sup_distance(y, band_.center) <= band_.half_width
