"""Nearest-neighbor-bandwidth kernel regression between curve spaces.

The estimator maps a predictor curve to the kernel-weighted average of the
training response curves,

    prediction(lam) = sum_i K(d(X_i, x) / h) Y_i(lam) / sum_i K(d(X_i, x) / h),

with a quadratic kernel K(u) = 1 - u^2 supported on [0, 1] and a bandwidth h
chosen per query so that exactly ``kappa`` training predictors fall inside
it. The neighbor count ``kappa`` is selected by leave-one-out
cross-validation on the squared-L2 prediction error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .curves import Curve, CurvePair, FloatArray, trapezoid_weights
from .semimetrics import SemimetricSpec, distance_matrix, distances_to


@dataclass(frozen=True)
class KernelSpec:
    """Quadratic kernel 1 - u^2 on [0, 1], zero elsewhere.

    The normalization constant is omitted: the estimator is a ratio, so any
    constant factor cancels.
    """

    def weights(self, u: FloatArray) -> FloatArray:
        u = np.asarray(u, dtype=np.float64)
        return np.where((u >= 0.0) & (u <= 1.0), 1.0 - u * u, 0.0)


@dataclass(frozen=True, eq=False)
class FittedRegression:
    """Training curve pairs plus semimetric, kernel and neighbor count."""

    pairs: tuple[CurvePair, ...]
    semimetric: SemimetricSpec
    kernel: KernelSpec
    kappa: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(self.pairs))
        n = len(self.pairs)
        if n < 2:
            raise ValueError("a fitted regression needs at least 2 training pairs")
        pred_grid = self.pairs[0].predictor.grid
        resp_grid = self.pairs[0].response.grid
        for pair in self.pairs[1:]:
            if not pair.predictor.grid.matches(pred_grid):
                raise ValueError("all training predictors must share one grid")
            if not pair.response.grid.matches(resp_grid):
                raise ValueError("all training responses must share one grid")
        if not 1 <= self.kappa <= n - 1:
            raise ValueError(
                f"kappa must satisfy 1 <= kappa <= n-1 = {n - 1}, got {self.kappa}"
            )

    @property
    def n(self) -> int:
        return len(self.pairs)

    @property
    def predictor_grid(self):
        return self.pairs[0].predictor.grid

    @property
    def response_grid(self):
        return self.pairs[0].response.grid

    @cached_property
    def predictor_matrix(self) -> FloatArray:
        return np.stack([p.predictor.values for p in self.pairs])

    @cached_property
    def response_matrix(self) -> FloatArray:
        return np.stack([p.response.values for p in self.pairs])


def _bandwidth(distances: FloatArray, kappa: int) -> float:
    """Midpoint between the kappa-th and (kappa+1)-th smallest distances.

    The midpoint keeps all kappa neighbors strictly inside the kernel
    support; when the two order statistics tie, their common value is
    returned and more than kappa curves sit inside.
    """
    n = distances.size
    if kappa >= n:
        raise ValueError(f"kappa={kappa} needs at least kappa+1={kappa + 1} curves")
    ordered = np.sort(distances)
    lo, hi = ordered[kappa - 1], ordered[kappa]
    return float(lo) if lo == hi else float(0.5 * (lo + hi))


def _weights(distances: FloatArray, kappa: int, kernel: KernelSpec) -> FloatArray:
    """Normalized kernel weights; falls back to the unweighted mean of every
    pair inside the bandwidth when all kernel weights vanish (distances tied
    exactly at the bandwidth, where the kernel is zero)."""
    h = _bandwidth(distances, kappa)
    if h == 0.0:
        w = (distances == 0.0).astype(np.float64)
    else:
        w = kernel.weights(distances / h)
        if w.sum() == 0.0:
            w = (distances <= h).astype(np.float64)
    return w / w.sum()


def prediction_weights(model: FittedRegression, x: Curve) -> FloatArray:
    """The normalized weight each training pair contributes at ``x``."""
    if not x.grid.matches(model.predictor_grid):
        raise ValueError("query curve is not on the model's predictor grid")
    distances = distances_to(
        model.semimetric, model.predictor_matrix, x.values, model.predictor_grid.points
    )
    return _weights(distances, model.kappa, model.kernel)


def predict(model: FittedRegression, x: Curve) -> Curve:
    """Pointwise convex combination of training responses near ``x``."""
    return Curve(model.response_grid, prediction_weights(model, x) @ model.response_matrix)


def predict_many(model: FittedRegression, queries: FloatArray) -> FloatArray:
    """Predictions for a stack of predictor-value rows; returns (q, p) values."""
    dmat = distance_matrix(
        model.semimetric, queries, model.predictor_matrix, model.predictor_grid.points
    )
    out = np.empty((dmat.shape[0], len(model.response_grid)))
    for i in range(dmat.shape[0]):
        w = _weights(dmat[i], model.kappa, model.kernel)
        out[i] = w @ model.response_matrix
    return out


def kappa_cv_scores(
    pairs: Sequence[CurvePair],
    semimetric: SemimetricSpec,
    kernel: KernelSpec,
    kappa_candidates: Sequence[int],
) -> list[tuple[int, float]]:
    """Leave-one-out CV table: mean squared-L2 prediction error per candidate.

    Each held-out pair is predicted from the remaining n-1; candidates are
    clamped to the n-2 neighbors available inside the leave-one-out fit.
    """
    if len(kappa_candidates) == 0:
        raise ValueError("kappa_candidates must not be empty")
    n = len(pairs)
    if n < 3:
        raise ValueError("leave-one-out selection needs at least 3 pairs")
    for kappa in kappa_candidates:
        if not 1 <= kappa <= n - 1:
            raise ValueError(f"candidate kappa={kappa} outside [1, {n - 1}]")

    x_mat = np.stack([p.predictor.values for p in pairs])
    y_mat = np.stack([p.response.values for p in pairs])
    grid = pairs[0].predictor.grid.points
    dmat = distance_matrix(semimetric, x_mat, x_mat, grid)
    # leaving pair i out: at +inf it sorts last and gets zero weight, so the
    # full row and the full response matrix serve every fit without copies
    np.fill_diagonal(dmat, np.inf)
    quad = trapezoid_weights(pairs[0].response.grid.points)

    table: list[tuple[int, float]] = []
    for kappa in kappa_candidates:
        k_eff = min(int(kappa), n - 2)
        total = 0.0
        for i in range(n):
            diff = _weights(dmat[i], k_eff, kernel) @ y_mat - y_mat[i]
            total += float(np.sum(quad * diff * diff))
        table.append((int(kappa), total / n))
    return table


def best_kappa(table: Sequence[tuple[int, float]]) -> int:
    """Candidate with the smallest score; ties go to the smaller kappa."""
    return min(table, key=lambda entry: (entry[1], entry[0]))[0]


def select_kappa_cv(
    pairs: Sequence[CurvePair],
    semimetric: SemimetricSpec,
    kernel: KernelSpec,
    kappa_candidates: Sequence[int],
) -> int:
    """Candidate with the smallest leave-one-out error; ties go to smaller kappa."""
    return best_kappa(kappa_cv_scores(pairs, semimetric, kernel, kappa_candidates))
