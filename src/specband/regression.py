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

    @cached_property
    def fitted_values(self) -> FloatArray:  # at the training predictors
        return predict_many(self, self.predictor_matrix)


# distance rows weighted at once: no gathered block grows past _BLOCK_ROWS rows
_BLOCK_ROWS = 256


def _neighbours(dmat: FloatArray, kappa: int, kernel: KernelSpec) -> tuple:
    """Each distance row's kappa nearest pairs and their normalized weights.

    A row's bandwidth is the midpoint between its kappa-th and (kappa+1)-th
    smallest distances, which keeps all kappa neighbors strictly inside the
    kernel support; when the two tie, their common value is used and more
    than kappa curves sit inside, but every non-zero weight (d < h) is still
    among the kappa nearest. A row whose kernel weights all vanish
    (distances tied exactly at the bandwidth, where the kernel is zero, or a
    zero bandwidth) falls back to the unweighted mean of every pair inside,
    given as a dense weight row in ``fallback``.
    """
    idx = np.argpartition(dmat, kappa, axis=1)[:, : kappa + 1]
    near = np.take_along_axis(dmat, idx, axis=1)
    lo, hi = near[:, :kappa].max(axis=1, keepdims=True), near[:, kappa:]
    h = np.where(lo == hi, lo, 0.5 * (lo + hi))
    with np.errstate(divide="ignore", invalid="ignore"):
        w = kernel.weights(near[:, :kappa] / h)
    total = w.sum(axis=1, keepdims=True)
    vanished = np.flatnonzero(total == 0.0)
    total[vanished] = 1.0  # their kernel weights stay 0 and go unused
    fallback = {int(r): (dmat[r] <= h[r]) / np.sum(dmat[r] <= h[r]) for r in vanished}
    return idx[:, :kappa], w / total, fallback


def _weighted_responses(
    dmat: FloatArray, kappa: int, kernel: KernelSpec, responses: FloatArray
) -> FloatArray:
    """One kernel-weighted average of the response rows per distance row."""
    out = np.empty((dmat.shape[0], responses.shape[1]))
    for start in range(0, dmat.shape[0], _BLOCK_ROWS):
        idx, w, fallback = _neighbours(dmat[start : start + _BLOCK_ROWS], kappa, kernel)
        out[start : start + _BLOCK_ROWS] = np.einsum("rk,rkp->rp", w, responses[idx])
        for row, dense in fallback.items():
            out[start + row] = dense @ responses
    return out


def prediction_weights(model: FittedRegression, x: Curve) -> FloatArray:
    """The normalized weight each training pair contributes at ``x``."""
    if not x.grid.matches(model.predictor_grid):
        raise ValueError("query curve is not on the model's predictor grid")
    distances = distances_to(
        model.semimetric, model.predictor_matrix, x.values, model.predictor_grid.points
    )
    idx, w, fallback = _neighbours(distances[None, :], model.kappa, model.kernel)
    weights = fallback.get(0, np.zeros(model.n))
    weights[idx[0]] += w[0]  # a fallback row's kernel weights are all 0
    return weights


def predict(model: FittedRegression, x: Curve) -> Curve:
    """Pointwise convex combination of training responses near ``x``."""
    weights = prediction_weights(model, x)
    near = np.flatnonzero(weights)  # the kappa nearest pairs at most, ties aside
    return Curve(model.response_grid, weights[near] @ model.response_matrix[near])


def predict_many(model: FittedRegression, queries: FloatArray) -> FloatArray:
    """Predictions for a stack of predictor-value rows; returns (q, p) values."""
    dmat = distance_matrix(
        model.semimetric, queries, model.predictor_matrix, model.predictor_grid.points
    )
    return _weighted_responses(dmat, model.kappa, model.kernel, model.response_matrix)


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
        diff = _weighted_responses(dmat, min(int(kappa), n - 2), kernel, y_mat) - y_mat
        table.append((int(kappa), float(np.sum(quad * diff * diff)) / n))
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
