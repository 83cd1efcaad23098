"""Nearest-neighbor-bandwidth kernel regression between curve spaces.

The estimator maps a predictor curve to the kernel-weighted average of the
training response curves,

    prediction(lam) = sum_i K(d(X_i, x) / h) Y_i(lam) / sum_i K(d(X_i, x) / h),

with a quadratic kernel K(u) = 1 - u^2 supported on [0, 1] and a bandwidth h
chosen per query so that exactly ``kappa`` training predictors fall inside
it. The neighbor count ``kappa`` is selected by leave-one-out CV on the
squared-L2 prediction error, or used as given when it is the one candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .curves import Curve, CurvePair, FloatArray, shared_grid, trapezoid_weights
from .semimetrics import SemimetricSpec, nearest, reference


@dataclass(frozen=True)
class KernelSpec:
    """Quadratic kernel 1 - u^2 on [0, 1], zero elsewhere.

    The normalization constant is omitted: the estimator is a ratio, so any
    constant factor cancels.
    """

    def weights(self, u: FloatArray) -> FloatArray:
        u = np.asarray(u, dtype=np.float64)
        return np.where((u >= 0.0) & (u <= 1.0), 1.0 - u * u, 0.0)


def _stacked(curves) -> FloatArray:
    """The curves' values as the rows of one matrix, read-only as a curve's values."""
    mat = np.stack([c.values for c in curves])
    mat.setflags(write=False)
    return mat


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
        shared_grid([p.predictor for p in self.pairs], "training predictors")
        shared_grid([p.response for p in self.pairs], "training responses")
        if not 1 <= self.kappa <= n - 1:
            raise ValueError(
                f"kappa must satisfy 1 <= kappa <= n-1 = {n - 1}, got {self.kappa}"
            )

    def __len__(self) -> int:  # the number of training pairs
        return len(self.pairs)

    @property
    def predictor_grid(self):
        return self.pairs[0].predictor.grid

    @property
    def response_grid(self):
        return self.pairs[0].response.grid

    @cached_property
    def predictor_matrix(self) -> FloatArray:
        return _stacked(p.predictor for p in self.pairs)

    @cached_property
    def response_matrix(self) -> FloatArray:
        return _stacked(p.response for p in self.pairs)

    @cached_property
    def reference(self) -> tuple:  # what every search reads
        return reference(self.semimetric, self.predictor_matrix, self.predictor_grid.points)


# query rows searched and weighted at once: the screen holds a few
# (_BLOCK_ROWS, n) arrays and gathers about kappa rows per query
_BLOCK_ROWS = 64


def _neighbours(idx: np.ndarray, dist: FloatArray, kappa: int, kernel: KernelSpec) -> tuple:
    """Each query's kappa nearest pairs and their normalized weights.

    ``idx`` and ``dist`` come from :func:`nearest`. The kappa nearest are
    taken by distance, ties to the smaller index, and weighted in index
    order, so the bits do not depend on which other rows the screen let in.

    A row's bandwidth is the midpoint between its kappa-th and (kappa+1)-th
    smallest distances, which keeps all kappa neighbors strictly inside the
    kernel support; when the two tie, their common value is used and more
    than kappa curves sit inside, but every non-zero weight (d < h) is still
    among the kappa nearest. A row whose kernel weights all vanish
    (distances tied exactly at the bandwidth, where the kernel is zero, or a
    zero bandwidth) falls back to the unweighted mean of every pair inside,
    whose indices ``fallback`` gives.
    """
    rows = np.arange(len(dist))[:, None]
    order = np.argsort(dist, axis=1, kind="stable")
    edge = dist[rows, order[:, kappa - 1 : kappa + 1]]
    lo, hi = edge[:, :1], edge[:, 1:]
    h = np.where(lo == hi, lo, 0.5 * (lo + hi))
    pos = np.sort(order[:, :kappa], axis=1)  # candidates are in index order
    with np.errstate(divide="ignore", invalid="ignore"):
        w = kernel.weights(dist[rows, pos] / h)
    total = w.sum(axis=1, keepdims=True)
    vanished = np.flatnonzero(total == 0.0)
    total[vanished] = 1.0  # their kernel weights stay 0 and go unused
    fallback = {int(r): idx[r][dist[r] <= h[r]] for r in vanished}
    return idx[rows, pos], w / total, fallback


def _weighted_responses(
    idx: np.ndarray, dist: FloatArray, kappa: int, kernel: KernelSpec, responses: FloatArray
) -> FloatArray:
    """One kernel-weighted average of the response rows per query."""
    near, w, fallback = _neighbours(idx, dist, kappa, kernel)
    out = np.matmul(w[:, None, :], responses[near])[:, 0]  # one BLAS product per row
    for row, inside in fallback.items():
        out[row] = responses[inside].mean(axis=0)
    return out


def _query(model: FittedRegression, x: Curve) -> FloatArray:
    if not x.grid.matches(model.predictor_grid):
        raise ValueError("query curve is not on the model's predictor grid")
    return x.values[None, :]


def prediction_weights(model: FittedRegression, x: Curve) -> tuple[np.ndarray, FloatArray]:
    """The training rows of non-zero weight at ``x``, increasing, and their normalized
    weights: the kernel's, or 1/size for every pair inside if those all vanish."""
    idx, dist = nearest(model.reference, _query(model, x), model.kappa + 1)
    near, w, fallback = _neighbours(idx, dist, model.kappa, model.kernel)
    if 0 in fallback:  # the kappa nearest are inside
        return fallback[0], np.full(fallback[0].size, 1.0 / fallback[0].size)
    keep = w[0] > 0.0
    return near[0][keep], w[0][keep]


def predict(model: FittedRegression, x: Curve) -> Curve:
    """Pointwise convex combination of training responses near ``x``."""
    return Curve(model.response_grid, predict_many(model, _query(model, x))[0])


def predict_many(model: FittedRegression, queries: FloatArray) -> FloatArray:
    """Predictions for a stack of predictor-value rows; returns (q, p) values."""
    out = np.empty((len(queries), len(model.response_grid)))
    for start in range(0, len(queries), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        idx, dist = nearest(model.reference, queries[block], model.kappa + 1)
        out[block] = _weighted_responses(idx, dist, model.kappa, model.kernel, model.response_matrix)
    return out


def kappa_cv_scores(model: FittedRegression, kappa_candidates: Sequence[int]) -> list[tuple[int, float]]:
    """Leave-one-out CV table on the model's pairs: mean squared-L2 prediction
    error per candidate (the model's own kappa is not used).

    Each held-out pair is predicted from the remaining n-1; candidates are
    clamped to the n-2 neighbors available inside the leave-one-out fit.
    """
    if len(kappa_candidates) == 0:
        raise ValueError("kappa_candidates must not be empty")
    n = len(model)
    if n < 3:
        raise ValueError("leave-one-out selection needs at least 3 pairs")
    for kappa in kappa_candidates:
        if not 1 <= kappa <= n - 1:
            raise ValueError(f"candidate kappa={kappa} outside [1, {n - 1}]")

    x_mat, y_mat, ref = model.predictor_matrix, model.response_matrix, model.reference
    quad = trapezoid_weights(model.response_grid.points)
    kappas = [min(int(kappa), n - 2) for kappa in kappa_candidates]
    # leaving pair i out: the search skips row i, so the full response
    # matrix serves every fit, and one search serves every candidate
    errors = np.empty((len(kappas), n))
    for start in range(0, n, _BLOCK_ROWS):
        block = np.arange(start, min(start + _BLOCK_ROWS, n))
        idx, dist = nearest(ref, x_mat[block], max(kappas) + 1, block)
        for j, kappa in enumerate(kappas):
            diff = _weighted_responses(idx, dist, kappa, model.kernel, y_mat) - y_mat[block]
            errors[j, block] = np.sum(quad * diff * diff, axis=1)
    return [
        (int(kappa), float(np.sum(row)) / n) for kappa, row in zip(kappa_candidates, errors)
    ]


def fit_kappa(pairs: Sequence[CurvePair], semimetric: SemimetricSpec, kernel: KernelSpec,
              kappa_candidates: Sequence[int]) -> tuple[FittedRegression, list[tuple[int, float]]]:
    """The regression whose kappa has least LOO score (ties to the smaller) and the
    table. Each candidate above n-1 counts as n-1; when that leaves one value it
    is used as given, without CV (empty table)."""
    kappa_candidates = sorted({min(int(k), len(pairs) - 1) for k in kappa_candidates})
    if len(kappa_candidates) == 1:
        return FittedRegression(tuple(pairs), semimetric, kernel, kappa_candidates[0]), []
    # the pairs face a model's checks (kappa 1 fits any n); CV searches its rows
    model = FittedRegression(tuple(pairs), semimetric, kernel, 1)
    # by keyword, as perfbench/tracing.py reads the candidates (and len(model))
    table = kappa_cv_scores(model, kappa_candidates=kappa_candidates)  # checks the list
    kappa = min(table, key=lambda entry: (entry[1], entry[0]))[0]
    chosen = FittedRegression(model.pairs, semimetric, kernel, kappa)
    for name in ("predictor_matrix", "response_matrix", "reference"):  # caches free of kappa
        chosen.__dict__[name] = getattr(model, name)
    return chosen, table


def select_kappa_cv(pairs: Sequence[CurvePair], semimetric: SemimetricSpec, kernel: KernelSpec,
                    kappa_candidates: Sequence[int]) -> int:
    """The neighbor count :func:`fit_kappa` picks; ties go to the smaller kappa."""
    return fit_kappa(pairs, semimetric, kernel, kappa_candidates)[0].kappa
