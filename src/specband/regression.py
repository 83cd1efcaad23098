"""Nearest-neighbor-bandwidth kernel regression between curve spaces.

The estimator maps a predictor curve to the kernel-weighted average of the
training response curves,

    prediction(lam) = sum_i K(d(X_i, x) / h) Y_i(lam) / sum_i K(d(X_i, x) / h),

with a quadratic kernel K(u) = 1 - u^2 supported on [0, 1] and a bandwidth h
chosen per query so that exactly ``kappa`` training predictors fall inside
it. The neighbor count ``kappa`` is selected by leave-one-out CV on the
squared-L2 prediction error, or used as given when it is the one candidate;
one neighbor search and one weighting serve every candidate.
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


def _neighbours(idx: np.ndarray, dist: FloatArray, kappas: tuple, kernel: KernelSpec) -> tuple:
    """Each query's max(kappas) nearest pairs, in index order, and for every kappa
    their normalized weights, (q, len(kappas), max(kappas)): one sort serves all.

    ``idx`` and ``dist`` come from :func:`nearest`; the nearest are taken by
    distance, ties to the smaller index, so no bit depends on which other rows
    the screen let in. A row's bandwidth is the midpoint between its kappa-th and
    (kappa+1)-th smallest distances, so all kappa neighbors sit strictly inside the
    kernel support; if the two tie, h is their common value and every non-zero
    weight (d < h) is still among the kappa nearest: each kappa weighs only its
    own. A (row, kappa) whose kernel weights all vanish (distances tied at the
    bandwidth, where the kernel is zero, or a zero bandwidth) falls back to the
    unweighted mean of every pair inside: ``fallback[row, j]`` for the j-th kappa.
    """
    rows, count, top = np.arange(len(dist))[:, None], len(kappas), max(kappas)
    order = np.argsort(dist, axis=1, kind="stable")
    edge = dist[rows, order[:, [k - 1 for k in kappas] + list(kappas)]]  # every kappa-th nearest, then every (kappa+1)-th
    lo, hi = edge[:, :count], edge[:, count:]
    h = np.where(lo == hi, lo, 0.5 * (lo + hi))
    pos = np.sort(order[:, :top], axis=1)  # candidates are in index order
    with np.errstate(divide="ignore", invalid="ignore"):
        w = kernel.weights(dist[rows, pos][:, None, :] / h[:, :, None])
    total = w.sum(axis=2, keepdims=True)
    vanished = np.flatnonzero(total == 0.0)
    total[total == 0.0] = 1.0  # their kernel weights stay 0 and go unused
    fallback = {(r, j): idx[r][dist[r] <= h[r, j]] for r, j in (divmod(int(v), count) for v in vanished)}
    return idx[rows, pos], w / total, fallback


def _weighted_responses(idx: np.ndarray, dist: FloatArray, kappas: tuple, kernel: KernelSpec,
                        responses: FloatArray) -> FloatArray:
    """For every kappa, one kernel-weighted average of the response rows per query: (q, len(kappas), p)."""
    near, w, fallback = _neighbours(idx, dist, kappas, kernel)
    out = np.matmul(w, responses[near])  # one gather and one BLAS product per row
    for (row, j), inside in fallback.items():
        out[row, j] = responses[inside].mean(axis=0)
    return out


def _query(model: FittedRegression, x: Curve) -> FloatArray:
    if not x.grid.matches(model.predictor_grid):
        raise ValueError("query curve is not on the model's predictor grid")
    return x.values[None, :]


def prediction_weights(model: FittedRegression, x: Curve) -> tuple[np.ndarray, FloatArray]:
    """The training rows of non-zero weight at ``x``, increasing, and their normalized
    weights: the kernel's, or 1/size for every pair inside if those all vanish."""
    idx, dist = nearest(model.reference, _query(model, x), model.kappa + 1)
    near, w, fallback = _neighbours(idx, dist, (model.kappa,), model.kernel)
    if (inside := fallback.get((0, 0))) is not None:  # the kappa nearest are inside
        return inside, np.full(inside.size, 1.0 / inside.size)
    keep = w[0, 0] > 0.0
    return near[0][keep], w[0, 0][keep]


def predict(model: FittedRegression, x: Curve) -> Curve:
    """Pointwise convex combination of training responses near ``x``."""
    return Curve(model.response_grid, predict_many(model, _query(model, x))[0])


def predict_many(model: FittedRegression, queries: FloatArray) -> FloatArray:
    """Predictions for a stack of predictor-value rows; returns (q, p) values."""
    out = np.empty((len(queries), len(model.response_grid)))
    for start in range(0, len(queries), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        idx, dist = nearest(model.reference, queries[block], model.kappa + 1)
        out[block] = _weighted_responses(idx, dist, (model.kappa,), model.kernel, model.response_matrix)[:, 0]
    return out


def kappa_cv_scores(model: FittedRegression, kappa_candidates: Sequence[int]) -> list[tuple[int, float]]:
    """Leave-one-out CV table on the model's pairs: mean squared-L2 prediction
    error per candidate (the model's own kappa is not used).

    Each held-out pair is predicted from the remaining n-1; candidates are clamped
    to the n-2 neighbors inside the leave-one-out fit. One search and one weighting
    per block serve every candidate: the table is a per-candidate LOO's up to
    rounding, as a kappa's zero weights past its own nearest reorder its sums.
    """
    if len(kappa_candidates) == 0:
        raise ValueError("kappa_candidates must not be empty")
    n = len(model)
    for kappa in kappa_candidates:
        if not 1 <= kappa <= n - 1:
            raise ValueError(f"candidate kappa={kappa} outside [1, {n - 1}]")

    x_mat, y_mat, ref = model.predictor_matrix, model.response_matrix, model.reference
    quad = trapezoid_weights(model.response_grid.points)
    kappas, column = np.unique([min(int(kappa), n - 2) for kappa in kappa_candidates], return_inverse=True)
    kappas = tuple(kappas.tolist())  # each distinct clamped kappa is scored once; a duplicate reads its row
    # leaving pair i out, the search skips row i: the full response matrix serves every fit
    errors = np.empty((len(kappas), n))
    for start in range(0, n, _BLOCK_ROWS):
        block = np.arange(start, min(start + _BLOCK_ROWS, n))
        idx, dist = nearest(ref, x_mat[block], max(kappas) + 1, block)
        diff = _weighted_responses(idx, dist, kappas, model.kernel, y_mat) - y_mat[block, None]
        errors[:, block] = np.sum(quad * diff * diff, axis=2).T
    return [(int(kappa), float(np.sum(row)) / n) for kappa, row in zip(kappa_candidates, errors[column])]


def usable_kappas(kappa_candidates: Sequence[int], n: int) -> list[int]:
    """The distinct kappas a fit on n pairs chooses from, ascending: each
    candidate above n-1 counts as n-1."""
    return sorted({min(int(k), n - 1) for k in kappa_candidates})


def fit_kappa(pairs: Sequence[CurvePair], semimetric: SemimetricSpec, kernel: KernelSpec,
              kappa_candidates: Sequence[int]) -> tuple[FittedRegression, list[tuple[int, float]]]:
    """The regression whose kappa has least LOO score (ties to the smaller) among
    ``usable_kappas`` and the table; when there is one usable kappa it is used as
    given, without CV (empty table)."""
    kappa_candidates = usable_kappas(kappa_candidates, len(pairs))
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
