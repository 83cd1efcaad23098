"""Distances between predictor curves used inside the kernel estimator.

Two families: the plain L2 metric (trapezoid-rule integral of the squared
difference) and derivative-based semimetrics of order 1 or 2, which apply
the same integral to finite-difference derivatives and therefore ignore
additive constants (order 1) or affine trends (order 2).

Every distance is the direct expression: the weighted sum of squared
differences of the two curves' derivatives, each curve differentiated on its
own. It is exact near zero, ``distance(a, a) == 0.0``, and swapping the
curves gives the same bits. :func:`distances_to` evaluates it for one query.

:func:`nearest` finds each query's ``count`` nearest rows by measuring only
candidates. One Gram product screens a block of queries,
``g = |a|^2 + |b|^2 - 2 <a, w b>`` (w the trapezoid weights, b the query),
and the rows with ``g - B <= T`` are measured directly, bit for bit as
:func:`distances_to` does. The expansion cancels for nearby curves (off by
1e-6 at distance 0 on 2000 mock predictors), hence the slack
``B = 3 (p + 4) u S`` on p grid points, u the unit roundoff and
``S = (|a| + |b|)^2 >= |a - b|^2``. With ``gamma_k = k u / (1 - k u)``
(Higham, Accuracy and Stability of Numerical Algorithms, 2002, 3.1): the
direct value e rounds p + 3 times along each term (the difference, twice as
it is squared, the square, the weight, p - 1 additions in any order), so it
is within ``gamma_(p+3) S`` of the exact squared distance; the norms and the
Gram entry round p + 1 times along each term, within ``gamma_(p+1)`` times
``|a|^2``, ``|b|^2`` and ``|a| |b|`` (Cauchy-Schwarz), and the last two
additions add u S each, so g is within ``gamma_(p+4) S``. Hence
``|g - e| < 2.01 (p + 4) u S`` while ``(p + 4) u < 0.005``; the rest of B,
at least 5.9 u S, covers rounding the slack, ``g + B`` (formed as
``(g - B) + 2B``) and T.

The candidates are exact: T is the count-th smallest ``g + B`` times
``1 + 8u``, and every row has ``e <= g + B``, so T bounds the count-th
smallest e and any e whose square root ties with it (a relative gap near
4u). Every row at or below the count-th distance has ``g - B <= e <= T``.
The bandwidth is at most the (kappa + 1)-th distance, so the candidates hold
every pair a weight, the bandwidth, the ties or the fallback can touch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import Curve, FloatArray, ensure_same_grid, trapezoid_weights

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_TOKENS = ("l2", "deriv1", "deriv2")  # position = derivative order


@dataclass(frozen=True)
class SemimetricSpec:
    """Which distance to use: "l2", or "deriv1"/"deriv2" (derivative order 1 or 2)."""

    token: str = "l2"

    def __post_init__(self) -> None:
        if self.token not in _TOKENS:
            raise ValueError(f"unknown semimetric {self.token!r}; expected one of {sorted(_TOKENS)}")

    @classmethod
    def parse(cls, token: str) -> "SemimetricSpec":
        return cls(token)

    @property
    def order(self) -> int:
        return _TOKENS.index(self.token)


def _derivatives(spec: SemimetricSpec, values: FloatArray, points: FloatArray) -> FloatArray:
    """Rows of ``values`` differentiated ``spec.order`` times along ``points``."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.size < spec.order + 2:
        raise ValueError(
            f"the {spec.token} semimetric needs at least {spec.order + 2} grid points"
        )
    out = np.atleast_2d(np.asarray(values, dtype=np.float64))
    for _ in range(spec.order):
        out = np.gradient(out, pts, axis=1)
    return out


def distance(spec: SemimetricSpec, a: Curve, b: Curve) -> float:
    """Semimetric distance between two curves on a shared grid."""
    ensure_same_grid(a, b)
    return float(distances_to(spec, a.values, b.values, a.grid.points)[0])


def _direct(diff: FloatArray, w: FloatArray) -> FloatArray:
    return np.sqrt(np.einsum("ij,ij,j->i", diff, diff, w))


def distances_to(
    spec: SemimetricSpec, rows: FloatArray, query: FloatArray, points: FloatArray
) -> FloatArray:
    """Distance from each row of a value matrix to one query value vector."""
    diff = _derivatives(spec, rows, points) - _derivatives(spec, query, points)
    return _direct(diff, trapezoid_weights(points))


def reference(
    spec: SemimetricSpec, values: FloatArray, points: FloatArray
) -> tuple[FloatArray, FloatArray]:
    """Derivative rows (for ``l2``, ``values`` itself) and their squared norms."""
    rows = _derivatives(spec, values, points)
    return rows, np.sum(rows * rows * trapezoid_weights(points), axis=1)


def nearest(
    spec: SemimetricSpec, ref: tuple[FloatArray, FloatArray], queries: FloatArray,
    points: FloatArray, count: int, exclude: np.ndarray | None = None,
) -> tuple[np.ndarray, FloatArray]:
    """Candidates for each query's ``count`` nearest rows of ``ref``, a :func:`reference`.

    Returns (q, width) row indices, increasing along each row, and their
    direct distances: every row at or below a query's count-th distance, and
    the screen's next rows up to ``width``. ``exclude`` names a row per query
    to leave out. The screen holds a few (q, n) arrays: pass queries in blocks.
    """
    rows, row_sq = ref
    w = trapezoid_weights(points)
    q, q_sq = reference(spec, queries, points)
    low = np.ascontiguousarray((row_sq[:, None] + q_sq[None, :] - 2.0 * (rows @ (q * w).T)).T)  # g
    if exclude is not None:
        low[np.arange(len(q)), exclude] = np.inf
    slack = np.add.outer(np.sqrt(q_sq), np.sqrt(row_sq)) ** 2
    slack *= 3 * (q.shape[1] + 4) * _UNIT_ROUNDOFF
    low -= slack
    slack *= 2.0
    top = np.add(low, slack, out=slack)  # g + B, from the rows' g - B
    top.partition(count - 1, axis=1)
    # each query's candidates are the rows lowest in g - B; take as many for
    # every query as the one that needs most
    width = (low <= top[:, count - 1 : count] * (1.0 + 8 * _UNIT_ROUNDOFF)).sum(axis=1).max()
    idx = np.sort(np.argpartition(low, width - 1, axis=1)[:, :width], axis=1)
    diff = rows[idx]
    diff -= q[:, None, :]
    return idx, _direct(diff.reshape(-1, q.shape[1]), w).reshape(idx.shape)
