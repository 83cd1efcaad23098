"""Distances between predictor curves used inside the kernel estimator.

Two families: the plain L2 metric (trapezoid-rule integral of the squared
difference) and derivative-based semimetrics of order 1 or 2, which apply
the same integral to finite-difference derivatives and therefore ignore
additive constants (order 1) or affine trends (order 2).

Two kernels evaluate them, chosen by the shape of the job:

- :func:`distances_to` (and :func:`distance`, a one-row call of it) takes
  one query against a stack of curves and integrates the squared
  difference directly, in one ``einsum`` pass over one (n, p) difference.
  It runs for every prediction and conformal score. It is exact near zero:
  ``distance(a, a) == 0.0`` and swapping the curves gives the same bits.
- :func:`distance_matrix` takes a block of queries and expands
  ``|a - b|^2 = |a|^2 + |b|^2 - 2<a, b>`` into one Gram product. It runs
  for leave-one-out kappa selection and the model's fitted values, where
  it is some 40 times faster than direct differences at n = 2000. It is
  built in place in two (n, m) buffers, bit for bit the plain expression:
  doubling is exact and the sums keep their order. The expansion cancels
  for nearby curves: on 2000 mock predictors it is off by 1e-6 on the
  diagonal, where the distance is 0, and by 2e-12 elsewhere. Single
  predictions therefore never use it; their weights, and so the saved
  predictions, would change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import Curve, FloatArray, ensure_same_grid, trapezoid_weights

_CLI_TOKENS = {"l2": ("l2", 0), "deriv1": ("sobolev", 1), "deriv2": ("sobolev", 2)}


@dataclass(frozen=True)
class SemimetricSpec:
    """Which distance to use: kind "l2", or "sobolev" with order 1 or 2."""

    kind: str = "l2"
    order: int = 0

    def __post_init__(self) -> None:
        if self.kind == "l2":
            if self.order != 0:
                raise ValueError("the l2 semimetric takes no derivative order")
        elif self.kind == "sobolev":
            if self.order not in (1, 2):
                raise ValueError("derivative order must be 1 or 2")
        else:
            raise ValueError(f"unknown semimetric kind: {self.kind!r}")

    @classmethod
    def l2(cls) -> "SemimetricSpec":
        return cls("l2", 0)

    @classmethod
    def sobolev(cls, order: int) -> "SemimetricSpec":
        return cls("sobolev", order)

    @classmethod
    def parse(cls, token: str) -> "SemimetricSpec":
        try:
            kind, order = _CLI_TOKENS[token]
        except KeyError:
            raise ValueError(
                f"unknown semimetric {token!r}; expected one of {sorted(_CLI_TOKENS)}"
            ) from None
        return cls(kind, order)

    @property
    def token(self) -> str:
        return "l2" if self.kind == "l2" else f"deriv{self.order}"


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


def distances_to(
    spec: SemimetricSpec, rows: FloatArray, query: FloatArray, points: FloatArray
) -> FloatArray:
    """Distance from each row of a value matrix to one query value vector."""
    diff = _derivatives(
        spec, np.atleast_2d(rows) - np.asarray(query, dtype=np.float64), points
    )
    return np.sqrt(np.einsum("ij,ij,j->i", diff, diff, trapezoid_weights(points)))


def distance_matrix(
    spec: SemimetricSpec, rows: FloatArray, cols: FloatArray, points: FloatArray
) -> FloatArray:
    """All pairwise distances between two stacks of curve values.

    ``rows`` and ``cols`` are (n, p) and (m, p) value matrices on the same
    grid ``points``; returns the (n, m) distance matrix through a Gram
    product, so entries differ from :func:`distances_to` by rounding.
    """
    a = _derivatives(spec, rows, points)
    b = _derivatives(spec, cols, points)
    w = trapezoid_weights(points)
    sa = np.sum(a * a * w, axis=1)
    sb = np.sum(b * b * w, axis=1)
    gram = a @ (b * w).T
    sq = sa[:, None] + sb[None, :]  # in place from here: see the module docstring
    gram *= 2.0
    sq -= gram
    return np.sqrt(np.maximum(sq, 0.0, out=sq), out=sq)
