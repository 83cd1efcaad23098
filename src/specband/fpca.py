"""Functional PCA of curve samples under the trapezoid inner product.

The discretized covariance is symmetrized with quadrature weights
(eigendecomposition of W^(1/2) C W^(1/2)), which keeps components orthonormal
in L2 rather than in the raw grid coordinates and makes the decomposition
stable under grid refinement. The full eigenvalue spectrum is retained so
explained-variance fractions refer to the total sample variance; only the
leading ``m`` component curves are materialized. A model's grid is its mean's,
and every component must be sampled on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import Curve, FloatArray, WavelengthGrid, frozen_array, shared_grid, trapezoid_weights


@dataclass(frozen=True, eq=False)
class FpcaModel:
    """Mean curve, leading component curves, and the full eigenvalue spectrum."""

    mean: Curve
    components: tuple[Curve, ...]
    eigenvalues: FloatArray

    def __post_init__(self) -> None:
        shared_grid([self.mean, *self.components], "FPCA curves")
        eig = frozen_array(self.eigenvalues, "eigenvalues")
        if (eig[1:] > eig[:-1]).any():
            raise ValueError("eigenvalues must be sorted non-increasing")
        if (eig < -1e-10).any():
            raise ValueError("eigenvalues must be non-negative up to roundoff")
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def m(self) -> int:
        return len(self.components)

    @property
    def grid(self) -> WavelengthGrid:
        return self.mean.grid


def fit_fpca(curves: Sequence[Curve], m: int) -> FpcaModel:
    """Principal components of a curve sample.

    Curves are centered by the pointwise mean; the covariance uses divisor n.
    Each component's sign is fixed so its first non-negligible value is
    positive.
    """
    n = len(curves)
    if n < 1:
        raise ValueError("need at least one curve")
    grid = shared_grid(curves, "curves")
    p = len(grid)
    if not 1 <= m <= min(n, p):
        raise ValueError(f"m must be in [1, {min(n, p)}], got {m}")

    centered = np.stack([c.values for c in curves])
    mean = centered.mean(axis=0)
    centered -= mean  # in place: the stack is ours, and a second (n, p) copy would set the peak

    w = trapezoid_weights(grid.points)
    sqrt_w = np.sqrt(w)
    cov = centered.T @ centered / n
    sym = sqrt_w[:, None] * cov * sqrt_w[None, :]
    eigvals, eigvecs = np.linalg.eigh(sym)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]

    components = []
    for j in range(m):
        phi = eigvecs[:, j] / sqrt_w
        nonzero = np.nonzero(np.abs(phi) > 1e-12)[0]
        if nonzero.size and phi[nonzero[0]] < 0.0:
            phi = -phi
        components.append(Curve(grid, phi))
    return FpcaModel(Curve(grid, mean), tuple(components), eigvals)


def project(model: FpcaModel, curve: Curve) -> FloatArray:
    """Trapezoid inner products of the centered curve with each component."""
    grid = shared_grid([model.mean, curve], "FPCA and projected curves")
    w = trapezoid_weights(grid.points)
    centered = curve.values - model.mean.values
    return np.array(
        [float(np.sum(w * centered * comp.values)) for comp in model.components]
    )


def scree_rows(model: FpcaModel) -> list[tuple[int, float, float]]:
    """(component index, eigenvalue, cumulative variance fraction) rows.

    A sample of identical curves leaves variance at the level of squared
    machine epsilon relative to the curves themselves; that counts as an
    all-zero spectrum, whose fractions are undefined.
    """
    total = float(np.sum(np.clip(model.eigenvalues, 0.0, None)))
    w = trapezoid_weights(model.grid.points)
    mean_square = float(np.sum(w * model.mean.values**2))
    if total <= 1e-24 * (total + mean_square):
        raise ValueError("all eigenvalues are zero; variance fractions undefined")
    rows = []
    running = 0.0
    for j, lam in enumerate(model.eigenvalues, start=1):
        running += max(float(lam), 0.0)
        rows.append((j, float(lam), running / total))
    return rows
