"""Functional PCA of curve samples under the trapezoid inner product.

The discretized covariance is symmetrized with quadrature weights
(eigendecomposition of W^(1/2) C W^(1/2)), which keeps components orthonormal
in L2 rather than in the raw grid coordinates and makes the decomposition
stable under grid refinement. The full eigenvalue spectrum is retained so
explained-variance fractions refer to the total sample variance; only the
leading ``m`` components are kept, as the rows of one read-only (m, p) array
sampled on the model's grid, which is its mean's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import Curve, FloatArray, WavelengthGrid, frozen_array, shared_grid, trapezoid_weights


@dataclass(frozen=True, eq=False)
class FpcaModel:
    """Mean curve, leading components (one row each on the mean's grid), and the full eigenvalue spectrum."""

    mean: Curve
    components: FloatArray  # (m, p)
    eigenvalues: FloatArray

    def __post_init__(self) -> None:
        comps = frozen_array(self.components, "components", ndim=2)
        if comps.shape[1] != len(self.grid) or not np.isfinite(comps).all():
            raise ValueError(f"components must be finite rows of {len(self.grid)} values, one per grid point")
        eig = frozen_array(self.eigenvalues, "eigenvalues")
        if (eig[1:] > eig[:-1]).any():
            raise ValueError("eigenvalues must be sorted non-increasing")
        if (eig < -1e-10).any():
            raise ValueError("eigenvalues must be non-negative up to roundoff")
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "components", comps)

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

    sqrt_w = np.sqrt(trapezoid_weights(grid.points))
    cov = centered.T @ centered / n
    sym = sqrt_w[:, None] * cov * sqrt_w[None, :]
    eigvals, eigvecs = np.linalg.eigh(sym)
    order = np.argsort(eigvals)[::-1]

    phi = (eigvecs[:, order[:m]] / sqrt_w[:, None]).T  # (m, p): row j is component j
    # each row's first entry with |phi| > 1e-12 decides its sign; a row without
    # one has argmax 0 there, whose |phi| <= 1e-12 never reads as negative
    lead = phi[np.arange(m), (np.abs(phi) > 1e-12).argmax(axis=1)]
    phi[lead < -1e-12] *= -1.0
    return FpcaModel(Curve(grid, mean), phi, eigvals[order])


def project(model: FpcaModel, curve: Curve) -> FloatArray:
    """Trapezoid inner products of the centered curve with each component."""
    grid = shared_grid([model.mean, curve], "FPCA and projected curves")
    w = trapezoid_weights(grid.points)
    centered = curve.values - model.mean.values
    return np.array([float(np.sum(w * centered * comp)) for comp in model.components])


def scree_rows(model: FpcaModel) -> list[tuple[int, float, float]]:
    """(component index, eigenvalue, cumulative variance fraction) rows.

    A sample of identical curves leaves variance at the level of squared
    machine epsilon relative to the curves themselves; that counts as an
    all-zero spectrum, whose fractions are undefined.
    """
    clipped = np.clip(model.eigenvalues, 0.0, None)
    total = float(np.sum(clipped))
    w = trapezoid_weights(model.grid.points)
    mean_square = float(np.sum(w * model.mean.values**2))
    if total <= 1e-24 * (total + mean_square):
        raise ValueError("all eigenvalues are zero; variance fractions undefined")
    fractions = np.cumsum(clipped) / total  # a running sum, added in order
    return [(j, float(lam), float(f)) for j, (lam, f) in enumerate(zip(model.eigenvalues, fractions), start=1)]
