"""Distances between predictor curves used inside the kernel estimator.

Two families: the plain L2 metric (trapezoid-rule integral of the squared
difference) and derivative-based semimetrics of order 1 or 2, which apply
the same integral to finite-difference derivatives and therefore ignore
additive constants (order 1) or affine trends (order 2).

Every distance is the direct expression: the weighted sum of squared
differences of the two curves' derivatives, each curve differentiated on its
own. It is exact near zero (a curve is 0.0 from itself), and swapping the
curves gives the same bits. :func:`distances_to` evaluates it for one query.

:func:`nearest` finds each query's ``count`` nearest rows by measuring only
candidates, screened by a lower bound in the rows' numerical row space
(Faloutsos, Ranganathan & Manolopoulos 1994; Johnson, Douze & Jegou 2017).
A curve with derivative d becomes ``z = sqrt(w) (d - mean)``, the mean over
the rows, so the squared distance is ``e = |z_a - z_b|^2``. V (p x r) spans the
rows' numerical range: for n < p the right singular vectors of z with
``s > s_max p eps`` (numpy's matrix_rank cut), else the eigenvectors of the
Gram matrix ``z^T z`` with ``lam > lam_max p eps``, i.e. ``s > s_max sqrt(p eps)``
(2.6e-7 s_max at p = 300): forming ``z^T z`` squares s, and its eigenvalues
below that cut are rounding noise (on the benchmark's regression_2k
predictors, seed 7, it keeps 10 directions; matrix_rank's s rule on sqrt(lam)
would keep 148). Exactness does not depend on r: the bounds below hold for any
V and every candidate is measured directly, so r only sets how many rows pass
the screen. A curve has coordinates ``c = V^T z`` and residual norm
``rho = |z - V c|``. For any V, with F = V^T V - I and x = c_a - c_b,
``e = |x|^2 - x^T F x + |r_a - r_b|^2`` (r = z - V c), so the triangle
inequality on the residuals gives

    L - eta (1 + eta) S <= e <= L + 4 rho_a rho_b + eta (1 + eta) S,
    L = |c_a - c_b|^2 + (rho_a - rho_b)^2,   S = (|z_a| + |z_b|)^2,

where eta >= |F|_2 is the measured |F|_F plus ``2 (p + 1) r u`` for that
product's rounding (u the unit roundoff). Rows of rank r have residuals at
rounding level, so L is nearly e, one product per row with the r + 3 columns
``(-2 c, -2 rho, |(c, rho)|^2, 1)``.

Rounding moves both bounds by less than ``B = (2 eta + 20 (p + 2) sqrt(r + 1) u) S``
while ``p r u < 1e-3``. In units of S, with gamma_k = k u / (1 - k u) for k
roundings in any order (Higham, Accuracy and Stability of Numerical
Algorithms, 2002, 3.1): the direct value is within gamma_(p+3) of e (the
difference, its square, the weight, p - 1 additions) and the rounded sqrt(w)
adds gamma_2; z rounds twice per entry, 4.1 u, as the mean goes before the
scale; c and rho are each within ``4.1 (p + 1) sqrt(r) u |z|`` of their exact
values (gamma_p |V|_F for c; V c, a subtraction and a norm for rho), which
moves L by 8.4 and ``4 rho_a rho_b`` by 6.1 times ``(p + 1) sqrt(r) u``; the
norms and the product add gamma_(2r+4). B also covers S taken from the
(c, rho) norms (within 1 %) and its own rounding.

The candidates are exact. Every row has ``L - B <= e' <= L + 4 rho_q rho_max + B``
for its direct value e', so the count-th smallest e' is at most
``L_k + 4 rho_q rho_max + B``, L_k the count-th smallest L. A row at or below the
count-th distance, a tie after sqrt included (4.01 u), has
``L <= T = (L_k + 2 B + 4 rho_q rho_max) (1 + 16 u)``; the factor also covers
rounding T. Those rows are measured directly, bit for bit as
:func:`distances_to` does. The bandwidth is at most the (kappa + 1)-th
distance, so they hold every pair a weight, the bandwidth, the ties or the
fallback can touch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import FloatArray, trapezoid_weights

_EPS = np.finfo(np.float64).eps
_UNIT_ROUNDOFF = _EPS / 2
TOKENS = ("l2", "deriv1", "deriv2")  # position = derivative order


@dataclass(frozen=True)
class SemimetricSpec:
    """Which distance to use: "l2", or "deriv1"/"deriv2" (derivative order 1 or 2)."""

    token: str = "l2"

    def __post_init__(self) -> None:
        if self.token not in TOKENS:
            raise ValueError(f"unknown semimetric {self.token!r}; expected one of {sorted(TOKENS)}")

    @classmethod
    def parse(cls, token: str) -> "SemimetricSpec":
        return cls(token)

    @property
    def order(self) -> int:
        return TOKENS.index(self.token)


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


def _direct(diff: FloatArray, w: FloatArray) -> FloatArray:
    return np.sqrt(np.einsum("ij,ij,j->i", diff, diff, w))


def distances_to(
    spec: SemimetricSpec, rows: FloatArray, query: FloatArray, points: FloatArray
) -> FloatArray:
    """Distance from each row of a value matrix to one query value vector."""
    diff = _derivatives(spec, rows, points) - _derivatives(spec, query, points)
    return _direct(diff, trapezoid_weights(points))


def _coords(z: FloatArray, basis: FloatArray) -> tuple[FloatArray, FloatArray]:
    """Each row's coordinates in ``basis`` and, last, its residual norm; their squared norms."""
    a = np.empty((len(z), basis.shape[1] + 1))
    a[:, :-1] = c = z @ basis
    for i in range(0, len(z), 256):  # norms, with no second (n, p) temporary
        a[i : i + 256, -1] = np.sqrt(np.square(z[i : i + 256] - c[i : i + 256] @ basis.T).sum(axis=1))
    return a, np.einsum("ij,ij->i", a, a)


def reference(spec: SemimetricSpec, values: FloatArray, points: FloatArray) -> tuple:
    """What :func:`nearest` reads of the rows ``values``, every array read-only: ``spec``,
    the grid ``points``, the derivative rows (for ``l2``, a view of ``values``), w, the mean,
    V, the table of L, the slack's coefficient, and the largest (c, rho) norm and residual."""
    rows = _derivatives(spec, values, points)
    w = trapezoid_weights(points)
    mean, root_w = rows.mean(axis=0), np.sqrt(w)
    z = rows - mean
    z *= root_w
    n, p = z.shape
    if n < p:  # no (p, p) eigenproblem for a few rows
        sv, vt = np.linalg.svd(z, full_matrices=False)[1:]
        basis = vt[sv > sv[0] * p * _EPS].T
    else:
        lam, vec = np.linalg.eigh(z.T @ z)
        basis = vec[:, lam > lam[-1] * p * _EPS]
    r = basis.shape[1]
    eta = np.linalg.norm(basis.T @ basis - np.eye(r)) + 2 * (p + 1) * r * _UNIT_ROUNDOFF
    coef = 2 * eta + 20 * (p + 2) * np.sqrt(r + 1) * _UNIT_ROUNDOFF
    a, a_sq = _coords(z, basis)
    table = np.vstack([-2.0 * a.T, a_sq, np.ones(n)])  # L = [a, 1, |a|^2] @ table
    arrays = [arr.view() for arr in (points, rows, w, mean, root_w, basis, table)]
    for arr in arrays:
        arr.setflags(write=False)
    return (spec, *arrays, coef, np.sqrt(a_sq.max()), a[:, -1].max())


def nearest(
    ref: tuple, queries: FloatArray, count: int, exclude: np.ndarray | None = None
) -> tuple[np.ndarray, FloatArray]:
    """Candidates for each query's ``count`` nearest rows of ``ref``, a :func:`reference`:
    the query rows are values on its grid, measured with its semimetric.

    Returns (q, width) row indices, increasing along each row, and their direct
    distances, measured a few queries at a time: every row at or below a query's
    count-th distance, then the screen's next rows up to ``width``. ``exclude`` names
    a row per query to leave out. The screen holds (q, n) arrays: pass queries in blocks.
    """
    spec, points, rows, w, mean, root_w, basis, table, coef, top_norm, top_rho = ref
    q = _derivatives(spec, queries, points)
    a, a_sq = _coords((q - mean) * root_w, basis)
    low = np.concatenate([a, np.ones((len(a), 1)), a_sq[:, None]], axis=1) @ table  # L
    if exclude is not None:
        low[np.arange(len(q)), exclude] = np.inf
    slack = coef * (np.sqrt(a_sq) + top_norm) ** 2
    order = np.argpartition(low, count - 1, axis=1)
    top = low[np.arange(len(q)), order[:, count - 1]] + 2.0 * slack + 4.0 * a[:, -1] * top_rho
    # each query's candidates are the rows lowest in L; take as many for
    # every query as the one that needs most
    width = (low <= top[:, None] * (1.0 + 16 * _UNIT_ROUNDOFF)).sum(axis=1).max()
    if width > count:
        order = np.argpartition(low, width - 1, axis=1)
    idx, dist = np.sort(order[:, :width], axis=1), np.empty((len(q), width))
    for i in range(0, len(q), 4):  # a few queries' (width, p) differences stay in cache
        diff = rows[idx[i : i + 4]]
        diff -= q[i : i + 4, None, :]
        dist[i : i + 4] = _direct(diff.reshape(-1, q.shape[1]), w).reshape(-1, width)
    return idx, dist
