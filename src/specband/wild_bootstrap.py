"""Wild bootstrap confidence bands for the projected regression operator.

Each training pair keeps its own residual curve, multiplied by an
independent two-point perturbation whose first three moments are 0, 1, 1
(Mammen 1993), so a replicate keeps the residuals' local variance and
skewness. Each replicate re-evaluates the kernel estimator at the query
point with the original weights (they depend only on the training
predictors): with S = (s_1 < ... < s_k) and w the support and weights
``prediction_weights`` returns, and fitted_{s_j} the model's prediction at
s_j's own predictor (only S is evaluated), replicate b is sum_j w_j
(fitted_{s_j} + residual_{s_j} V[b, j]), projected onto the first m rows of
the FPCA component array. As the projection is linear, all replicates'
coordinates come from one product of the perturbations with the support's
projected residuals.
Per-coordinate empirical quantiles at Bonferroni-split levels alpha/(2m)
and 1 - alpha/(2m) form a coefficient box. A band stores only the box and the
FPCA model; its pointwise envelope is derived, the box's exact image through
the basis. It is a variance band, blind to the estimator's bias, not a
band for the truth: on noise-free pairs it holds 0.00 of held-out projected
truths jointly, 0.35 with response-only scatter (acceptance criterion 1b).

Determinism contract: V[b, j] is the j-th draw of row b of one row-major
(B, |S|) matrix drawn from ``default_rng(seed)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .curves import Curve, CurvePair, FloatArray, frozen_array, trapezoid_weights
from .fpca import FpcaModel
from .regression import FittedRegression, predict_many, prediction_weights

V_LOW = (1.0 - math.sqrt(5.0)) / 2.0
V_HIGH = (1.0 + math.sqrt(5.0)) / 2.0
V_LOW_PROB = 0.1 * (5.0 + math.sqrt(5.0))


@dataclass(frozen=True)
class WildBootstrapConfig:
    """Replicate count, component count, coverage level and root seed."""

    replicates: int = 500
    components: int = 5
    alpha: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError("need at least one bootstrap replicate")
        if self.components < 1:
            raise ValueError("need at least one component")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")


@dataclass(frozen=True, eq=False)
class BootstrapBand:
    """Per-component coefficient intervals and the induced pointwise envelope."""

    component_intervals: FloatArray  # (m, 2) lower/upper coefficient bounds
    fpca: FpcaModel
    alpha: float
    replicates: int

    def __post_init__(self) -> None:
        intervals = frozen_array(self.component_intervals, "component_intervals", ndim=2)
        if intervals.shape[1] != 2 or not 1 <= len(intervals) <= self.fpca.m:
            raise ValueError(f"component_intervals must have shape (m, 2) with 1 <= m <= {self.fpca.m}")
        if (intervals[:, 0] > intervals[:, 1]).any():
            raise ValueError("each interval must satisfy lower <= upper")
        object.__setattr__(self, "component_intervals", intervals)

    def _box_image(self, extreme) -> Curve:
        # exact pointwise extremes of sum_j a_j * phi_j over the coefficient box:
        # where a component is negative its interval endpoints swap roles
        phi = self.fpca.components[: len(self.component_intervals)]
        ends = self.component_intervals.T[:, :, None] * phi  # (2, m, p): each endpoint times phi_j
        return self.fpca.mean.with_values(self.fpca.mean.values + extreme(*ends).sum(axis=0))

    @cached_property
    def envelope_lower(self) -> Curve:
        return self._box_image(np.minimum)

    @cached_property
    def envelope_upper(self) -> Curve:
        return self._box_image(np.maximum)


def _draw_v(rng: np.random.Generator, shape: int | tuple[int, ...]) -> FloatArray:
    return np.where(rng.random(shape) < V_LOW_PROB, V_LOW, V_HIGH)


def quantile_levels(alpha: float, m: int) -> tuple[float, float]:
    """Bonferroni-split per-coordinate quantile levels."""
    return alpha / (2 * m), 1.0 - alpha / (2 * m)


def _nearest_rank(level: float, b: int) -> int:
    """Index of the empirical quantile among b sorted values, by the
    nearest-rank (ceiling) convention."""
    return min(max(int(math.ceil(level * b)), 1), b) - 1


def bootstrap_bands(
    sample: Sequence[CurvePair],
    model: FittedRegression,
    x: Curve,
    fpca_model: FpcaModel,
    config: WildBootstrapConfig,
) -> BootstrapBand:
    """Confidence band for the projected regression operator at ``x``.

    ``model`` must be fitted on ``sample`` (its neighbor count already
    selected) and ``fpca_model`` on the sample's responses. Only the pairs of
    non-zero weight at ``x`` enter: each one's fitted curve is the model's
    prediction at its own predictor, its residual the response minus that.
    """
    m = config.components
    if m > fpca_model.m:
        raise ValueError(
            f"config asks for {m} components but the FPCA model holds {fpca_model.m}"
        )
    low_level, high_level = quantile_levels(config.alpha, m)
    if config.replicates * min(low_level, 1.0) < 1.0:
        raise ValueError(
            f"B={config.replicates} replicates cannot resolve the "
            f"{low_level} quantile; increase B to at least "
            f"{int(math.ceil(1.0 / low_level))}"
        )

    if len(sample) != len(model) or not all(  # pair by pair: the model's own pass unread, others on equal bits
        s is p or (s.predictor.values.tobytes(), s.response.values.tobytes())
        == (p.predictor.values.tobytes(), p.response.values.tobytes()) for s, p in zip(sample, model.pairs)
    ):
        raise ValueError("the model must be fitted on the given sample")
    if not fpca_model.grid.matches(model.response_grid):
        raise ValueError("the FPCA model is not on the regression's response grid")

    support, weights = prediction_weights(model, x)  # only these pairs enter a replicate
    fitted = predict_many(model, model.predictor_matrix[support])
    projector = trapezoid_weights(fpca_model.grid.points) * fpca_model.components[:m]  # (m, p)
    point = projector @ (weights @ fitted - fpca_model.mean.values)
    own = (model.response_matrix[support] - fitted) @ projector.T  # (|S|, m)
    b = config.replicates
    v = _draw_v(np.random.default_rng(config.seed), (b, support.size))
    coords = np.sort(point + (v * weights) @ own, axis=0)  # (B, m), each column sorted
    intervals = coords[[_nearest_rank(low_level, b), _nearest_rank(high_level, b)]].T
    return BootstrapBand(intervals, fpca_model, config.alpha, config.replicates)
