"""Local quadratic polynomial smoothing of noisy spectra.

At each output wavelength a quadratic is fitted by weighted least squares to
the span-nearest samples, with tricube weights on the distance normalized by
the window radius; the fitted intercept is the smoothed value. The span (the
fraction of in-range samples per window) is selected by 2-fold
cross-validation on interleaved even/odd folds.

Wavelengths increase strictly, so a point's q nearest samples are
consecutive and the window radius is the least, over runs of q samples, of
the larger end distance. Where fewer than three samples lie strictly inside
the radius (the tricube vanishes there), it is raised to the next larger
distance, the least widening that gives three whatever the ties; a noiseless
quadratic is then reproduced exactly for every admissible span. Weighted
moments of the scaled offsets give the normal equations, solved as one
batch. The noise-sd column of the input spectrum is not a fitting weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import Curve, FloatArray, RawSpectrum, WavelengthGrid

# relative slack under which candidate CV scores count as tied
_CV_TIE_RTOL = 1e-9

_DEFAULT_SPANS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

# in-range samples needed to smooth: three per coefficient of the local
# quadratic, and for span CV enough that each even/odd fold keeps ten
MIN_SMOOTH_SAMPLES = 9
MIN_CV_SAMPLES = 20


@dataclass(frozen=True)
class SmootherConfig:
    """Local-fit settings: span and the span CV candidates."""

    span: float = 0.5
    candidate_spans: tuple[float, ...] = _DEFAULT_SPANS

    def __post_init__(self) -> None:
        if not 0.0 < self.span <= 1.0:
            raise ValueError("span must be in (0, 1]")
        if len(self.candidate_spans) == 0:
            raise ValueError("candidate_spans must not be empty")
        for s in self.candidate_spans:
            if not 0.0 < s <= 1.0:
                raise ValueError("every candidate span must be in (0, 1]")


def _in_range(
    spectrum: RawSpectrum, wl_range: tuple[float, float]
) -> tuple[FloatArray, FloatArray]:
    low, high = wl_range
    if low >= high:
        raise ValueError(f"empty wavelength range [{low}, {high}]")
    mask = (spectrum.wavelengths >= low) & (spectrum.wavelengths <= high)
    return spectrum.wavelengths[mask], spectrum.flux[mask]


def _fit_values(
    lam: FloatArray, flux: FloatArray, out: FloatArray, span: float
) -> FloatArray:
    """Evaluate the local quadratic fit at each output wavelength."""
    m = lam.size
    q = min(m, max(4, int(np.ceil(span * m))))
    offset = lam[None, :] - out[:, None]
    dist = np.abs(offset)
    # q-th nearest distance: least far-end distance over runs of q samples
    scale = np.maximum(dist[:, : m - q + 1], dist[:, q - 1 :]).min(axis=1)
    # fewer than 3 samples strictly inside (positive weight): next distance up
    short = np.count_nonzero(dist < scale[:, None], axis=1) < 3
    scale[short] = np.where(dist[short] > scale[short, None], dist[short], np.inf).min(axis=1)
    if np.isinf(scale).any():
        raise ValueError(
            f"singular local fit at wavelength {out[np.isinf(scale)][0]}: fewer "
            "than 3 samples carry positive weight"
        )

    # scaled offsets keep the normal equations well conditioned and make the
    # intercept the fit at the output point. Buffers are reused and moments
    # taken one power at a time: each fresh (out, samples) array page-faults.
    t = np.divide(offset, scale[:, None], out=offset)
    u = np.minimum(np.abs(t, out=dist), 1.0, out=dist)
    w = u * u
    w *= u
    np.subtract(1.0, w, out=w)  # 1 - u**3
    w *= np.multiply(w, w, out=u)  # tricube (1 - u**3)**3
    basis = np.stack([np.ones_like(flux), flux], axis=1)
    sums = np.empty((5, out.size, 2))
    for k in range(5):
        sums[k] = w @ basis
        w *= t
    normal = sums[:, :, 0].T[:, [[0, 1, 2], [1, 2, 3], [2, 3, 4]]]
    try:
        beta = np.linalg.solve(normal, sums[:3, :, 1].T[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        # slogdet runs the LU that solve ran; its sign is 0 on the failed rows
        r = np.flatnonzero(np.linalg.slogdet(normal)[0] == 0)[0]
        raise ValueError(f"singular local fit at wavelength {out[r]}") from None
    return beta[:, 0]


def smooth(
    spectrum: RawSpectrum,
    wl_range: tuple[float, float],
    config: SmootherConfig,
    output_grid: WavelengthGrid,
) -> Curve:
    """Smooth the in-range samples onto ``output_grid``.

    Requires at least ``MIN_SMOOTH_SAMPLES`` samples inside ``wl_range`` and
    an output grid contained in it.
    """
    lam, flux = _in_range(spectrum, wl_range)
    if lam.size < MIN_SMOOTH_SAMPLES:
        raise ValueError(
            f"need at least {MIN_SMOOTH_SAMPLES} samples in "
            f"[{wl_range[0]}, {wl_range[1]}], found {lam.size}"
        )
    if output_grid.low < wl_range[0] or output_grid.high > wl_range[1]:
        raise ValueError("output grid extends beyond the smoothing range")
    return Curve(output_grid, _fit_values(lam, flux, output_grid.points, config.span))


def cv_scores(
    spectrum: RawSpectrum, wl_range: tuple[float, float], config: SmootherConfig
) -> list[tuple[float, float]]:
    """Symmetrized 2-fold CV error for each candidate span.

    Samples are split into interleaved even/odd-index folds; each fold is
    fitted and scored on the other, and the two squared-error totals are
    summed. Candidates whose fit fails score infinity.
    """
    lam, flux = _in_range(spectrum, wl_range)
    if lam.size < MIN_CV_SAMPLES:
        raise ValueError(
            f"span cross-validation needs at least {MIN_CV_SAMPLES} samples in "
            f"range, found {lam.size}"
        )
    even = np.arange(lam.size) % 2 == 0
    folds = [(even, ~even), (~even, even)]
    table: list[tuple[float, float]] = []
    for span in config.candidate_spans:
        total = 0.0
        for fit_mask, score_mask in folds:
            try:
                pred = _fit_values(lam[fit_mask], flux[fit_mask], lam[score_mask], span)
            except ValueError:
                total = np.inf
                break
            total += float(np.sum((pred - flux[score_mask]) ** 2))
        table.append((float(span), total))
    return table


def select_span_cv(
    spectrum: RawSpectrum, wl_range: tuple[float, float], config: SmootherConfig
) -> float:
    """Pick the candidate span minimizing the 2-fold CV error.

    Scores within a small relative slack of the minimum count as tied, and
    ties go to the largest span; the outcome does not depend on the order of
    ``candidate_spans``.
    """
    table = cv_scores(spectrum, wl_range, config)
    best = min(score for _, score in table)
    if not np.isfinite(best):
        raise ValueError("every candidate span failed to fit")
    cutoff = best + _CV_TIE_RTOL * (1.0 + best)
    return max(span for span, score in table if score <= cutoff)
