"""Local quadratic polynomial smoothing of noisy spectra.

At each output wavelength a quadratic is fitted by weighted least squares to
the span-nearest samples, with tricube weights on the distance normalized by
the window radius; the fitted intercept is the smoothed value. The span (the
fraction of in-range samples per window) is selected by 2-fold CV on
interleaved even/odd folds, or used as given when it is the one candidate.

Wavelengths increase strictly, so a point's q nearest samples are
consecutive and the window radius is the least, over runs of q samples, of
the larger end distance. Where fewer than three samples lie strictly inside
the radius (the tricube vanishes there), it is raised to the next larger
distance, the least widening that gives three whatever the ties; a noiseless
quadratic is then reproduced exactly for every admissible span. Weighted
moments of the scaled offsets give, by cofactors (by least squares where
ill-conditioned), the fit's weight on each sample. These weights depend only
on the sample wavelengths, the output points and the span, so spectra
sampled alike are smoothed as one (spectra, samples) block: one set of
weights per (span, CV fold), then one matrix-vector product per spectrum,
which gives each spectrum bit for bit what it gets alone. The noise-sd
column is not a fitting weight.

The API works on such blocks: ``span_cv_table`` scores each candidate
span, ``select_spans`` picks one per row and ``smooth_block`` smooths;
``pipeline.smooth_spectra`` groups raw spectra into blocks.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .curves import FloatArray, RawSpectrum, WavelengthGrid

# relative slack under which candidate CV scores count as tied
_CV_TIE_RTOL = 1e-9

# in-range samples needed to smooth: three per coefficient of the local
# quadratic, and for span CV enough that each even/odd fold keeps ten
MIN_SMOOTH_SAMPLES = 9
MIN_CV_SAMPLES = 20

# least det / diagonal product of a moment matrix solved by cofactors
_ILL_CONDITIONED = 1e-6


def in_range(spectrum: RawSpectrum, wl_range: tuple[float, float]) -> tuple[FloatArray, FloatArray]:
    """The wavelengths and fluxes of the samples inside ``wl_range``."""
    low, high = wl_range
    mask = (spectrum.wavelengths >= low) & (spectrum.wavelengths <= high)
    return spectrum.wavelengths[mask], spectrum.flux[mask]


def _fit_values(
    lam: FloatArray, flux: FloatArray, out: FloatArray, span: float
) -> FloatArray:
    """Local quadratic fits of (N, samples) flux rows at ``out``: (N, outputs)."""
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

    # scaled offsets keep the moment matrices well conditioned and make the
    # intercept the fit at the output point. Buffers are reused and moments
    # taken one power at a time: each fresh (out, samples) array page-faults.
    t = np.divide(offset, scale[:, None], out=offset)
    u = np.minimum(np.abs(t, out=dist), 1.0, out=dist)
    w = u * u
    w *= u
    np.subtract(1.0, w, out=w)  # 1 - u**3
    w *= np.multiply(w, w, out=u)  # tricube (1 - u**3)**3
    wt = np.multiply(w, t, out=u)
    s0, s1 = w.sum(axis=1), wt.sum(axis=1)
    s2, s3, s4 = (np.multiply(wt, t, out=wt).sum(axis=1) for _ in range(3))
    # first row of the inverse moment matrix, by cofactors: the intercept is
    # sum_j w_j (c0 + c1 t_j + c2 t_j**2) f_j
    c0, c1, c2 = s2 * s4 - s3 * s3, s2 * s3 - s1 * s4, s1 * s3 - s2 * s2
    det = s0 * c0 + s1 * c1 + s2 * c2
    # the moment matrix squares the fit's conditioning: where its diagonally
    # scaled condition number may pass 7 / _ILL_CONDITIONED, the weights come
    # from least squares on the window's positive-weight samples instead
    ill = np.flatnonzero(~(det > _ILL_CONDITIONED * s0 * s2 * s4))
    det[ill] = 1.0
    hat = np.multiply(t, (c2 / det)[:, None], out=wt)
    hat += (c1 / det)[:, None]
    hat *= t
    hat += (c0 / det)[:, None]
    hat *= w
    for r in ill:
        inside = w[r] > 0.0
        root_w = np.sqrt(w[r, inside])
        design = np.vander(t[r, inside], 3, increasing=True) * root_w[:, None]
        coef, _, rank, _ = np.linalg.lstsq(design, np.diag(root_w), rcond=None)
        if rank < 3:
            raise ValueError(f"singular local fit at wavelength {out[r]}")
        hat[r, inside] = coef[0]  # hat[r] is 0 where w[r] is
    # one matrix-vector product per row, so no row affects another's bits
    return np.matmul(hat, flux[:, :, None])[:, :, 0]


def smooth_block(
    lam: FloatArray, flux: FloatArray, wl_range: tuple[float, float], spans: Sequence[float], output_grid: WavelengthGrid
) -> FloatArray:
    """Smooth each row of an (N, samples) flux block, sampled at ``lam``, onto
    ``output_grid`` with the row's span, in one kernel call per span. Needs
    ``MIN_SMOOTH_SAMPLES`` samples and an output grid inside ``wl_range``."""
    if lam.size < MIN_SMOOTH_SAMPLES:
        raise ValueError(f"smoothing needs at least {MIN_SMOOTH_SAMPLES} samples, found {lam.size}")
    if output_grid.low < wl_range[0] or output_grid.high > wl_range[1]:
        raise ValueError("output grid extends beyond the smoothing range")
    spans = np.asarray(spans, dtype=float)
    values = np.empty((flux.shape[0], len(output_grid)))
    for span in dict.fromkeys(spans.tolist()):
        values[spans == span] = _fit_values(lam, flux[spans == span], output_grid.points, span)
    return values


def span_cv_table(lam: FloatArray, flux: FloatArray, spans: Sequence[float]) -> FloatArray:
    """Symmetrized 2-fold CV error of each flux row for each span, (N, spans).

    Samples are split into interleaved even/odd-index folds; each fold is
    fitted and scored on the other, and the two squared-error totals are
    summed. A span whose fit fails (which depends on ``lam`` alone) scores
    infinity."""
    if lam.size < MIN_CV_SAMPLES:
        raise ValueError(f"span cross-validation needs at least {MIN_CV_SAMPLES} samples, found {lam.size}")
    even = np.arange(lam.size) % 2 == 0
    table = np.zeros((flux.shape[0], len(spans)))
    for i, span in enumerate(spans):
        for fit_mask, score_mask in ((even, ~even), (~even, even)):
            try:
                pred = _fit_values(lam[fit_mask], flux[:, fit_mask], lam[score_mask], span)
            except ValueError:
                table[:, i] = np.inf
                break
            table[:, i] += np.sum((pred - flux[:, score_mask]) ** 2, axis=1)
    return table


def select_spans(lam: FloatArray, flux: FloatArray, spans: Sequence[float]) -> list[float]:
    """The span minimizing each flux row's 2-fold CV error, or the one span
    given, used without CV. Scores within a small relative slack of the row's
    minimum count as tied; ties go to the largest span, whatever the order."""
    if len(spans) == 1:
        return [float(spans[0])] * len(flux)
    table = span_cv_table(lam, flux, spans)
    best = table.min(axis=1, keepdims=True)
    if not np.isfinite(best).all():
        raise ValueError("every candidate span failed to fit")
    tied = table <= best + _CV_TIE_RTOL * (1.0 + best)
    return np.where(tied, np.asarray(spans, dtype=float), -np.inf).max(axis=1).tolist()
