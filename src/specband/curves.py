"""Sampled-function data model: wavelength grids, curves, raw spectra.

Every quantity downstream (predictors, responses, predictions, band
envelopes) is a function sampled on a shared wavelength grid; this module
owns that representation plus the rest-frame conversion and the handful of
curve operations everything else builds on. All types are immutable after
construction and safe to share between threads.

Values hold their samples in float64 arrays over immutable ``bytes`` buffers
(:func:`frozen_array`), which numpy will not make writable again. Objects
share such arrays; anything else is copied once, so a caller's later writes
never reach a value. Call ``.copy()`` for a writable array. Each value check
is one pass over the samples: ``isfinite(x).all()``, ``(x[1:] > x[:-1]).all()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]
_FLOAT64 = np.dtype(np.float64)

# the one number rule for outside input: a real that is not a bool, and an int only
# if a float holds it, the range RFC 8259 section 6 tells a JSON reader to expect
_INT_LIMIT = 2**1024 - 2**970  # the least integer float() rounds to infinity


def are_numbers(values) -> bool:
    """Whether ``values`` is a list of numbers: one C-level pass over the types, one over any ints."""
    if not isinstance(values, list):
        return False
    types = set(map(type, values))
    return all(issubclass(t, Real) and t is not bool for t in types) and (
        int not in types or all(-_INT_LIMIT < v < _INT_LIMIT for v in values if type(v) is int))


def frozen_array(values, name: str, ndim: int = 1) -> FloatArray:
    """``values`` as a C-ordered float64 array over an immutable ``bytes`` buffer:
    the array itself when it already is one, else a copy (module docstring)."""
    arr = values if type(values) is np.ndarray and values.dtype is _FLOAT64 else np.asarray(values, np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional")
    if isinstance(arr.base, bytes) and arr.flags.c_contiguous:
        return arr
    return np.ndarray(arr.shape, np.float64, arr.tobytes())


@dataclass(frozen=True, eq=False)
class WavelengthGrid:
    """Strictly increasing, positive, finite wavelengths in angstroms."""

    points: FloatArray

    def __post_init__(self) -> None:
        pts = frozen_array(self.points, "grid points")
        if pts.size < 2:
            raise ValueError("a wavelength grid needs at least 2 points")
        if not np.isfinite(pts).all():
            raise ValueError("grid points must be finite")
        if (pts <= 0.0).any():
            raise ValueError("grid points must be positive")
        if not (pts[1:] > pts[:-1]).all():
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, low: float, high: float, count: int) -> "WavelengthGrid":
        return cls(np.linspace(low, high, count))

    def __len__(self) -> int:
        return int(self.points.size)

    @property
    def low(self) -> float:
        return float(self.points[0])

    @property
    def high(self) -> float:
        return float(self.points[-1])

    def matches(self, other: "WavelengthGrid") -> bool:
        return self is other or (
            self.points.shape == other.points.shape
            and bool(np.array_equal(self.points, other.points))
        )


@dataclass(frozen=True, eq=False)
class Curve:
    """A function sampled on a wavelength grid (normalized flux units)."""

    grid: WavelengthGrid
    values: FloatArray

    def __post_init__(self) -> None:
        vals = frozen_array(self.values, "curve values")
        if vals.size != len(self.grid):
            raise ValueError(
                f"curve has {vals.size} values for a {len(self.grid)}-point grid"
            )
        if not np.isfinite(vals).all():
            raise ValueError("curve values must be finite")
        object.__setattr__(self, "values", vals)

    def with_values(self, values) -> "Curve":
        return Curve(self.grid, values)


@dataclass(frozen=True, eq=False)
class RawSpectrum:
    """Irregular noisy samples (wavelength, flux, noise sd) before smoothing.

    The noise-sd column travels with the samples but is ignored by the
    smoother; ``redshift`` is the source redshift, zero once the spectrum has
    been moved to the rest frame.
    """

    wavelengths: FloatArray
    flux: FloatArray
    noise_sd: FloatArray
    redshift: float = 0.0

    def __post_init__(self) -> None:
        wl = frozen_array(self.wavelengths, "wavelengths")
        fx = frozen_array(self.flux, "flux")
        sd = frozen_array(self.noise_sd, "noise_sd")
        if wl.size < 10:
            raise ValueError("a raw spectrum needs at least 10 samples")
        if fx.size != wl.size or sd.size != wl.size:
            raise ValueError("wavelengths, flux and noise_sd must have equal length")
        if not (np.isfinite(wl).all() and np.isfinite(fx).all() and np.isfinite(sd).all()):
            raise ValueError("spectrum samples must be finite")
        if not (wl[1:] > wl[:-1]).all():
            raise ValueError("sample wavelengths must be strictly increasing")
        if (sd < 0.0).any():
            raise ValueError("noise sd must be non-negative")
        if not (are_numbers([self.redshift]) and 0.0 <= self.redshift < np.inf):
            raise ValueError("redshift must be a finite non-negative number")
        object.__setattr__(self, "wavelengths", wl)
        object.__setattr__(self, "flux", fx)
        object.__setattr__(self, "noise_sd", sd)
        object.__setattr__(self, "redshift", float(self.redshift))

    def __len__(self) -> int:
        return int(self.wavelengths.size)


@dataclass(frozen=True, eq=False)
class CurvePair:
    """A (predictor, response) pair on disjoint wavelength ranges.

    The predictor lives redward of the response: predictor grid min must be
    at or above the response grid max.
    """

    predictor: Curve
    response: Curve

    def __post_init__(self) -> None:
        if self.predictor.grid.low < self.response.grid.high:
            raise ValueError(
                "predictor grid must start at or above the response grid end "
                f"({self.predictor.grid.low} < {self.response.grid.high})"
            )


def to_rest_frame(spectrum: RawSpectrum) -> RawSpectrum:
    """Divide every wavelength by (1 + z); fluxes and noise sds unchanged.

    Idempotent after the first application since the result carries z = 0.
    """
    if spectrum.redshift == 0.0:
        return spectrum
    return RawSpectrum(
        wavelengths=spectrum.wavelengths / (1.0 + spectrum.redshift),
        flux=spectrum.flux,
        noise_sd=spectrum.noise_sd,
        redshift=0.0,
    )


def resample(curve: Curve, target: WavelengthGrid) -> Curve:
    """Linearly interpolate a curve onto a target grid.

    Exact (bitwise) when the target equals the source grid; raises when any
    target wavelength falls outside the source range.
    """
    if curve.grid.matches(target):
        return Curve(target, curve.values)
    src = curve.grid.points
    if target.low < src[0]:
        raise ValueError(
            f"cannot resample: target wavelength {target.low} below curve range "
            f"[{src[0]}, {src[-1]}]"
        )
    if target.high > src[-1]:
        raise ValueError(
            f"cannot resample: target wavelength {target.high} above curve range "
            f"[{src[0]}, {src[-1]}]"
        )
    return Curve(target, np.interp(target.points, src, curve.values))


def sup_distance(a: Curve, b: Curve) -> float:
    """Sup-norm distance max over the shared grid of |a - b|."""
    shared_grid([a, b], "curves")
    return float(np.max(np.abs(a.values - b.values)))


def shared_grid(curves, what: str) -> WavelengthGrid:
    """The one grid every curve in a non-empty ``curves`` is sampled on."""
    grid = curves[0].grid
    if not all(c.grid.matches(grid) for c in curves[1:]):
        raise ValueError(f"all {what} must share one grid")
    return grid


def nearest_index(grid: WavelengthGrid, wavelength: float) -> int:
    """Index of the grid point closest to the given wavelength."""
    return int(np.argmin(np.abs(grid.points - wavelength)))


def trapezoid_weights(points: FloatArray) -> FloatArray:
    """Quadrature weights so that w @ f equals the trapezoid integral of f."""
    pts = np.asarray(points, dtype=np.float64)
    w = np.empty_like(pts)
    w[0] = (pts[1] - pts[0]) / 2.0
    w[-1] = (pts[-1] - pts[-2]) / 2.0
    w[1:-1] = (pts[2:] - pts[:-2]) / 2.0
    return w
