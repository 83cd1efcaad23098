"""Mock quasar spectrum generation.

A mock is a mean curve plus a Gaussian combination of orthonormal
eigenspectra plus heteroskedastic pointwise noise; no absorption is
simulated, so the noise-free part of each realization is the true continuum
that predictions are judged against. The model is built synthetically:
Gaussian emission-line bumps on a shallow power law for the mean, geometric
eigenvalue decay, a noise-sd curve inflated toward the grid edges and
Gram-Schmidt orthonormalized damped cosines for the eigenspectra, the rows of
one read-only (m, p) array on the mean's grid.
``generate`` returns an immutable sequence, safe to share between threads,
that draws each realization when it is read, as scaled standard normals
(``Generator.normal``'s bits); a realization's noise is drawn, from the same
generator, when its ``.noisy`` is first read.
``save_model`` writes the model out as curve files next to the mocks.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .curves import (
    Curve,
    FloatArray,
    RawSpectrum,
    WavelengthGrid,
    frozen_array,
    nearest_index,
    shared_grid,
    trapezoid_weights,
)

# Gaussian emission-line bumps for the synthetic mean: (center, amplitude, width)
_MEAN_BUMPS = (
    (1216.0, 0.55, 22.0),
    (1240.0, 0.22, 14.0),
    (1400.0, 0.18, 20.0),
    (1549.0, 0.38, 22.0),
    (1122.0, 0.08, 12.0),
)
_POWER_LAW_SLOPE = -0.6
_EDGE_NOISE_BOOST = 2.0


@dataclass(frozen=True, eq=False)
class MockModel:
    """Mean curve, eigenspectra (one row each), eigenvalues and noise-sd curve on one grid."""

    mu: Curve
    xi: FloatArray  # (m, p)
    eigenvalues: FloatArray
    sigma: Curve

    def __post_init__(self) -> None:
        shared_grid([self.mu, self.sigma], "model curves")
        xi = frozen_array(self.xi, "eigenspectra", ndim=2)
        if xi.shape[1] != len(self.grid) or not np.isfinite(xi).all():
            raise ValueError(f"eigenspectra must be finite rows of {len(self.grid)} values, one per grid point")
        eig = frozen_array(self.eigenvalues, "eigenvalues")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "eigenvalues", eig)
        if eig.size != len(xi):
            raise ValueError("one eigenvalue per eigenspectrum is required")
        if (eig < 0.0).any():
            raise ValueError("eigenvalues must be non-negative")
        if (self.sigma.values < 0.0).any():
            raise ValueError("noise sd must be non-negative")

    @property
    def grid(self) -> WavelengthGrid:
        return self.mu.grid


@dataclass(frozen=True, eq=False)
class MockRealization:
    """One generated spectrum; its noise is drawn from ``rng`` when ``noisy`` is
    first read, once however many threads race to read it, and ``rng`` is then dropped."""

    true_continuum: Curve
    omega: FloatArray
    noise_sd: FloatArray
    rng: np.random.Generator | None = field(repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega", frozen_array(self.omega, "omega"))

    @property
    def noisy(self) -> RawSpectrum:
        noisy = self.__dict__.get("_noisy")
        if noisy is None:
            with self._lock:  # check-then-draw: a second reader must not draw again
                noisy = self.__dict__.get("_noisy")
                if noisy is None:
                    continuum = self.true_continuum
                    flux = continuum.values + self.noise_sd * self.rng.standard_normal(self.noise_sd.size)
                    noisy = RawSpectrum(continuum.grid.points, flux, self.noise_sd, 0.0)
                    self.__dict__["_noisy"] = noisy
                    object.__setattr__(self, "rng", None)
        return noisy


@dataclass(frozen=True, eq=False)
class Realizations:
    """What ``generate`` returns: ``count`` realizations, each drawn when it is read."""

    model: MockModel
    count: int
    seed: int

    def __post_init__(self) -> None:
        for name, value, low in (("count", self.count, 1), ("seed", self.seed, 0)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"{name} must be at least {low} and an integer, got {value!r}")
        object.__setattr__(self, "_scales", np.sqrt(self.model.eigenvalues))

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: int | slice) -> MockRealization | list[MockRealization]:
        i = range(self.count)[index]  # negative indices, slices and IndexError as for a list
        if isinstance(i, range):
            return [self[j] for j in i]
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(i,)))
        omega = 0.0 + self._scales * rng.standard_normal(self._scales.size)  # normal(0.0, s)'s bits, +0.0 kept
        continuum = self.model.mu.values + self.model.xi.T @ omega
        return MockRealization(Curve(self.model.grid, continuum), omega, self.model.sigma.values, rng)


def generate(model: MockModel, count: int, seed: int) -> Realizations:
    """``count`` realizations as an immutable, thread-safe sequence drawn on read.

    Component scores are standard normals times the square roots of the model
    eigenvalues, then the noise standard normals times its sd curve: the bits
    ``Generator.normal`` draws. Item i is drawn from the i-th child of
    ``SeedSequence(seed)`` each time it is read: a re-read draws the same bits
    again, and ``list(...)`` holds the draws. An item's noise is drawn, from
    the generator that drew its scores, when its ``.noisy`` is first read, so a
    caller that reads only ``true_continuum`` never draws it.
    """
    return Realizations(model, count, seed)


def synthetic_model(
    grid: WavelengthGrid,
    n_components: int = 10,
    eigenvalue_decay: float = 0.5,
    variance_scale: float = 2.5,
    noise_level: float = 0.05,
    seed: int = 0,
    normalization_wavelength: float = 1300.0,
) -> MockModel:
    """Build a self-contained mock model on the given full-range grid.

    The mean is normalized to 1 at the grid point nearest
    ``normalization_wavelength``; eigenvalues decay geometrically (the
    default rate puts the leading five components at roughly 97% of the
    total variance); the eigenspectra are seeded random-phase damped cosines
    made exactly orthonormal under the trapezoid inner product.
    """
    if n_components < 1:
        raise ValueError("n_components must be at least 1")
    if eigenvalue_decay <= 0.0:
        raise ValueError("eigenvalue_decay must be positive")
    if noise_level < 0.0:
        raise ValueError("noise_level must be non-negative")

    lam = grid.points
    t = (lam - lam[0]) / (lam[-1] - lam[0])
    mu = (lam / normalization_wavelength) ** _POWER_LAW_SLOPE
    for center, amp, width in _MEAN_BUMPS:
        mu = mu + amp * np.exp(-0.5 * ((lam - center) / width) ** 2)
    mu = mu / mu[nearest_index(grid, normalization_wavelength)]

    w = trapezoid_weights(lam)
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * math.pi, n_components)
    basis = np.empty((n_components, len(lam)))
    for j in range(n_components):
        v = (1.0 - 0.35 * t + 0.2 * t * t) * np.cos(math.pi * (j + 1) * t + phases[j])
        for b in basis[:j]:
            v = v - float(np.sum(w * v * b)) * b
        norm = math.sqrt(float(np.sum(w * v * v)))
        if norm < 1e-8:
            raise ValueError(f"cannot orthonormalize component {j + 1} on a {len(grid)}-point grid")
        basis[j] = v / norm

    eigenvalues = variance_scale * eigenvalue_decay ** np.arange(n_components)
    edge = 2.0 * (lam - (lam[0] + lam[-1]) / 2.0) / (lam[-1] - lam[0])
    sigma = noise_level * (1.0 + _EDGE_NOISE_BOOST * edge * edge)

    return MockModel(Curve(grid, mu), basis, eigenvalues, Curve(grid, sigma))


def save_model(model: MockModel, directory) -> Path:
    """Write the model as one curve file per component plus a manifest.

    Returns the manifest path. Curve files reuse the spectrum text format
    with the flux column holding the component values.
    """
    from . import fileio

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    fileio.write_curve(directory / "mean.csv", model.mu)
    fileio.write_curve(directory / "noise_sd.csv", model.sigma)
    components = []
    for j, (component, eigenvalue) in enumerate(zip(model.xi, model.eigenvalues), 1):
        name = f"component_{j:02d}.csv"
        fileio.write_curve(directory / name, Curve(model.grid, component))
        components.append({"path": name, "eigenvalue": float(eigenvalue)})
    manifest = directory / "mock_model.json"
    fileio._dump_json(
        "mock_model", {"mean_path": "mean.csv", "sigma_path": "noise_sd.csv", "components": components}, manifest
    )
    return manifest
