"""Configuration and the wiring from raw spectra to fitted curve pairs.

One config object drives every CLI command; each field is a JSON config
key, a command's flags override the fields it reads, and the model file
records the fields predict and bootstrap take from fit. The predictor
segment lives redward of 1300 A, the response segment on 1050-1185 A, and
both smoothed curves are divided by the predictor's value at the grid point
nearest the normalization wavelength before entering the regression.
``smooth_spectra`` is the one way from raw spectra to those curves.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .conformal import MIN_PAIRS
from .curves import Curve, CurvePair, RawSpectrum, WavelengthGrid, are_numbers, nearest_index, to_rest_frame
from .regression import FittedRegression, KernelSpec, fit_kappa
from .semimetrics import SemimetricSpec
from .smoothing import in_range, select_spans, smooth_block


@dataclass(frozen=True)
class PipelineConfig:
    predictor_range: tuple[float, float] = (1300.0, 1600.0)
    response_range: tuple[float, float] = (1050.0, 1185.0)
    predictor_points: int = 300
    response_points: int = 200
    normalization_wavelength: float = 1300.0
    semimetric: str = "l2"
    kappa_candidates: tuple[int, ...] = (2, 4, 8, 16, 32)
    span_candidates: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    alpha: float = 0.1
    bootstrap_replicates: int = 500
    bootstrap_components: int = 5
    seed: int = 0
    mock_count: int = 100
    mock_grid_points: int = 551
    mock_components: int = 10
    mock_eigenvalue_decay: float = 0.5
    mock_variance_scale: float = 2.5
    mock_noise_level: float = 0.05

    def __post_init__(self) -> None:
        if self.response_range[1] >= self.predictor_range[0]:
            raise ValueError(
                "response range must end strictly below the predictor range"
            )
        for low, high in (self.predictor_range, self.response_range):
            if low >= high:
                raise ValueError(f"empty wavelength range [{low}, {high}]")
        for name in ("predictor_points", "response_points", "mock_grid_points"):
            if getattr(self, name) < 2:
                raise ValueError(f"config key {name!r} must be at least 2, got {getattr(self, name)}")
        sizes = [(name, getattr(self, name)) for name in (
            "predictor_points", "response_points", "mock_grid_points", "mock_count", "mock_components",
            "bootstrap_replicates", "bootstrap_components")]
        sizes += [("kappa_candidates", kappa) for kappa in self.kappa_candidates]
        for name, value in sizes:
            if value > sys.maxsize:  # no array or index holds more
                raise ValueError(f"config key {name!r} must be at most sys.maxsize ({sys.maxsize})")
        for name, valid, rule in (("mock_components", self.mock_components >= 1, "at least 1"),
                                  ("mock_eigenvalue_decay", 0.0 < self.mock_eigenvalue_decay < np.inf, "finite and positive"),
                                  ("mock_variance_scale", 0.0 <= self.mock_variance_scale < np.inf, "finite and non-negative")):
            if not valid:
                raise ValueError(f"config key {name!r} must be {rule}, got {getattr(self, name)}")
        if not self.predictor_range[0] <= self.normalization_wavelength <= self.predictor_range[1]:
            raise ValueError("config key 'normalization_wavelength' must lie in predictor_range "
                             f"{list(self.predictor_range)}, got {self.normalization_wavelength}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if min(self.kappa_candidates, default=0) < 1:
            raise ValueError("every kappa candidate (at least one) must be at least 1, "
                             f"got kappa_candidates={self.kappa_candidates}")
        SemimetricSpec(self.semimetric)
        if not self.span_candidates:
            raise ValueError("span_candidates must not be empty")
        if not all(0.0 < s <= 1.0 for s in self.span_candidates):
            raise ValueError("every candidate span must be in (0, 1]")

    def predictor_grid(self) -> WavelengthGrid:
        return WavelengthGrid.uniform(*self.predictor_range, self.predictor_points)

    def response_grid(self) -> WavelengthGrid:
        return WavelengthGrid.uniform(*self.response_range, self.response_points)

    def mock_grid(self) -> WavelengthGrid:
        return WavelengthGrid.uniform(
            self.response_range[0], self.predictor_range[1], self.mock_grid_points
        )


# recorded in the model file: the model's grids and semimetric, and how a query is treated
MODEL_SETTINGS = ("predictor_range", "response_range", "predictor_points", "response_points",
                  "normalization_wavelength", "semimetric", "kappa_candidates", "span_candidates")

_FIELD_TYPES = {f.name: type(f.default) for f in dataclasses.fields(PipelineConfig)}
# a tuple field's items take the type of its default's items
_TUPLE_FIELDS = {f.name: type(f.default[0]) for f in dataclasses.fields(PipelineConfig) if _FIELD_TYPES[f.name] is tuple}


def _check_type(name: str, value, kind: type) -> None:
    """Type check on JSON values: a float must be a number (``curves.are_numbers``), a bool passes as nothing."""
    if not (are_numbers([value]) if kind is float else isinstance(value, kind) and not isinstance(value, bool)):
        raise ValueError(f"config key {name!r} needs {kind.__name__} values, got {value!r}")


def load_config(path: Path | None = None, **overrides) -> PipelineConfig:
    """Config from an optional JSON file, updated with keyword overrides.

    Overrides whose value is None are ignored, so CLI flags can be passed
    through unconditionally. A value of the wrong type is a ``ValueError``
    naming its key.
    """
    values: dict = {}
    if path is not None:
        try:
            with open(path) as handle:
                values = json.load(handle)
        except ValueError as err:  # not UTF-8, or not JSON
            raise ValueError(f"{path}: {err}") from None
        if not isinstance(values, dict):
            raise ValueError(f"{path}: config must be a JSON object, not a {type(values).__name__}")
    values.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(values) - set(_FIELD_TYPES)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for name, value in values.items():
        if name in _TUPLE_FIELDS:
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"config key {name!r} needs a list, got {value!r}")
            for item in value:
                _check_type(name, item, _TUPLE_FIELDS[name])
            values[name] = tuple(_TUPLE_FIELDS[name](v) for v in value)
        else:
            _check_type(name, value, _FIELD_TYPES[name])
    return PipelineConfig(**values)


def smooth_spectra(
    spectra: Sequence[RawSpectrum], config: PipelineConfig, *, pairs: bool, names: Sequence[str] | None = None
) -> list[tuple[CurvePair, float]] | list[tuple[Curve, float]]:
    """Rest-frame, smooth and normalize many spectra: (pair, ref), or
    (predictor, ref) unless ``pairs``, per spectrum in input order, each bit
    for bit what it gets alone, with one grid object per segment. ``ref`` is
    the smoothed predictor flux nearest the normalization wavelength; it
    divides both segments, and callers need it to place truths on the same
    scale. ``names`` label the spectra in errors (default: their positions)."""
    names = [str(i) for i in range(len(spectra))] if names is None else names
    rest = [to_rest_frame(s) for s in spectra]
    segments = [(config.predictor_range, config.predictor_grid())]
    segments += [(config.response_range, config.response_grid())] if pairs else []
    values = [[None] * len(spectra) for _ in segments]
    for (wl_range, grid), rows in zip(segments, values):
        # spectra whose in-range wavelengths are equal byte for byte are one
        # block: one span-CV pass and one kernel call per chosen span
        samples = [in_range(s, wl_range) for s in rest]
        groups: dict[bytes, list[int]] = {}
        for i, (lam, _) in enumerate(samples):
            groups.setdefault(lam.tobytes(), []).append(i)
        for members in groups.values():
            lam, flux = samples[members[0]][0], np.stack([samples[i][1] for i in members])
            try:
                spans = select_spans(lam, flux, config.span_candidates)
                for i, row in zip(members, smooth_block(lam, flux, wl_range, spans, grid)):
                    rows[i] = row
            except ValueError as err:
                raise type(err)(f"spectrum {names[members[0]]}, rest-frame range [{wl_range[0]}, "
                                f"{wl_range[1]}]: {err}") from err
    refs = [float(v[nearest_index(segments[0][1], config.normalization_wavelength)]) for v in values[0]]
    for name, ref in zip(names, refs):
        if ref <= 0.0:
            raise ValueError(f"cannot normalize spectrum {name}: smoothed flux is not "
                             f"positive at {config.normalization_wavelength}")
    curves = [[Curve(grid, v / ref) for v, ref in zip(rows, refs)] for (_, grid), rows in zip(segments, values)]
    return list(zip(map(CurvePair, *curves) if pairs else curves[0], refs))


def fit_pairs(
    pairs: list[CurvePair], config: PipelineConfig
) -> tuple[FittedRegression, list[tuple[int, float]]]:
    """Build the regression through ``fit_kappa`` (a candidate above n-1 counts as n-1).

    ``fit`` then calibrates a conformal split of the same pairs, so this
    asks for the calibration's minimum count.
    """
    if len(pairs) < MIN_PAIRS:
        raise ValueError(f"need at least {MIN_PAIRS} usable spectra to fit, got {len(pairs)}")
    return fit_kappa(pairs, SemimetricSpec(config.semimetric), KernelSpec(), config.kappa_candidates)
