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

import json
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np

from .conformal import MIN_PAIRS
from .curves import Curve, CurvePair, RawSpectrum, WavelengthGrid, are_numbers, nearest_index, to_rest_frame
from .regression import FittedRegression, KernelSpec, fit_kappa
from .semimetrics import TOKENS, SemimetricSpec
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
        """Check each key by its rule in ``_RULES``; a list becomes a tuple of its items as the key's type."""
        for name, (kind, many, rule, valid) in _RULES.items():
            value = getattr(self, name)
            typed = _is(value, kind, many)
            if typed and many:
                object.__setattr__(self, name, tuple(map(kind, value)))
            if not (typed and valid(getattr(self, name), self)):
                raise ValueError(f"config key {name!r} must be {rule}, got {value!r}")

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


def _is(value, kind: type, many: bool) -> bool:
    """Whether ``value`` is a ``kind``, or with ``many`` a list or tuple of them: a float is a
    finite number by the one number rule (``curves.are_numbers``), an int any Integral, and no bool."""
    if many != isinstance(value, (list, tuple)):
        return False
    values = list(value) if many else [value]
    if kind is float:
        return are_numbers(values) and all(map(math.isfinite, values))
    return all(isinstance(v, Integral if kind is int else kind) and not isinstance(v, bool) for v in values)


# no array or index holds more than sys.maxsize items
_GRID = (int, False, "an integer from 2 to sys.maxsize", lambda v, c: 2 <= v <= sys.maxsize)
_COUNT = (int, False, "an integer from 1 to sys.maxsize", lambda v, c: 1 <= v <= sys.maxsize)
# each key's rule: its item type, whether it takes a list of them, the rule's
# words and its range test, which reads the value and the config; checked in
# this order, so a test may read the keys above its own
_RULES = {
    "predictor_range": (float, True, "two finite numbers, 0 < low < high", lambda v, c: len(v) == 2 and 0 < v[0] < v[1]),
    "response_range": (float, True, "two finite numbers, 0 < low < high < predictor_range's low",
                       lambda v, c: len(v) == 2 and 0 < v[0] < v[1] < c.predictor_range[0]),
    "predictor_points": _GRID,
    "response_points": _GRID,
    "normalization_wavelength": (float, False, "a number in predictor_range",
                                 lambda v, c: c.predictor_range[0] <= v <= c.predictor_range[1]),
    "semimetric": (str, False, f"one of {', '.join(map(repr, TOKENS))}", lambda v, c: v in TOKENS),
    "kappa_candidates": (int, True, "a non-empty list of integers from 1 to sys.maxsize",
                         lambda v, c: v and 1 <= min(v) and max(v) <= sys.maxsize),
    "span_candidates": (float, True, "a non-empty list of numbers in (0, 1]", lambda v, c: v and 0 < min(v) and max(v) <= 1),
    "alpha": (float, False, "a number in (0, 1)", lambda v, c: 0 < v < 1),
    "bootstrap_replicates": _COUNT,
    "bootstrap_components": _COUNT,
    "seed": (int, False, "a non-negative integer", lambda v, c: v >= 0),
    "mock_count": _COUNT,
    "mock_grid_points": _GRID,
    "mock_components": _COUNT,
    "mock_eigenvalue_decay": (float, False, "a finite positive number", lambda v, c: v > 0),
    "mock_variance_scale": (float, False, "a finite non-negative number", lambda v, c: v >= 0),
    "mock_noise_level": (float, False, "a finite non-negative number", lambda v, c: v >= 0),
}


def load_config(path: Path | None = None, **overrides) -> PipelineConfig:
    """Config from an optional JSON file, updated with keyword overrides.

    Overrides whose value is None are ignored, so CLI flags can be passed
    through unconditionally. An unknown key, or a value its rule in
    ``_RULES`` rejects, is a ``ValueError`` naming the key.
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
    unknown = set(values) - set(_RULES)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
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
