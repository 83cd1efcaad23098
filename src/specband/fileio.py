"""File formats and persistence.

Spectra travel as comma-separated text with a header line and columns
``wavelength,flux,noise_sd`` (the noise column optional, default 0); one
file per spectrum, with the redshift carried in a JSON sidecar manifest that
lists id, path and z per spectrum. Fitted models and bands are versioned
JSON documents. Floats are written with ``repr``, which round-trips
bit-exactly, and every writer goes through a temp-file-plus-rename so
outputs are atomic and byte-identical across reruns.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .conformal import ConformalBand
from .curves import Curve, CurvePair, RawSpectrum, WavelengthGrid
from .pipeline import MODEL_SETTINGS, PipelineConfig, load_config
from .regression import FittedRegression, KernelSpec
from .semimetrics import SemimetricSpec
from .wild_bootstrap import BootstrapBand

SCHEMA_VERSION = 1


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(document: dict, path: Path) -> None:
    atomic_write_text(Path(path), json.dumps(document, indent=1) + "\n")


def _load_json(path: Path, expected_kind: str) -> dict:
    with open(path) as handle:
        document = json.load(handle)
    kind = document.get("kind")
    if kind != expected_kind:
        raise ValueError(f"{path}: expected a {expected_kind!r} file, found {kind!r}")
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema version {version!r}")
    return document


# ------------------------------------------------------------- spectrum text

def _write_table(path: Path, header: str, columns: Sequence[np.ndarray]) -> None:
    rows = (",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns)))
    atomic_write_text(Path(path), "\n".join([header, *rows]) + "\n")


def write_spectrum(path: Path, spectrum: RawSpectrum) -> None:
    columns = (spectrum.wavelengths, spectrum.flux, spectrum.noise_sd)
    _write_table(path, "wavelength,flux,noise_sd", columns)


def write_curve(path: Path, curve: Curve) -> None:
    """Store a noise-free curve in the spectrum text format."""
    _write_table(path, "wavelength,flux", (curve.grid.points, curve.values))


def _parse_rows(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    path = Path(path)
    with open(path) as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty spectrum file")
    header = [col.strip().lower() for col in lines[0].split(",")]
    if header[:2] != ["wavelength", "flux"]:
        raise ValueError(
            f"{path}: header must start with 'wavelength,flux', found {lines[0]!r}"
        )
    has_noise = len(header) >= 3
    wl, fx, sd = [], [], []
    for row_number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) < 2 or (has_noise and len(cells) != len(header)):
            raise ValueError(f"{path}, row {row_number}: malformed row {line!r}")
        try:
            wl.append(float(cells[0]))
            fx.append(float(cells[1]))
            sd.append(float(cells[2]) if has_noise and len(cells) > 2 else 0.0)
        except ValueError:
            raise ValueError(
                f"{path}, row {row_number}: non-numeric value in {line!r}"
            ) from None
        if not (np.isfinite(wl[-1]) and np.isfinite(fx[-1]) and np.isfinite(sd[-1])):
            raise ValueError(f"{path}, row {row_number}: non-finite value")
    return np.asarray(wl), np.asarray(fx), np.asarray(sd)


def read_spectrum(path: Path, redshift: float = 0.0) -> RawSpectrum:
    wl, fx, sd = _parse_rows(path)
    return RawSpectrum(wl, fx, sd, redshift)


def read_curve(path: Path) -> Curve:
    wl, fx, _ = _parse_rows(path)
    return Curve(WavelengthGrid(wl), fx)


# ------------------------------------------------------------------ manifest

@dataclass(frozen=True)
class SpectrumRecord:
    """One manifest entry: spectrum id, file path, redshift, optional extras."""

    id: str
    path: Path
    z: float = 0.0
    truth_path: Path | None = None
    predict_only: bool = False


def write_manifest(path: Path, records: Sequence[SpectrumRecord]) -> None:
    base = Path(path).parent
    entries = []
    for record in records:
        entry = {
            "id": record.id,
            "path": os.path.relpath(record.path, base),
            "z": record.z,
        }
        if record.truth_path is not None:
            entry["truth_path"] = os.path.relpath(record.truth_path, base)
        if record.predict_only:
            entry["predict_only"] = True
        entries.append(entry)
    _dump_json(
        {"schema_version": SCHEMA_VERSION, "kind": "spectrum_manifest", "spectra": entries},
        Path(path),
    )


def read_manifest(path: Path) -> list[SpectrumRecord]:
    path = Path(path)
    document = _load_json(path, "spectrum_manifest")
    entries = document.get("spectra")
    if not isinstance(entries, list):
        raise ValueError(f"{path}: manifest needs a 'spectra' list, found {entries!r}")
    records: dict[str, SpectrumRecord] = {}
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: spectrum entry {index} is not a JSON object: {entry!r}")
        for key in ("id", "path"):
            if key not in entry:
                raise ValueError(f"{path}: spectrum entry {index} has no {key!r}")
        spectrum_id = str(entry["id"])
        if spectrum_id in records:
            raise ValueError(f"{path}: duplicate spectrum id {spectrum_id!r}")
        truth = entry.get("truth_path")
        records[spectrum_id] = SpectrumRecord(
            id=spectrum_id,
            path=path.parent / entry["path"],
            z=float(entry.get("z", 0.0)),
            truth_path=path.parent / truth if truth else None,
            predict_only=bool(entry.get("predict_only", False)),
        )
    return list(records.values())


# ----------------------------------------------------------- model documents

def _curve_values(values: np.ndarray) -> list[float]:
    return [float(v) for v in values]


def save_regression(model: FittedRegression, path: Path, config: PipelineConfig) -> None:
    document = {
        "schema_version": SCHEMA_VERSION,
        "kind": "knn_functional_regression",
        "semimetric": model.semimetric.token,
        "kappa": model.kappa,
        "predictor_grid": _curve_values(model.predictor_grid.points),
        "response_grid": _curve_values(model.response_grid.points),
        "predictors": [_curve_values(p.predictor.values) for p in model.pairs],
        "responses": [_curve_values(p.response.values) for p in model.pairs],
        "config": {name: getattr(config, name) for name in MODEL_SETTINGS},
    }
    _dump_json(document, Path(path))


def load_regression(path: Path) -> tuple[FittedRegression, dict]:
    document = _load_json(Path(path), "knn_functional_regression")
    if not isinstance(document.get("config"), dict) or document["config"].keys() != set(MODEL_SETTINGS):
        raise ValueError(f"{path}: model has no 'config' recording {list(MODEL_SETTINGS)}; rerun fit")
    try:
        load_config(**document["config"])
    except ValueError as err:
        raise ValueError(f"{path}: bad value in the model's 'config' record: {err}; rerun fit") from None
    pred_grid = WavelengthGrid(np.asarray(document["predictor_grid"]))
    resp_grid = WavelengthGrid(np.asarray(document["response_grid"]))
    pairs = tuple(
        CurvePair(
            Curve(pred_grid, np.asarray(pv)),
            Curve(resp_grid, np.asarray(rv)),
        )
        for pv, rv in zip(document["predictors"], document["responses"])
    )
    return FittedRegression(
        pairs=pairs,
        semimetric=SemimetricSpec.parse(document["semimetric"]),
        kernel=KernelSpec(),
        kappa=int(document["kappa"]),
    ), document["config"]


# ------------------------------------------------------------ band documents

def save_conformal_band(band: ConformalBand, path: Path, normalization: float) -> None:
    """``normalization``: the smoothed flux the spectrum was divided by."""
    document = {
        "schema_version": SCHEMA_VERSION,
        "kind": "conformal_band",
        "alpha": band.alpha,
        "degenerate": band.degenerate,
        "half_width": None if band.degenerate else band.half_width,
        "grid": _curve_values(band.center.grid.points),
        "center": _curve_values(band.center.values),
        "normalization": normalization,
    }
    _dump_json(document, Path(path))


def load_conformal_band(path: Path) -> tuple[ConformalBand, float]:
    document = _load_json(Path(path), "conformal_band")
    if "normalization" not in document:
        raise ValueError(f"{path}: band has no 'normalization'; rerun predict")
    grid = WavelengthGrid(np.asarray(document["grid"]))
    degenerate = bool(document["degenerate"])
    half_width = math.inf if degenerate else float(document["half_width"])
    band = ConformalBand(
        center=Curve(grid, np.asarray(document["center"])),
        half_width=half_width,
        alpha=float(document["alpha"]),
        degenerate=degenerate,
    )
    return band, float(document["normalization"])


def save_bootstrap_band(band: BootstrapBand, path: Path) -> None:
    document = {
        "schema_version": SCHEMA_VERSION,
        "kind": "bootstrap_band",
        "alpha": band.alpha,
        "replicates": band.replicates,
        "grid": _curve_values(band.fpca.grid.points),
        "intervals": [[float(lo), float(hi)] for lo, hi in band.component_intervals],
        "envelope_lower": _curve_values(band.envelope_lower.values),
        "envelope_upper": _curve_values(band.envelope_upper.values),
        "mean": _curve_values(band.fpca.mean.values),
        "components": [
            _curve_values(c.values)
            for c in band.fpca.components[: band.component_intervals.shape[0]]
        ],
    }
    _dump_json(document, Path(path))


# ------------------------------------------------------------- table exports

def write_error_summary(path: Path, summary) -> None:
    """Rows of (wavelength, mean, median, q1, q3, ci_lo, ci_hi)."""
    curves = (summary.mean, summary.median, summary.q1, summary.q3, summary.ci_lower, summary.ci_upper)
    columns = (summary.grid.points, *(c.values for c in curves))
    _write_table(path, "wavelength,mean,median,q1,q3,ci_lo,ci_hi", columns)


def write_scree(path: Path, rows: Sequence[tuple[int, float, float]]) -> None:
    """Rows of (component index, eigenvalue, cumulative variance fraction)."""
    lines = ["component,eigenvalue,cumulative_fraction"]
    for index, eigenvalue, fraction in rows:
        lines.append(f"{index},{eigenvalue!r},{fraction!r}")
    atomic_write_text(Path(path), "\n".join(lines) + "\n")
