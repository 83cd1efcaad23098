"""File formats and persistence.

Spectra travel as comma-separated text with a header line and columns
``wavelength,flux,noise_sd`` (the noise column optional, default 0), one
cell per header column in every row and every cell a finite number; one
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

from .conformal import ConformalBand, ConformalCalibration
from .curves import Curve, CurvePair, RawSpectrum, WavelengthGrid, are_numbers
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


def _dump_json(kind: str, fields: dict, path: Path) -> None:
    """Write a versioned document of ``kind``, as ``_load_json`` reads it."""
    document = {"schema_version": SCHEMA_VERSION, "kind": kind, **fields}
    atomic_write_text(Path(path), json.dumps(document) + "\n")


def _load_json(path: Path, expected_kind: str) -> dict:
    try:
        with open(path) as handle:
            document = json.load(handle)
    except ValueError as err:  # not UTF-8, or not JSON
        raise ValueError(f"{path}: {err}") from None
    if not isinstance(document, dict):
        raise ValueError(f"{path}: not a JSON object (found a {type(document).__name__})")
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
    try:
        with open(path) as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from None
    if not lines:
        raise ValueError(f"{path}: empty spectrum file")
    header = [col.strip().lower() for col in lines[0].split(",")]
    if header[:2] != ["wavelength", "flux"]:
        raise ValueError(
            f"{path}: header must start with 'wavelength,flux', found {lines[0]!r}"
        )
    # the table rule: one cell per header column (RFC 4180 section 2), every cell a finite number
    body = [line.split(",") for line in lines[1:]]
    try:
        table = np.array(body, dtype=float).reshape(len(body), len(header))
    except ValueError:
        table = None
    if table is None or not np.isfinite(table).all():  # numpy converts each cell as float() does: some row fails
        for row_number, (line, cells) in enumerate(zip(lines[1:], body), start=2):
            if len(cells) != len(header):
                raise ValueError(f"{path}, row {row_number}: malformed row {line!r}")
            try:
                values = np.array(cells, dtype=float)
            except ValueError:
                raise ValueError(f"{path}, row {row_number}: non-numeric value in {line!r}") from None
            if not np.isfinite(values).all():
                raise ValueError(f"{path}, row {row_number}: non-finite value")
    return table[:, 0], table[:, 1], table[:, 2] if len(header) >= 3 else np.zeros(len(table))


def read_spectrum(path: Path, redshift: float = 0.0) -> RawSpectrum:
    wl, fx, sd = _parse_rows(path)
    try:
        return RawSpectrum(wl, fx, sd, redshift)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def read_curve(path: Path) -> Curve:
    wl, fx, _ = _parse_rows(path)
    try:
        return Curve(WavelengthGrid(wl), fx)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


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
    _dump_json("spectrum_manifest", {"spectra": entries}, path)


# what a manifest entry's keys must hold, and the test for each
_ENTRY_VALUES = (
    ("id", "a file name (not empty, '.' or '..', no path separator)",  # outputs are named after it
     lambda v: isinstance(v, str) and v not in ("", ".", "..") and not any(sep in v for sep in (os.sep, os.altsep) if sep)),
    ("z", "a finite, non-negative number",
     lambda v: are_numbers([v]) and 0.0 <= v < math.inf),
    ("path", "a string", lambda v: isinstance(v, str)),
    ("truth_path", "a string", lambda v: isinstance(v, str)),
    ("predict_only", "true or false", lambda v: isinstance(v, bool)),
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
        for key, kind, valid in _ENTRY_VALUES:
            if key in entry and not valid(entry[key]):
                raise ValueError(f"{path}: spectrum entry {index} needs {kind} for {key!r}, found {entry[key]!r}")
        spectrum_id = entry["id"]
        if spectrum_id in records:
            raise ValueError(f"{path}: duplicate spectrum id {spectrum_id!r}")
        truth = entry.get("truth_path")
        records[spectrum_id] = SpectrumRecord(
            id=spectrum_id,
            path=path.parent / entry["path"],
            z=float(entry.get("z", 0.0)),
            truth_path=path.parent / truth if truth else None,
            predict_only=entry.get("predict_only", False),
        )
    return list(records.values())


# ----------------------------------------------------------- model documents

# what the 'split' record's keys must hold for a model of n pairs, and the test for each
def _split_values(n: int):
    n1 = n // 2
    return (
        ("rows", f"{n1} distinct integers in [0, {n})",
         lambda v: isinstance(v, list) and len(v) == n1 and all(type(r) is int and 0 <= r < n for r in v) and len(set(v)) == n1),
        ("kappa", f"an integer in [1, {n1 - 1}]", lambda v: type(v) is int and 1 <= v <= n1 - 1),
        ("scores", f"{n - n1} finite, non-positive numbers",
         lambda v: are_numbers(v) and len(v) == n - n1 and all(-math.inf < s <= 0.0 for s in v)),
    )


def save_regression(model: FittedRegression, path: Path, config: PipelineConfig,
                    calibration: ConformalCalibration) -> None:
    """``config`` must be the model's: its grids and semimetric are all the file says of the rows.
    ``calibration`` must be a split of the model's pairs, as ``calibrate(model.pairs, ...)`` makes."""
    if not (config.predictor_grid().matches(model.predictor_grid) and config.response_grid().matches(model.response_grid)
            and config.semimetric == model.semimetric.token):
        raise ValueError("the config's grids and semimetric must be the model's")
    split, rows = calibration.trained_model, calibration.fit_rows or ()
    if not (len(split) == len(rows) == len(model) // 2 and calibration.n2 == len(model) - len(rows)
            and split.semimetric == model.semimetric and all(model.pairs[i] is p for i, p in zip(rows, split.pairs))):
        raise ValueError("the calibration must be a split of the model's pairs")
    _dump_json("knn_functional_regression", {
        "kappa": model.kappa,
        "predictors": [p.predictor.values.tolist() for p in model.pairs],
        "responses": [p.response.values.tolist() for p in model.pairs],
        "config": {name: getattr(config, name) for name in MODEL_SETTINGS},
        "split": {"rows": list(rows), "kappa": split.kappa, "scores": calibration.calibration_scores.tolist()},
    }, path)


def load_regression(path: Path) -> tuple[FittedRegression, dict, tuple[FittedRegression, np.ndarray]]:
    """The model, its config record, and its conformal split: the model fitted
    on the recorded rows with the recorded kappa, and the held-out scores."""
    document = _load_json(Path(path), "knn_functional_regression")
    record = document.get("config")
    if not isinstance(record, dict) or record.keys() != set(MODEL_SETTINGS):
        odd = f" (its keys differ in {sorted(set(record) ^ set(MODEL_SETTINGS))})" if isinstance(record, dict) else ""
        raise ValueError(f"{path}: model has no 'config' recording {list(MODEL_SETTINGS)}{odd}; rerun fit")
    for key in ("predictors", "responses", "kappa"):
        if key not in document:
            raise ValueError(f"{path}: model has no {key!r}; rerun fit")
    split = document.get("split")
    if not isinstance(split, dict) or split.keys() != {"rows", "kappa", "scores"}:
        raise ValueError(f"{path}: model has no 'split' record of 'rows', 'kappa' and 'scores'; rerun fit")
    if type(document["kappa"]) is not int:
        raise ValueError(f"{path}: model's 'kappa' is not an integer: {document['kappa']!r}; rerun fit")
    predictors, responses = document["predictors"], document["responses"]
    if not (isinstance(predictors, list) and isinstance(responses, list) and len(predictors) == len(responses)):
        raise ValueError(f"{path}: model's 'predictors' and 'responses' are not lists of equal length; rerun fit")
    for key, rows in (("predictors", predictors), ("responses", responses)):
        bad = next((i for i, row in enumerate(rows) if not are_numbers(row)), None)
        if bad is not None:
            raise ValueError(f"{path}: model's {key!r} row {bad} is not a list of numbers; rerun fit")
    for key, kind, valid in _split_values(len(predictors)):
        if not valid(split[key]):
            raise ValueError(f"{path}: model's 'split' needs {kind} for {key!r}; rerun fit")
    try:
        config = load_config(**record)
        pred_grid, resp_grid = config.predictor_grid(), config.response_grid()
    except ValueError as err:
        raise ValueError(f"{path}: bad value in the model's 'config' record: {err}; rerun fit") from None
    try:  # values that a curve or the regression rejects
        pairs = tuple(CurvePair(Curve(pred_grid, np.asarray(pv)), Curve(resp_grid, np.asarray(rv)))
                      for pv, rv in zip(predictors, responses))
        model = FittedRegression(pairs, SemimetricSpec(config.semimetric), KernelSpec(), document["kappa"])
    except ValueError as err:
        raise ValueError(f"{path}: bad value in the model: {err}; rerun fit") from None
    split_model = FittedRegression(tuple(pairs[i] for i in split["rows"]), model.semimetric, model.kernel, split["kappa"])
    return model, record, (split_model, np.asarray(split["scores"], dtype=float))


# ------------------------------------------------------------ band documents

def save_conformal_band(band: ConformalBand, path: Path, normalization: float) -> None:
    """``normalization``: the smoothed flux the spectrum was divided by."""
    _dump_json("conformal_band", {
        "alpha": band.alpha,
        "half_width": None if band.degenerate else band.half_width,
        "grid": band.center.grid.points.tolist(),
        "center": band.center.values.tolist(),
        "normalization": normalization,
    }, path)


def load_conformal_band(path: Path) -> tuple[ConformalBand, float]:
    document = _load_json(Path(path), "conformal_band")
    for key in ("alpha", "half_width", "grid", "center", "normalization"):
        if key not in document:
            raise ValueError(f"{path}: band has no {key!r}; rerun predict")
    degenerate = document["half_width"] is None  # the band covers every curve
    for key in ("alpha", "normalization") if degenerate else ("alpha", "normalization", "half_width"):
        if not are_numbers([document[key]]):
            raise ValueError(f"{path}: band needs a number for {key!r}, found {document[key]!r}; rerun predict")
    for key in ("grid", "center"):
        if not are_numbers(document[key]):
            raise ValueError(f"{path}: band needs a list of numbers for {key!r}; rerun predict")
    try:
        grid = WavelengthGrid(np.asarray(document["grid"]))
        half_width = math.inf if degenerate else float(document["half_width"])
        band = ConformalBand(Curve(grid, np.asarray(document["center"])), half_width, float(document["alpha"]))
        normalization = float(document["normalization"])
        if not 0.0 < normalization < math.inf:  # eval divides each truth by it
            raise ValueError(f"normalization must be finite and positive, found {document['normalization']!r}")
        return band, normalization
    except ValueError as err:
        raise ValueError(f"{path}: bad value in the band: {err}; rerun predict") from None


def save_bootstrap_band(band: BootstrapBand, path: Path) -> None:
    _dump_json("bootstrap_band", {
        "alpha": band.alpha,
        "replicates": band.replicates,
        "grid": band.fpca.grid.points.tolist(),
        "intervals": band.component_intervals.tolist(),
        "envelope_lower": band.envelope_lower.values.tolist(),
        "envelope_upper": band.envelope_upper.values.tolist(),
        "mean": band.fpca.mean.values.tolist(),
        "components": band.fpca.components[: len(band.component_intervals)].tolist(),
    }, path)


# ------------------------------------------------------------- table exports

def write_error_summary(path: Path, summary) -> None:
    """Rows of (wavelength, mean, median, q1, q3, ci_lo, ci_hi)."""
    curves = (summary.mean, summary.median, summary.q1, summary.q3, summary.ci_lower, summary.ci_upper)
    columns = (summary.grid.points, *(c.values for c in curves))
    _write_table(path, "wavelength,mean,median,q1,q3,ci_lo,ci_hi", columns)


def write_scree(path: Path, rows: Sequence[tuple[int, float, float]]) -> None:
    """Rows of (component index, eigenvalue, cumulative variance fraction)."""
    _write_table(path, "component,eigenvalue,cumulative_fraction", [np.array(c) for c in zip(*rows)])
