import json
import math

import numpy as np
import pytest

from specband.conformal import ConformalBand
from specband.curves import Curve, CurvePair, RawSpectrum, WavelengthGrid
from specband.fileio import (
    SpectrumRecord,
    load_conformal_band,
    load_regression,
    read_curve,
    read_manifest,
    read_spectrum,
    save_conformal_band,
    save_regression,
    write_curve,
    write_manifest,
    write_spectrum,
)
from specband.pipeline import MODEL_SETTINGS, PipelineConfig, load_config
from specband.regression import FittedRegression, KernelSpec, predict
from specband.semimetrics import SemimetricSpec


def _random_spectrum(rng, n=20, z=0.0):
    wl = np.sort(rng.uniform(1000.0, 1600.0, n))
    return RawSpectrum(wl, rng.normal(1.0, 0.2, n), rng.uniform(0.0, 0.1, n), z)


def test_spectrum_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    spectrum = _random_spectrum(rng)
    path = tmp_path / "spec.csv"
    write_spectrum(path, spectrum)
    back = read_spectrum(path)
    assert np.array_equal(back.wavelengths, spectrum.wavelengths)
    assert np.array_equal(back.flux, spectrum.flux)
    assert np.array_equal(back.noise_sd, spectrum.noise_sd)


def test_spectrum_without_noise_column(tmp_path):
    path = tmp_path / "two_col.csv"
    rows = ["wavelength,flux"] + [f"{1000.0 + i},1.0" for i in range(12)]
    path.write_text("\n".join(rows) + "\n")
    spectrum = read_spectrum(path)
    assert np.all(spectrum.noise_sd == 0.0)


def test_bad_header_is_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("lambda,value\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_spectrum(path)


def test_curve_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    curve = Curve(WavelengthGrid(np.sort(rng.uniform(1.0, 2.0, 15))), rng.normal(size=15))
    write_curve(tmp_path / "c.csv", curve)
    back = read_curve(tmp_path / "c.csv")
    assert np.array_equal(back.grid.points, curve.grid.points)
    assert np.array_equal(back.values, curve.values)


def test_manifest_round_trip_and_relative_paths(tmp_path):
    spectra_dir = tmp_path / "nested"
    records = [
        SpectrumRecord("a", spectra_dir / "a.csv", z=2.5, truth_path=spectra_dir / "ta.csv"),
        SpectrumRecord("b", spectra_dir / "b.csv", z=0.0, predict_only=True),
    ]
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, records)
    back = read_manifest(manifest)
    assert back[0].id == "a" and back[0].z == 2.5
    assert back[0].path == spectra_dir / "a.csv"
    assert back[0].truth_path == spectra_dir / "ta.csv"
    assert back[1].truth_path is None
    assert back[1].predict_only


def test_manifest_rejects_duplicate_ids(tmp_path):
    records = [
        SpectrumRecord("a", tmp_path / "a.csv"),
        SpectrumRecord("b", tmp_path / "b.csv"),
        SpectrumRecord("a", tmp_path / "c.csv"),
    ]
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, records)
    with pytest.raises(ValueError, match="duplicate spectrum id 'a'"):
        read_manifest(manifest)


@pytest.mark.parametrize("key", ["id", "path"])
def test_manifest_names_the_entry_missing_a_key(tmp_path, key):
    entries = [{"id": "a", "path": "a.csv"}, {"id": "b", "path": "b.csv", "z": 2.0}]
    del entries[1][key]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"schema_version": 1, "kind": "spectrum_manifest", "spectra": entries}))
    with pytest.raises(ValueError, match=f"manifest.json: spectrum entry 1 has no '{key}'"):
        read_manifest(manifest)


@pytest.mark.parametrize(
    "extra, message",
    [
        ({}, "manifest.json: manifest needs a 'spectra' list, found None"),
        ({"spectra": [{"id": "a", "path": "a.csv"}, 1]}, "manifest.json: spectrum entry 1 is not a JSON object: 1"),
    ],
    ids=["no-spectra", "non-object-entry"],
)
def test_malformed_manifest_is_a_value_error_naming_the_file(tmp_path, extra, message):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"schema_version": 1, "kind": "spectrum_manifest", **extra}))
    with pytest.raises(ValueError) as excinfo:
        read_manifest(manifest)
    assert str(excinfo.value) == f"{tmp_path}/{message}"


def test_regression_round_trip_reproduces_predictions_bitwise(tmp_path):
    rng = np.random.default_rng(2)
    pred_grid = WavelengthGrid(np.linspace(1300.0, 1600.0, 40))
    resp_grid = WavelengthGrid(np.linspace(1050.0, 1185.0, 30))
    pairs = tuple(
        CurvePair(
            Curve(pred_grid, rng.normal(size=40)),
            Curve(resp_grid, rng.normal(size=30)),
        )
        for _ in range(7)
    )
    model = FittedRegression(pairs, SemimetricSpec.sobolev(1), KernelSpec(), kappa=3)
    config = PipelineConfig(
        predictor_points=40, response_points=30, normalization_wavelength=1400.1,
        kappa_candidates=(3, 5), span=0.35, span_candidates=(0.2, 0.7),
    )
    path = tmp_path / "model.json"
    save_regression(model, path, config)
    back, settings = load_regression(path)
    assert sorted(settings) == sorted(MODEL_SETTINGS)
    assert load_config(**settings) == config
    assert back.kappa == 3
    assert back.semimetric == model.semimetric
    x = Curve(pred_grid, rng.normal(size=40))
    assert np.array_equal(predict(back, x).values, predict(model, x).values)


def test_regression_file_rejects_wrong_kind(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": "conformal_band"}))
    with pytest.raises(ValueError, match="expected a 'knn_functional_regression'"):
        load_regression(path)


def test_conformal_band_round_trip(tmp_path):
    grid = WavelengthGrid(np.linspace(1050.0, 1185.0, 20))
    rng = np.random.default_rng(3)
    band = ConformalBand(Curve(grid, rng.normal(size=20)), 0.37, alpha=0.1)
    save_conformal_band(band, tmp_path / "band.json", 0.1 + 0.2)
    back, normalization = load_conformal_band(tmp_path / "band.json")
    assert normalization == 0.1 + 0.2
    assert back.half_width == band.half_width
    assert np.array_equal(back.center.values, band.center.values)
    assert not back.degenerate


def test_degenerate_band_round_trip(tmp_path):
    grid = WavelengthGrid(np.linspace(1050.0, 1185.0, 20))
    band = ConformalBand(Curve(grid, np.zeros(20)), math.inf, alpha=0.01, degenerate=True)
    save_conformal_band(band, tmp_path / "band.json", 2.5)
    document = json.loads((tmp_path / "band.json").read_text())
    assert document["half_width"] is None
    back, _ = load_conformal_band(tmp_path / "band.json")
    assert back.degenerate and math.isinf(back.half_width)


def test_writers_are_byte_identical_across_reruns(tmp_path):
    rng = np.random.default_rng(4)
    spectrum = _random_spectrum(rng)
    write_spectrum(tmp_path / "one.csv", spectrum)
    write_spectrum(tmp_path / "two.csv", spectrum)
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
