import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from specband.conformal import ConformalBand, band, calibrate
from specband.curves import Curve, CurvePair, RawSpectrum, WavelengthGrid
from specband.fileio import (
    SpectrumRecord,
    atomic_write_text,
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


def test_a_row_that_breaks_the_table_rule_is_named(tmp_path):
    # one cell per header column, every cell a finite number; the first row
    # that breaks the rule is named with its file, whatever the rows after it
    path = tmp_path / "bad.csv"
    rows = [f"{1000.0 + i},1.0,0.1" for i in range(12)]
    cases = [
        (["wavelength,flux"] + [f"{1000.0 + i},{i}.5,9" for i in range(12)], "row 2: malformed row '1000.0,0.5,9'"),
        (["wavelength,flux"] + [f"{1000.0 + i},1.0" for i in range(12)] + ["1012.0,1.0,9"],
         "row 14: malformed row '1012.0,1.0,9'"),
        (["wavelength,flux,noise_sd,mask"] + [r + ",0" for r in rows[:5]] + [rows[5] + ",bad"] + [r + ",1" for r in rows[6:]],
         "row 7: non-numeric value in '1005.0,1.0,0.1,bad'"),
        (["wavelength,flux,noise_sd", *rows, "1011.5,1.0"], "row 14: malformed row '1011.5,1.0'"),
        (["wavelength,flux,noise_sd", *rows, "1011.5,x,0.1", "1011.6,1.0"], "row 14: non-numeric value in '1011.5,x,0.1'"),
        (["wavelength,flux,noise_sd", *rows, "1011.5,nan,0.1"], "row 14: non-finite value"),
    ]
    for lines, message in cases:
        path.write_text("\n".join(lines) + "\n")
        for reader in (read_spectrum, read_curve):
            with pytest.raises(ValueError) as err:
                reader(path)
            assert str(err.value) == f"{path}, {message}"


def test_a_numeric_mask_column_is_read_and_ignored(tmp_path):
    path = tmp_path / "masked.csv"
    path.write_text("wavelength,flux,noise_sd,mask\n" + "".join(f"{1000.0 + i},{i}.5,0.25,{i % 2}\n" for i in range(12)))
    spectrum = read_spectrum(path)
    assert np.array_equal(spectrum.flux, np.arange(12) + 0.5)
    assert np.array_equal(spectrum.noise_sd, np.full(12, 0.25))


def test_a_spectrum_file_that_is_not_utf8_is_named(tmp_path):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"wavelength,flux\n1000.0,\xff\n")
    for reader in (read_spectrum, read_curve):
        with pytest.raises(ValueError, match=re.escape(f"{path}: 'utf-8' codec can't decode byte 0xff")):
            reader(path)


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


@pytest.mark.parametrize(
    "key, value, kind",
    [
        ("z", None, "a finite, non-negative number"),
        ("z", "abc", "a finite, non-negative number"),
        ("z", -1, "a finite, non-negative number"),
        ("z", True, "a finite, non-negative number"),
        ("z", math.inf, "a finite, non-negative number"),
        ("z", 10**400, "a finite, non-negative number"),
        ("z", 2**1024 - 2**970, "a finite, non-negative number"),
        ("path", 5, "a string"),
        ("truth_path", 3, "a string"),
        ("predict_only", "false", "true or false"),
        ("predict_only", 0, "true or false"),
        *(("id", bad, "a file name (not empty, '.' or '..', no path separator)")
          for bad in ("", ".", "..", "../escaped/mock0", "/tmp/mock0", "sub/mock0", None, 5, True)),
    ],
    ids=["z-null", "z-string", "z-negative", "z-bool", "z-inf", "z-huge-int", "z-least-int-beyond-float",
         "path-number", "truth-number",
         "predict-only-string", "predict-only-number",
         "id-empty", "id-dot", "id-dotdot", "id-parent", "id-absolute", "id-subdirectory",
         "id-null", "id-number", "id-bool"],
)
def test_manifest_value_of_the_wrong_type_names_the_file_and_entry(tmp_path, key, value, kind):
    entries = [{"id": "a", "path": "a.csv", "z": 2, "truth_path": "ta.csv", "predict_only": False},
               {"id": "b", "path": "b.csv", key: value}]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"schema_version": 1, "kind": "spectrum_manifest", "spectra": entries}))
    with pytest.raises(ValueError) as excinfo:
        read_manifest(manifest)
    assert str(excinfo.value) == f"{manifest}: spectrum entry 1 needs {kind} for {key!r}, found {value!r}"
    # the first entry holds a valid value for every key
    manifest.write_text(json.dumps({"schema_version": 1, "kind": "spectrum_manifest", "spectra": entries[:1]}))
    (record,) = read_manifest(manifest)
    assert record == SpectrumRecord("a", tmp_path / "a.csv", 2.0, tmp_path / "ta.csv", False)


@pytest.mark.parametrize(
    "reader", [read_manifest, load_regression, load_conformal_band], ids=["manifest", "model", "band"]
)
def test_json_list_document_is_a_value_error_naming_the_file(tmp_path, reader):
    path = tmp_path / "document.json"
    path.write_text("[1]")
    with pytest.raises(ValueError) as excinfo:
        reader(path)
    assert str(excinfo.value) == f"{path}: not a JSON object (found a list)"


@pytest.mark.parametrize(
    "reader", [read_manifest, load_regression, load_conformal_band, load_config],
    ids=["manifest", "model", "band", "config"],
)
@pytest.mark.parametrize(
    "content, message",
    [(b'{"schema_version": 1, x}', "Expecting property name enclosed in double quotes: line 1 column 23 (char 22)"),
     (b'{"kind": "\xff"}', "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte")],
    ids=["not-json", "not-utf8"],
)
def test_a_document_that_is_not_json_or_not_utf8_is_named(tmp_path, reader, content, message):
    path = tmp_path / "document.json"
    path.write_bytes(content)
    with pytest.raises(ValueError) as excinfo:
        reader(path)
    assert str(excinfo.value) == f"{path}: {message}"


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
    model = FittedRegression(pairs, SemimetricSpec.parse("deriv1"), KernelSpec(), kappa=3)
    config = PipelineConfig(
        predictor_points=40, response_points=30, normalization_wavelength=1400.1, semimetric="deriv1",
        kappa_candidates=(3, 5), span_candidates=(0.35,),
    )
    path = tmp_path / "model.json"
    calibration = _split(model, config.kappa_candidates)
    save_regression(model, path, config, calibration)
    document = json.loads(path.read_text())
    assert sorted(document) == ["config", "kappa", "kind", "predictors", "responses", "schema_version", "split"]
    back, settings, (split_model, scores) = load_regression(path)
    assert list(settings) == list(MODEL_SETTINGS)
    assert load_config(**settings) == config
    assert back.kappa == 3
    assert back.semimetric == model.semimetric
    # the grids come from the record, one object each
    assert back.predictor_grid.points.tobytes() == config.predictor_grid().points.tobytes()
    assert back.response_grid.points.tobytes() == config.response_grid().points.tobytes()
    assert all(p.predictor.grid is back.predictor_grid and p.response.grid is back.response_grid for p in back.pairs)
    x = Curve(pred_grid, rng.normal(size=40))
    assert np.array_equal(predict(back, x).values, predict(model, x).values)
    # the split model is the model's rows the split drew, in draw order, with the split's kappa
    assert split_model.pairs == tuple(back.pairs[i] for i in calibration.fit_rows)
    assert (split_model.kappa, split_model.semimetric) == (calibration.trained_model.kappa, model.semimetric)
    assert scores.tobytes() == calibration.calibration_scores.tobytes()
    assert predict(split_model, x).values.tobytes() == band(calibration, x).center.values.tobytes()


def test_regression_file_rejects_wrong_kind(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": "conformal_band"}))
    with pytest.raises(ValueError, match="expected a 'knn_functional_regression'"):
        load_regression(path)


def _small_model():
    pred_grid, resp_grid = WavelengthGrid(np.linspace(1300.0, 1600.0, 5)), WavelengthGrid(np.linspace(1050.0, 1185.0, 5))
    pairs = tuple(CurvePair(Curve(pred_grid, np.full(5, i + 1.0)), Curve(resp_grid, np.full(5, -i - 1.0)))
                  for i in range(4))
    return FittedRegression(pairs, SemimetricSpec.parse("l2"), KernelSpec(), kappa=2)


def _split(model, kappa_candidates=(1,), seed=3):
    """The conformal split fit stores for ``model``."""
    return calibrate(model.pairs, 0.1, model.semimetric, model.kernel, kappa_candidates, split_seed=seed)


def test_manifest_reads_the_largest_integer_a_float_holds(tmp_path):
    # 2**1024 - 2**970 is the least integer that rounds to infinity; the one
    # below it rounds to the largest float
    manifest = tmp_path / "manifest.json"
    entries = [{"id": "a", "path": "a.csv", "z": 2**1024 - 2**970 - 1}]
    manifest.write_text(json.dumps({"schema_version": 1, "kind": "spectrum_manifest", "spectra": entries}))
    (record,) = read_manifest(manifest)
    assert record.z == sys.float_info.max


def _saved_model(path):
    model = _small_model()
    save_regression(model, path, PipelineConfig(predictor_points=5, response_points=5), _split(model))
    return json.loads(path.read_text())


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(kappa=None), "model's 'kappa' is not an integer: None"),
        (lambda d: d.update(kappa=2.7), "model's 'kappa' is not an integer: 2.7"),
        (lambda d: d.update(kappa=True), "model's 'kappa' is not an integer: True"),
        (lambda d: d.update(predictors=5), "model's 'predictors' and 'responses' are not lists of equal length"),
        (lambda d: d.update(responses={}), "model's 'predictors' and 'responses' are not lists of equal length"),
        (lambda d: d["predictors"].pop(), "model's 'predictors' and 'responses' are not lists of equal length"),
        (lambda d: d["config"].update(semimetric=["l2"]),
         "bad value in the model's 'config' record: config key 'semimetric' must be one of 'l2', 'deriv1', 'deriv2', got ['l2']"),
        (lambda d: d["config"].update(semimetric="foo"),
         "bad value in the model's 'config' record: config key 'semimetric' must be one of 'l2', 'deriv1', 'deriv2', got 'foo'"),
        (lambda d: d["config"].update(response_points=1),
         ("bad value in the model's 'config' record: config key 'response_points' must be an integer from 2 "
          "to sys.maxsize, got 1")),
        (lambda d: d["config"].update(predictor_points=6), "bad value in the model: curve has 5 values for a 6-point grid"),
        (lambda d: d.update(predictors=[{"flux": row} for row in d["predictors"]]),
         "model's 'predictors' row 0 is not a list of numbers"),
        (lambda d: d["predictors"][2].__setitem__(1, str(d["predictors"][2][1])),
         "model's 'predictors' row 2 is not a list of numbers"),
        (lambda d: d.update(predictors=[[str(v) for v in row] for row in d["predictors"]]),
         "model's 'predictors' row 0 is not a list of numbers"),
        (lambda d: d["responses"].__setitem__(3, [True] * 5), "model's 'responses' row 3 is not a list of numbers"),
        (lambda d: d["responses"][1].__setitem__(0, False), "model's 'responses' row 1 is not a list of numbers"),
        (lambda d: d["responses"][0].__setitem__(4, None), "model's 'responses' row 0 is not a list of numbers"),
        (lambda d: d["responses"][0].__setitem__(4, [1.0]), "model's 'responses' row 0 is not a list of numbers"),
        (lambda d: d["predictors"].__setitem__(1, 2.0), "model's 'predictors' row 1 is not a list of numbers"),
        (lambda d: d["responses"][2].__setitem__(3, 10**400), "model's 'responses' row 2 is not a list of numbers"),
        (lambda d: d["predictors"][0].__setitem__(0, -(2**1024 - 2**970)),
         "model's 'predictors' row 0 is not a list of numbers"),
        (lambda d: d["split"].update(scores=[-10**400] * len(d["split"]["scores"])),
         "model's 'split' needs 2 finite, non-positive numbers for 'scores'"),
        (lambda d: d.update(kappa=0), "bad value in the model: kappa must satisfy 1 <= kappa <= n-1 = 3, got 0"),
        (lambda d: d["responses"][1].pop(), "bad value in the model: curve has 4 values for a 5-point grid"),
    ],
    ids=["kappa-null", "kappa-float", "kappa-bool", "predictors-number", "responses-object", "predictors-short",
         "semimetric-list", "semimetric-unknown", "config-one-point", "config-grid-not-the-rows",
         "predictor-rows-objects", "predictor-value-string", "predictor-rows-strings", "response-row-bools",
         "response-value-false", "response-value-null", "response-value-list", "predictor-row-number",
         "response-value-huge-int", "predictor-value-least-negative-int-beyond-float", "split-scores-huge-ints",
         "kappa-zero", "response-row-short"],
)
def test_model_value_of_the_wrong_type_is_rejected(tmp_path, edit, message):
    path = tmp_path / "model.json"
    document = _saved_model(path)
    assert load_regression(path)[0].kappa == 2
    edit(document)
    path.write_text(json.dumps(document))
    with pytest.raises(ValueError) as excinfo:
        load_regression(path)
    assert str(excinfo.value) == f"{path}: {message}; rerun fit"


@pytest.mark.parametrize(
    "settings",
    [{"predictor_points": 6}, {"response_range": (1050.0, 1186.0)}, {"semimetric": "deriv2"}],
    ids=["predictor-points", "response-range", "semimetric"],
)
def test_save_refuses_a_config_that_is_not_the_models(tmp_path, settings):
    """The model file keeps no grid or semimetric beside its config record, so
    a record that misdescribes the rows is never written."""
    path = tmp_path / "model.json"
    config = PipelineConfig(**{"predictor_points": 5, "response_points": 5, **settings})
    model = _small_model()
    with pytest.raises(ValueError, match="the config's grids and semimetric must be the model's"):
        save_regression(model, path, config, _split(model))
    assert not path.exists()


def test_save_refuses_a_calibration_that_is_not_a_split_of_the_models_pairs(tmp_path):
    path, model = tmp_path / "model.json", _small_model()
    config = PipelineConfig(predictor_points=5, response_points=5)
    twin = FittedRegression(model.pairs, model.semimetric, model.kernel, model.kappa)
    others = FittedRegression(tuple(CurvePair(p.predictor, p.response.with_values(p.response.values + 0.0))
                                    for p in model.pairs), model.semimetric, model.kernel, model.kappa)
    split = _split(model)
    longer = FittedRegression((*model.pairs, model.pairs[0]), model.semimetric, model.kernel, 1)
    for calibration in (_split(others), _split(longer),
                        type(split)(split.trained_model, split.calibration_scores, split.alpha)):
        with pytest.raises(ValueError, match="the calibration must be a split of the model's pairs"):
            save_regression(model, path, config, calibration)
        assert not path.exists()
    save_regression(model, path, config, _split(twin))  # the same pair objects
    assert json.loads(path.read_text())["split"]["rows"] == list(split.fit_rows)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.pop("split"), "model has no 'split' record of 'rows', 'kappa' and 'scores'"),
        (lambda d: d.update(split=[]), "model has no 'split' record of 'rows', 'kappa' and 'scores'"),
        (lambda d: d["split"].pop("scores"), "model has no 'split' record of 'rows', 'kappa' and 'scores'"),
        (lambda d: d["split"].update(seed=3), "model has no 'split' record of 'rows', 'kappa' and 'scores'"),
        (lambda d: d["split"]["rows"].pop(), "model's 'split' needs 2 distinct integers in [0, 4) for 'rows'"),
        (lambda d: d["split"]["rows"].append(3), "model's 'split' needs 2 distinct integers in [0, 4) for 'rows'"),
        (lambda d: d["split"].update(rows=[1, 1]), "model's 'split' needs 2 distinct integers in [0, 4) for 'rows'"),
        (lambda d: d["split"].update(rows=[0, 4]), "model's 'split' needs 2 distinct integers in [0, 4) for 'rows'"),
        (lambda d: d["split"].update(rows=[-1, 0]), "model's 'split' needs 2 distinct integers in [0, 4) for 'rows'"),
        (lambda d: d["split"].update(rows=[0.0, 1]), "model's 'split' needs 2 distinct integers in [0, 4) for 'rows'"),
        (lambda d: d["split"].update(rows=[True, 0]), "model's 'split' needs 2 distinct integers in [0, 4) for 'rows'"),
        (lambda d: d["split"].update(rows="01"), "model's 'split' needs 2 distinct integers in [0, 4) for 'rows'"),
        (lambda d: d["split"].update(kappa=0), "model's 'split' needs an integer in [1, 1] for 'kappa'"),
        (lambda d: d["split"].update(kappa=2), "model's 'split' needs an integer in [1, 1] for 'kappa'"),
        (lambda d: d["split"].update(kappa=1.0), "model's 'split' needs an integer in [1, 1] for 'kappa'"),
        (lambda d: d["split"].update(kappa=True), "model's 'split' needs an integer in [1, 1] for 'kappa'"),
        (lambda d: d["split"].update(kappa=None), "model's 'split' needs an integer in [1, 1] for 'kappa'"),
        (lambda d: d["split"]["scores"].pop(), "model's 'split' needs 2 finite, non-positive numbers for 'scores'"),
        (lambda d: d["split"]["scores"].append(-1.0), "model's 'split' needs 2 finite, non-positive numbers for 'scores'"),
        (lambda d: d["split"].update(scores=[-1.0, 0.5]), "model's 'split' needs 2 finite, non-positive numbers for 'scores'"),
        (lambda d: d["split"].update(scores=[-1.0, math.nan]), "model's 'split' needs 2 finite, non-positive numbers for 'scores'"),
        (lambda d: d["split"].update(scores=[-math.inf, -1.0]), "model's 'split' needs 2 finite, non-positive numbers for 'scores'"),
        (lambda d: d["split"].update(scores=[-1.0, None]), "model's 'split' needs 2 finite, non-positive numbers for 'scores'"),
        (lambda d: d["split"].update(scores=[-1.0, "-0.5"]), "model's 'split' needs 2 finite, non-positive numbers for 'scores'"),
        (lambda d: d["split"].update(scores=[-1.0, False]), "model's 'split' needs 2 finite, non-positive numbers for 'scores'"),
        (lambda d: d["split"].update(scores=-1.0), "model's 'split' needs 2 finite, non-positive numbers for 'scores'"),
    ],
    ids=["no-split", "split-list", "split-no-scores", "split-extra-key", "rows-short", "rows-long", "rows-repeated",
         "rows-too-high", "rows-negative", "rows-float", "rows-bool", "rows-string", "kappa1-zero", "kappa1-n1",
         "kappa1-float", "kappa1-bool", "kappa1-null", "scores-short", "scores-long", "scores-positive", "scores-nan",
         "scores-inf", "scores-null", "scores-string", "scores-bool", "scores-number"],
)
def test_model_with_a_bad_split_record_is_rejected(tmp_path, edit, message):
    """A model fit wrote before it calibrated has no split record; one edited
    by hand is checked key by key against its n = 4 pairs (n1 = 2, n2 = 2)."""
    path = tmp_path / "model.json"
    document = _saved_model(path)
    assert load_regression(path)[2][0].kappa == 1
    edit(document)
    path.write_text(json.dumps(document))
    with pytest.raises(ValueError) as excinfo:
        load_regression(path)
    assert str(excinfo.value) == f"{path}: {message}; rerun fit"


def test_readme_names_the_keys_the_model_file_holds(tmp_path):
    document = _saved_model(tmp_path / "model.json")
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = re.search(r"^- \*\*Model\*\*:(.*?)^- ", text, flags=re.MULTILINE | re.DOTALL).group(1)
    paragraph = " ".join(paragraph.split())
    keys = re.search(r"Its top-level keys are ([^.]*)\.", paragraph).group(1)
    settings = re.search(r"`config` records [^:]*: ([^.]*)\.", paragraph).group(1)
    assert re.findall(r"`(\w+)`", keys) == list(document)
    assert re.findall(r"`(\w+)`", settings) == list(document["config"]) == list(MODEL_SETTINGS)


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
    band = ConformalBand(Curve(grid, np.zeros(20)), math.inf, alpha=0.01)
    save_conformal_band(band, tmp_path / "band.json", 2.5)
    document = json.loads((tmp_path / "band.json").read_text())
    assert document["half_width"] is None and "degenerate" not in document  # null alone marks it
    back, _ = load_conformal_band(tmp_path / "band.json")
    assert back.degenerate and math.isinf(back.half_width)
    # files written with the former 'degenerate' key still load: the loader ignores extra keys
    (tmp_path / "band.json").write_text(json.dumps({**document, "degenerate": True}))
    assert load_conformal_band(tmp_path / "band.json")[0].degenerate


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(half_width=[1]), "band needs a number for 'half_width', found [1]"),
        (lambda d: d.update(grid={}), "band needs a list of numbers for 'grid'"),
        (lambda d: d.update(alpha="0.1"), "band needs a number for 'alpha', found '0.1'"),
        (lambda d: d.update(alpha=None), "band needs a number for 'alpha', found None"),
        (lambda d: d.update(half_width="0.4"), "band needs a number for 'half_width', found '0.4'"),
        (lambda d: d.update(normalization=True), "band needs a number for 'normalization', found True"),
        (lambda d: d.update(normalization="2.5"), "band needs a number for 'normalization', found '2.5'"),
        (lambda d: d.update(grid=[str(v) for v in d["grid"]]), "band needs a list of numbers for 'grid'"),
        (lambda d: d.update(center=[True] * 20), "band needs a list of numbers for 'center'"),
        (lambda d: d["center"].__setitem__(7, "1.0"), "band needs a list of numbers for 'center'"),
        (lambda d: d["center"].__setitem__(7, None), "band needs a list of numbers for 'center'"),
        (lambda d: d["center"].__setitem__(7, 10**400), "band needs a list of numbers for 'center'"),
        (lambda d: d.update(normalization=10**400), f"band needs a number for 'normalization', found {10**400!r}"),
        (lambda d: d.update(half_width=2**1024 - 2**970), f"band needs a number for 'half_width', found {2**1024 - 2**970!r}"),
        (lambda d: d.update(half_width=-0.5), "bad value in the band: half width must be non-negative"),
        (lambda d: d["center"].pop(), "bad value in the band: curve has 19 values for a 20-point grid"),
        (lambda d: d.pop("normalization"), "band has no 'normalization'"),
        (lambda d: d.update(normalization=0), "bad value in the band: normalization must be finite and positive, found 0"),
        (lambda d: d.update(normalization=-2.5),
         "bad value in the band: normalization must be finite and positive, found -2.5"),
        (lambda d: d.update(normalization=math.inf),
         "bad value in the band: normalization must be finite and positive, found inf"),
        (lambda d: d.update(alpha=7.5), "bad value in the band: alpha must be in (0, 1)"),
        (lambda d: d.update(alpha=0), "bad value in the band: alpha must be in (0, 1)"),
    ],
    ids=["half-width-list", "grid-object", "alpha-string", "alpha-null", "half-width-string",
         "normalization-true", "normalization-string", "grid-strings", "center-trues", "center-value-string",
         "center-value-null", "center-value-huge-int", "normalization-huge-int", "half-width-least-int-beyond-float",
         "half-width-negative", "center-short", "no-normalization",
         "normalization-zero", "normalization-negative", "normalization-inf", "alpha-above-1", "alpha-zero"],
)
def test_malformed_band_is_rejected_naming_the_file(tmp_path, edit, message):
    path = tmp_path / "band.json"
    save_conformal_band(ConformalBand(Curve(WavelengthGrid(np.linspace(1050.0, 1185.0, 20)), np.ones(20)), 0.4, 0.1),
                        path, 2.5)
    document = json.loads(path.read_text())
    edit(document)
    path.write_text(json.dumps(document))
    with pytest.raises(ValueError) as excinfo:
        load_conformal_band(path)
    assert str(excinfo.value) == f"{path}: {message}; rerun predict"


def test_writers_are_byte_identical_across_reruns(tmp_path):
    rng = np.random.default_rng(4)
    spectrum = _random_spectrum(rng)
    write_spectrum(tmp_path / "one.csv", spectrum)
    write_spectrum(tmp_path / "two.csv", spectrum)
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()



def test_a_write_failing_partway_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(path, "wavelength,flux\n" * 1000 + "\udc80")  # a lone surrogate encodes in no codec
    assert list(tmp_path.iterdir()) == []


def test_model_and_band_files_reload_bitwise_and_rewrite_identically(tmp_path):
    rng = np.random.default_rng(5)
    pred_grid = WavelengthGrid(np.linspace(1300.0, 1600.0, 40))
    resp_grid = WavelengthGrid(np.linspace(1050.0, 1185.0, 30))
    pairs = tuple(
        CurvePair(Curve(pred_grid, rng.normal(size=40) / 3.0), Curve(resp_grid, rng.normal(size=30) * 1e-7))
        for _ in range(6)
    )
    model = FittedRegression(pairs, SemimetricSpec.parse("l2"), KernelSpec(), kappa=2)
    band = ConformalBand(Curve(resp_grid, rng.normal(size=30) / 7.0), 0.1 + 0.2, alpha=0.1)
    model_extra = (PipelineConfig(predictor_points=40, response_points=30), _split(model))
    for name, save, obj, extra in (("model", save_regression, model, model_extra),
                                   ("band", save_conformal_band, band, (1 / 3,))):
        save(obj, tmp_path / f"{name}.json", *extra)
        save(obj, tmp_path / f"{name}_again.json", *extra)
        text = (tmp_path / f"{name}.json").read_bytes()
        assert text == (tmp_path / f"{name}_again.json").read_bytes()
        assert text.count(b"\n") == 1  # one line: the stdlib's C encoder, not its indenting Python one
    back, _, _ = load_regression(tmp_path / "model.json")
    assert back.predictor_matrix.tobytes() == model.predictor_matrix.tobytes()
    assert back.response_matrix.tobytes() == model.response_matrix.tobytes()
    assert back.predictor_grid.points.tobytes() == pred_grid.points.tobytes()
    assert back.response_grid.points.tobytes() == resp_grid.points.tobytes()
    band_back, normalization = load_conformal_band(tmp_path / "band.json")
    assert band_back.center.values.tobytes() == band.center.values.tobytes()
    assert (band_back.half_width, band_back.alpha, normalization) == (band.half_width, band.alpha, 1 / 3)
