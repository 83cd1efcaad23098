import json
import re
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from specband import evaluation
from specband.cli import main
from specband.conformal import band, calibrate
from specband.curves import Curve, WavelengthGrid, resample
from specband.fileio import (
    SpectrumRecord,
    load_conformal_band,
    load_regression,
    read_curve,
    read_manifest,
    read_spectrum,
    save_bootstrap_band,
    save_conformal_band,
    write_curve,
    write_error_summary,
    write_manifest,
    write_spectrum,
)
from specband.fpca import fit_fpca
from specband.mockgen import MockModel, generate
from specband.pipeline import MODEL_SETTINGS, load_config, smooth_spectra
from specband.regression import predict
from specband.wild_bootstrap import WildBootstrapConfig, bootstrap_bands

CONFIG = {
    "predictor_points": 40,
    "response_points": 30,
    "mock_grid_points": 140,
    "mock_count": 12,
    "span_candidates": [0.3, 0.6],
    "kappa_candidates": [2, 4],
    "alpha": 0.2,
    "bootstrap_components": 2,
    "bootstrap_replicates": 50,
    "seed": 7,
}


# predict's and bootstrap's settings from CONFIG; the rest comes from the model
# (fit took the seed for its conformal split from CONFIG)
QUERY_FLAGS = ["--alpha", "0.2"]
BOOTSTRAP_FLAGS = ["--seed", "7", *QUERY_FLAGS, "-m", "2", "-B", "50"]


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return path


@pytest.fixture()
def mock_dir(runner, config_path, tmp_path):
    out = tmp_path / "mocks"
    result = runner.invoke(
        main, ["mockgen", "--config", str(config_path), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    return out


@pytest.fixture()
def model_path(runner, config_path, mock_dir, tmp_path):
    path = tmp_path / "model.json"
    result = runner.invoke(
        main,
        [
            "fit",
            "--config", str(config_path),
            "--manifest", str(mock_dir / "manifest.json"),
            "--out", str(path),
        ],
    )
    assert result.exit_code == 0, result.output
    return path


@pytest.fixture()
def pred_dir(runner, mock_dir, model_path, tmp_path):
    out = tmp_path / "predictions"
    result = runner.invoke(
        main,
        [
            "predict", *QUERY_FLAGS,
            "--model", str(model_path),
            "--manifest", str(mock_dir / "manifest.json"),
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    assert "wrote predictions for 12 spectra" in result.output
    return out


def test_mockgen_writes_spectra_truths_and_manifest(mock_dir):
    records = read_manifest(mock_dir / "manifest.json")
    assert len(records) == 12
    for record in records:
        assert record.path.exists()
        assert record.truth_path is not None and record.truth_path.exists()
    assert (mock_dir / "model" / "mock_model.json").exists()


def test_mockgen_single_spectrum(runner, config_path, tmp_path):
    out = tmp_path / "one"
    result = runner.invoke(
        main,
        ["mockgen", "--config", str(config_path), "--count", "1", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert len(read_manifest(out / "manifest.json")) == 1


def test_mockgen_reruns_are_byte_identical(runner, config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        result = runner.invoke(
            main, ["mockgen", "--config", str(config_path), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
    for sub in ("manifest.json", "spectra/mock_0003.csv", "truths/mock_0003.csv"):
        assert (out1 / sub).read_bytes() == (out2 / sub).read_bytes()


def test_mockgen_writes_the_library_s_draws(runner, config_path, tmp_path):
    out = tmp_path / "three"
    result = runner.invoke(main, ["mockgen", "--config", str(config_path), "--count", "3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    saved = json.loads((out / "model" / "mock_model.json").read_text())
    model = MockModel(
        mu=read_curve(out / "model" / saved["mean_path"]),
        xi=np.stack([read_curve(out / "model" / entry["path"]).values for entry in saved["components"]]),
        eigenvalues=np.array([entry["eigenvalue"] for entry in saved["components"]]),
        sigma=read_curve(out / "model" / saved["sigma_path"]),
    )
    for i, mock in enumerate(generate(model, 3, CONFIG["seed"])):
        assert np.array_equal(read_spectrum(out / "spectra" / f"mock_{i:04d}.csv").flux, mock.noisy.flux)
        assert np.array_equal(read_curve(out / "truths" / f"mock_{i:04d}.csv").values, mock.true_continuum.values)


def test_fit_reports_cv_table_and_kappa(runner, config_path, mock_dir, tmp_path):
    out = tmp_path / "model.json"
    result = runner.invoke(
        main,
        [
            "fit",
            "--config", str(config_path),
            "--manifest", str(mock_dir / "manifest.json"),
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    assert "kappa  loo_error" in result.output
    assert "selected kappa=" in result.output
    document = json.loads(out.read_text())
    assert document["kind"] == "knn_functional_regression"
    assert len(document["predictors"]) == 12


def test_fit_calibrates_its_seeded_split_once_and_stores_it(runner, config_path, mock_dir, tmp_path):
    """fit's seed draws the conformal split; the model file keeps calibrate's
    fitting rows (in draw order, unsorted), kappa and scores, and fit reports
    them on a line after the one that names the selected kappa."""
    out = tmp_path / "model.json"
    result = runner.invoke(main, ["fit", "--config", str(config_path), "--manifest", str(mock_dir / "manifest.json"),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    model, _, _ = load_regression(out)
    config = load_config(config_path)
    calibration = calibrate(model.pairs, config.alpha, model.semimetric, model.kernel, config.kappa_candidates,
                            split_seed=7)
    split = json.loads(out.read_text())["split"]
    assert split == {"rows": list(calibration.fit_rows), "kappa": calibration.trained_model.kappa,
                     "scores": calibration.calibration_scores.tolist()}
    assert split["rows"] == np.random.default_rng(7).permutation(12)[:6].tolist() != sorted(split["rows"])
    lines = result.output.splitlines()
    assert split["kappa"] == 4
    assert lines[-2:] == ["conformal split (seed 7): kappa1=4 on n1=6 pairs, n2=6 scores",
                          "kappa1=4 is the largest usable candidate of [2, 4]; a larger one might score lower"]
    assert re.search(r"selected kappa=(\d+) on n=(\d+)", result.output).group(0) == f"selected kappa={model.kappa} on n=12"
    assert "selected kappa=" not in lines[-1]


def test_fit_needs_four_usable_spectra(runner, config_path, mock_dir, tmp_path):
    """fit calibrates a split of its pairs, two to fit on and two to score, so
    it takes 4 usable spectra; predict-only spectra are not counted."""
    records = [SpectrumRecord(r.id, r.path, r.z) for r in read_manifest(mock_dir / "manifest.json")]
    manifest, out = tmp_path / "few.json", tmp_path / "m.json"
    for listed in (records[:3], [*records[:3], SpectrumRecord(records[3].id, records[3].path, predict_only=True)]):
        write_manifest(manifest, listed)
        result = runner.invoke(main, ["fit", "--config", str(config_path), "--manifest", str(manifest), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output.splitlines()[-1] == "error: need at least 4 usable spectra to fit, got 3"
        assert not out.exists()
    write_manifest(manifest, records[:4])
    result = runner.invoke(main, ["fit", "--config", str(config_path), "--manifest", str(manifest), "--out", str(out)])
    assert result.exit_code == 0, result.output


def test_fit_counts_a_candidate_above_n_minus_1_as_n_minus_1(runner, config_path, mock_dir, tmp_path, monkeypatch):
    """40 on 12 pairs is cross-validated as 11, which leave-one-out clamps to
    10, so its row ties with 10's and kappa stays the one chosen without it;
    alone, 40 fixes kappa = 11 without CV."""
    def fit(candidates):
        out = tmp_path / "m.json"
        result = runner.invoke(main, ["fit", "--config", str(config_path), "--kappa-candidates", candidates,
                                      "--manifest", str(mock_dir / "manifest.json"), "--out", str(out)])
        assert result.exit_code == 0, result.output
        return result.output.replace(str(out), "m.json").splitlines()

    without, clamped = fit("2,4,10"), fit("2,4,10,40")
    assert clamped[:4] == without[:4] and clamped[-2] == without[-3] == "selected kappa=10 on n=12 pairs -> m.json"
    # 10 is the largest usable candidate only without 40
    assert without[-2] == "kappa=10 is the largest usable candidate of [2, 4, 10]; a larger one might score lower"
    assert clamped[4] == "   11" + without[3][5:]
    assert clamped[-1] == without[-1]  # the split model's 6 pairs cross-validate 2,4,5 either way
    monkeypatch.setattr("specband.regression.kappa_cv_scores", None)  # any CV call fails
    assert fit("40") == ["selected kappa=11 on n=12 pairs -> m.json",
                         "conformal split (seed 7): kappa1=5 on n1=6 pairs, n2=6 scores"]


def test_fit_flags_a_kappa_loo_chose_at_an_end_of_the_usable_candidates(runner, config_path, mock_dir, tmp_path):
    """A line after the selected kappa's, and after the split's, names a kappa
    LOO chose at the largest or smallest usable candidate; a kappa in between or
    fixed without CV gets none, and no such line repeats "selected kappa="."""
    def fit(candidates):
        result = runner.invoke(main, ["fit", "--config", str(config_path), "--kappa-candidates", candidates,
                                      "--manifest", str(mock_dir / "manifest.json"), "--out", str(tmp_path / "m.json")])
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert sum("selected kappa=" in line for line in lines) == 1
        return [line for line in lines if " usable candidate " in line]

    assert fit("2,4") == ["kappa=4 is the largest usable candidate of [2, 4]; a larger one might score lower",
                          "kappa1=4 is the largest usable candidate of [2, 4]; a larger one might score lower"]
    # the split's 6 pairs choose 4 of 2, 4 and 5 (10 counting as 5)
    assert fit("2,4,10") == ["kappa=10 is the largest usable candidate of [2, 4, 10]; a larger one might score lower"]
    # leave-one-out scores 11 as 10, and the tie goes to the smaller; the split's 5 is fixed without CV
    assert fit("10,11") == ["kappa=10 is the smallest usable candidate of [10, 11]; a smaller one might score lower"]
    assert fit("3") == []


def test_one_candidate_fixes_kappa_and_span_without_cv(runner, config_path, mock_dir, tmp_path, monkeypatch):
    """A one-element candidate list is used as given: no span CV and no kappa
    CV run, fit prints no CV table, and the split-conformal model fit stores
    takes the same kappa."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a single candidate must not be cross-validated")

    monkeypatch.setattr("specband.smoothing.span_cv_table", forbidden)
    monkeypatch.setattr("specband.regression.kappa_cv_scores", forbidden)
    manifest, model = str(mock_dir / "manifest.json"), tmp_path / "model.json"
    result = runner.invoke(main, ["fit", "--config", str(config_path), "--kappa-candidates", "3",
                                  "--span-candidates", "0.5", "--manifest", manifest, "--out", str(model)])
    assert result.exit_code == 0, result.output
    assert result.output == (f"selected kappa=3 on n=12 pairs -> {model}\n"
                             "conformal split (seed 7): kappa1=3 on n1=6 pairs, n2=6 scores\n")
    _, settings, (split_model, _) = load_regression(model)
    assert settings["kappa_candidates"] == [3]
    assert split_model.kappa == 3


def _unusable_spectra(mock_dir, tmp_path):
    """Training records plus two spectra fit must not smooth: one with no
    response-range samples, one with 12 (enough for a one-span list, too few
    for span cross-validation)."""
    records = read_manifest(mock_dir / "manifest.json")
    spectrum = read_spectrum(records[0].path)
    wl = spectrum.wavelengths
    paths = {}
    for name, keep in (("trunc", wl >= 1300.0), ("short", wl >= wl[wl <= 1185.0][-12])):
        paths[name] = tmp_path / f"{name}.csv"
        write_spectrum(
            paths[name],
            type(spectrum)(wl[keep], spectrum.flux[keep], spectrum.noise_sd[keep], 0.0),
        )
    return records, paths


def _spectrum_manifest(mock_dir, tmp_path, name, edit):
    """The training records with one more spectrum, the first mock edited."""
    records = read_manifest(mock_dir / "manifest.json")
    path = tmp_path / f"{name}.csv"
    write_spectrum(path, edit(read_spectrum(records[0].path)))
    manifest = tmp_path / f"{name}_manifest.json"
    write_manifest(manifest, [SpectrumRecord(r.id, r.path, r.z) for r in records[:4]] + [SpectrumRecord(name, path)])
    return manifest


def _keep(spectrum, keep):
    return type(spectrum)(spectrum.wavelengths[keep], spectrum.flux[keep], spectrum.noise_sd[keep])


@pytest.mark.parametrize("command", ["fit", "predict", "bootstrap"])
@pytest.mark.parametrize(
    "name, edit, range_, found",
    [
        ("trunc", lambda s: _keep(s, s.wavelengths >= 1300.0), "[1050.0, 1185.0]", 0),
        ("short", lambda s: _keep(s, s.wavelengths >= s.wavelengths[s.wavelengths <= 1185.0][-12]),
         "[1050.0, 1185.0]", 12),
        ("fewpred", lambda s: _keep(s, s.wavelengths <= s.wavelengths[s.wavelengths >= 1300.0][11]),
         "[1300.0, 1600.0]", 12),
    ],
    ids=["trunc", "short", "fewpred"],
)
def test_unusable_spectrum_is_rejected_by_one_rule(
    runner, config_path, mock_dir, model_path, tmp_path, command, name, edit, range_, found
):
    """fit smooths both ranges, predict and bootstrap the predictor range
    alone, all by the same rule; a spectrum with too few samples in one stops
    the command before it writes anything, with one message naming the
    spectrum (bootstrap's by its path), the rest-frame range and the samples
    found there."""
    manifest = _spectrum_manifest(mock_dir, tmp_path, name, edit)
    out = tmp_path / "out"
    command_args = {
        "fit": ["--config", str(config_path), "--manifest", str(manifest)],
        "predict": [*QUERY_FLAGS, "--model", str(model_path), "--manifest", str(manifest)],
        "bootstrap": [*BOOTSTRAP_FLAGS, "--model", str(model_path), "--spectrum", str(tmp_path / f"{name}.csv")],
    }
    result = runner.invoke(main, [command, *command_args[command], "--out", str(out)])
    if command != "fit" and range_ == "[1050.0, 1185.0]":
        assert result.exit_code == 0, result.output
        return
    assert result.exit_code == 2, result.output
    label = tmp_path / f"{name}.csv" if command == "bootstrap" else name
    assert result.output.strip() == (
        f"error: spectrum {label}, rest-frame range {range_}: "
        f"span cross-validation needs at least 20 samples, found {found}"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("negative", lambda s: type(s)(s.wavelengths, -s.flux, s.noise_sd),
         "cannot normalize spectrum negative: smoothed flux is not positive at 1300.0"),
    ],
)
def test_predict_names_the_spectrum_it_cannot_smooth(runner, mock_dir, model_path, tmp_path, name, edit, message):
    """Every spectrum is smoothed before anything is written, so the id is
    what tells the user which one to fix."""
    manifest = _spectrum_manifest(mock_dir, tmp_path, name, edit)
    out = tmp_path / "pred"
    result = runner.invoke(
        main, ["predict", *QUERY_FLAGS, "--model", str(model_path), "--manifest", str(manifest), "--out", str(out)]
    )
    assert result.exit_code == 2, result.output
    assert result.output.strip() == f"error: {message}"
    assert not out.exists()


def test_fit_names_the_spectrum_it_cannot_normalize(runner, config_path, mock_dir, tmp_path):
    manifest = _spectrum_manifest(mock_dir, tmp_path, "negative", lambda s: type(s)(s.wavelengths, -s.flux, s.noise_sd))
    out = tmp_path / "m.json"
    result = runner.invoke(main, ["fit", "--config", str(config_path), "--manifest", str(manifest), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "cannot normalize spectrum negative: smoothed flux is not positive" in result.output
    assert not out.exists()


def test_fit_rejects_a_manifest_that_is_not_a_json_object(runner, config_path, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("[1]")
    result = runner.invoke(
        main, ["fit", "--config", str(config_path), "--manifest", str(manifest), "--out", str(tmp_path / "m.json")]
    )
    assert result.exit_code == 2, result.output
    assert result.output.strip() == f"error: {manifest}: not a JSON object (found a list)"


@pytest.mark.parametrize("kind", ["manifest", "model", "config", "band", "spectrum"])
def test_a_file_that_is_not_json_or_not_utf8_is_named(runner, config_path, mock_dir, model_path, pred_dir, tmp_path, kind):
    manifest = mock_dir / "manifest.json"
    broken = {"manifest": manifest, "model": model_path, "config": config_path,
              "band": pred_dir / "mock_0003_band.json", "spectrum": mock_dir / "spectra" / "mock_0002.csv"}[kind]
    if kind == "spectrum":
        broken.write_bytes(broken.read_bytes().replace(b"\n", b"\n\xff", 1))
        message = "'utf-8' codec can't decode byte 0xff in position 25: invalid start byte"
    else:
        broken.write_text('{"schema_version": 1, x}')
        message = "Expecting property name enclosed in double quotes: line 1 column 23 (char 22)"
    args = {"manifest": ["fit", "--manifest", str(manifest), "--out", str(tmp_path / "m.json")],
            "model": ["predict", "--model", str(model_path), "--manifest", str(manifest), "--out", str(tmp_path / "p")],
            "config": ["mockgen", "--config", str(config_path), "--out", str(tmp_path / "mocks")],
            "band": ["eval", "--predictions", str(pred_dir), "--manifest", str(manifest), "--out", str(tmp_path / "e")],
            "spectrum": ["fit", "--manifest", str(manifest), "--out", str(tmp_path / "m.json")]}[kind]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.output.strip() == f"error: {broken}: {message}"


@pytest.mark.parametrize(
    "flag, value, message",
    [("--kappa-candidates", "2,x", "--kappa-candidates needs comma-separated integers, found 'x'"),
     ("--kappa-candidates", "2.5", "--kappa-candidates needs comma-separated integers, found '2.5'"),
     ("--span-candidates", "0.5,,0.7", "--span-candidates needs comma-separated numbers, found ''")],
    ids=["kappa-text", "kappa-float", "span-empty"],
)
def test_a_bad_candidate_list_names_its_flag_and_item(runner, mock_dir, tmp_path, flag, value, message):
    result = runner.invoke(main, ["fit", flag, value, "--manifest", str(mock_dir / "manifest.json"),
                                  "--out", str(tmp_path / "m.json")])
    assert result.exit_code == 2, result.output
    assert result.output.strip() == f"error: {message}"


@pytest.mark.parametrize(
    "key, value, rule",
    [("mock_variance_scale", -1.0, "finite and non-negative"), ("mock_variance_scale", float("inf"), "finite and non-negative"),
     ("mock_eigenvalue_decay", 0.0, "finite and positive"), ("mock_eigenvalue_decay", float("inf"), "finite and positive"),
     ("mock_components", 0, "at least 1")],
    ids=["variance-scale", "variance-scale-inf", "eigenvalue-decay", "eigenvalue-decay-inf", "components"],
)
def test_mockgen_names_the_config_key_of_a_model_setting_it_cannot_use(runner, tmp_path, key, value, rule):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value}))
    result = runner.invoke(main, ["mockgen", "--config", str(path), "--out", str(tmp_path / "mocks")])
    assert result.exit_code == 2, result.output
    assert result.output.strip() == f"error: config key {key!r} must be {rule}, got {value}"
    assert not (tmp_path / "mocks").exists()


def test_fit_skips_predict_only_spectra(runner, config_path, mock_dir, tmp_path):
    records, paths = _unusable_spectra(mock_dir, tmp_path)
    usable = records[6]
    manifest = tmp_path / "manifest.json"
    write_manifest(
        manifest,
        [SpectrumRecord(name, path, predict_only=True) for name, path in paths.items()]
        + [SpectrumRecord(usable.id, usable.path, usable.z, predict_only=True)]
        + [SpectrumRecord(r.id, r.path, r.z) for r in records[:6]],
    )
    out = tmp_path / "m.json"
    result = runner.invoke(
        main,
        ["fit", "--config", str(config_path), "--manifest", str(manifest), "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert "skipping predict-only spectrum trunc" in result.output
    assert "skipping predict-only spectrum short" in result.output
    assert f"skipping predict-only spectrum {usable.id}" in result.output
    predictors = json.loads(out.read_text())["predictors"]
    assert len(predictors) == 6
    pair, _ = smooth_spectra([read_spectrum(usable.path, usable.z)], load_config(config_path), pairs=True)[0]
    assert not any(np.array_equal(p, pair.predictor.values) for p in predictors)


def test_predict_writes_predictions_and_bands(config_path, mock_dir, pred_dir):
    records = read_manifest(mock_dir / "manifest.json")
    for record in records:
        assert (pred_dir / f"{record.id}_prediction.csv").exists()
    band = json.loads((pred_dir / "mock_0000_band.json").read_text())
    assert band["kind"] == "conformal_band"
    assert band["half_width"] > 0.0
    _, ref = smooth_spectra([read_spectrum(records[0].path)], load_config(config_path), pairs=False)[0]
    assert band["normalization"] == ref
    # evaluation is eval's job alone
    assert not (pred_dir / "relative_error_summary.csv").exists()
    assert not (pred_dir / "plain_error_summary.csv").exists()


def test_predict_warns_on_degenerate_alpha(runner, mock_dir, model_path, tmp_path):
    out = tmp_path / "predictions"
    result = runner.invoke(
        main,
        [
            "predict",
            "--model", str(model_path),
            "--manifest", str(mock_dir / "manifest.json"),
            "--alpha", "0.01",
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    # degeneracy depends only on alpha and n2: one warning for the whole manifest
    assert len(read_manifest(mock_dir / "manifest.json")) > 1
    warnings = [line for line in result.output.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1 and "degenerate" in warnings[0], result.output
    band = json.loads((out / "mock_0000_band.json").read_text())
    assert band["half_width"] is None


@pytest.mark.parametrize("semimetric", ["l2", "deriv1"])
@pytest.mark.parametrize("seed", [0, 7])
def test_predict_writes_the_bands_of_the_split_fit_stored(runner, config_path, mock_dir, tmp_path, seed, semimetric):
    """predict rebuilds the split model from the stored rows and kappa: each
    file it writes is, byte for byte, the library's prediction and its band
    on calibrate(model.pairs, ..., split_seed=<fit's seed>)."""
    manifest, model_path, out = mock_dir / "manifest.json", tmp_path / "model.json", tmp_path / "pred"
    for step in (["fit", "--config", str(config_path), "--seed", str(seed), "--semimetric", semimetric,
                  "--manifest", str(manifest), "--out", str(model_path)],
                 ["predict", "--model", str(model_path), "--manifest", str(manifest), *QUERY_FLAGS, "--out", str(out)]):
        result = runner.invoke(main, step)
        assert result.exit_code == 0, result.output
    model, settings, _ = load_regression(model_path)
    config = load_config(**settings, alpha=0.2)
    calibration = calibrate(model.pairs, config.alpha, model.semimetric, model.kernel, config.kappa_candidates,
                            split_seed=seed)
    records, expected = read_manifest(manifest), tmp_path / "expected"
    smoothed = smooth_spectra([read_spectrum(r.path, r.z) for r in records], config, pairs=False)
    for record, (predictor, ref) in zip(records, smoothed):
        write_curve(expected / f"{record.id}_prediction.csv", predict(model, predictor))
        save_conformal_band(band(calibration, predictor), expected / f"{record.id}_band.json", ref)
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in expected.iterdir())
    for path in expected.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


def test_predict_fits_and_calibrates_nothing(runner, mock_dir, model_path, pred_dir, tmp_path, monkeypatch):
    monkeypatch.setattr("specband.regression.kappa_cv_scores", None)  # any CV call fails
    monkeypatch.setattr("specband.conformal.calibrate", None)  # and so does any calibration
    out = tmp_path / "again"
    result = runner.invoke(main, ["predict", "--model", str(model_path), "--manifest", str(mock_dir / "manifest.json"),
                                  *QUERY_FLAGS, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in pred_dir.iterdir())
    assert all((out / p.name).read_bytes() == p.read_bytes() for p in pred_dir.iterdir())


def test_bootstrap_writes_band_and_scree(runner, mock_dir, model_path, tmp_path):
    records = read_manifest(mock_dir / "manifest.json")
    out = tmp_path / "bootstrap"
    result = runner.invoke(
        main,
        [
            "bootstrap", *BOOTSTRAP_FLAGS,
            "--model", str(model_path),
            "--spectrum", str(records[0].path),
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    band = json.loads((out / "bootstrap_band.json").read_text())
    assert band["kind"] == "bootstrap_band"
    assert len(band["intervals"]) == 2
    scree = (out / "scree.csv").read_text().splitlines()
    assert scree[0] == "component,eigenvalue,cumulative_fraction"
    assert len(scree) > 2


def test_bootstrap_single_component(runner, mock_dir, model_path, tmp_path):
    records = read_manifest(mock_dir / "manifest.json")
    out = tmp_path / "bootstrap"
    result = runner.invoke(
        main,
        [
            "bootstrap", "--seed", "7", *QUERY_FLAGS, "-B", "50",
            "--model", str(model_path),
            "--spectrum", str(records[1].path),
            "--components", "1",
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    band = json.loads((out / "bootstrap_band.json").read_text())
    assert len(band["intervals"]) == 1


def test_bootstrap_rejects_unresolvable_quantiles(runner, mock_dir, model_path, tmp_path):
    records = read_manifest(mock_dir / "manifest.json")
    result = runner.invoke(
        main,
        [
            "bootstrap", "--seed", "7", *QUERY_FLAGS, "-m", "2",
            "--model", str(model_path),
            "--spectrum", str(records[0].path),
            "--replicates", "5",
            "--out", str(tmp_path / "bootstrap"),
        ],
    )
    assert result.exit_code == 2
    assert "increase B" in result.output


def test_predict_and_bootstrap_treat_queries_as_fit_did(runner, mock_dir, tmp_path):
    """Given no settings, predict and bootstrap smooth, normalize and calibrate
    with the config fit recorded, which here is far from the defaults."""
    config_path = tmp_path / "fit_config.json"
    config_path.write_text(json.dumps(
        {"predictor_points": 40, "response_points": 30, "kappa_candidates": [3, 5],
         "normalization_wavelength": 1400.0, "semimetric": "deriv1"}
    ))
    manifest, model_path = mock_dir / "manifest.json", tmp_path / "model.json"
    records = read_manifest(manifest)
    steps = [
        ["fit", "--config", str(config_path), "--span-candidates", "0.2,0.5,0.8",
         "--manifest", str(manifest), "--out", str(model_path)],
        ["predict", "--model", str(model_path), "--manifest", str(manifest), "--out", str(tmp_path / "pred")],
        ["bootstrap", "--model", str(model_path), "--spectrum", str(records[2].path),
         "--out", str(tmp_path / "boot")],
    ]
    for step in steps:
        result = runner.invoke(main, step)
        assert result.exit_code == 0, result.output

    config = load_config(config_path, span_candidates=[0.2, 0.5, 0.8])
    model, settings, _ = load_regression(model_path)
    assert settings["span_candidates"] == [0.2, 0.5, 0.8]
    assert settings["normalization_wavelength"] == 1400.0
    assert load_config(**settings).semimetric == "deriv1"
    assert model.semimetric.token == "deriv1"
    expected = tmp_path / "expected"
    calibration = calibrate(
        model.pairs, config.alpha, model.semimetric, model.kernel,
        config.kappa_candidates, split_seed=config.seed,
    )
    for record in records:
        predictor, ref = smooth_spectra([read_spectrum(record.path, record.z)], config, pairs=False)[0]
        write_curve(expected / f"{record.id}_prediction.csv", predict(model, predictor))
        save_conformal_band(band(calibration, predictor), expected / f"{record.id}_band.json", ref)
        for suffix in ("_prediction.csv", "_band.json"):
            name = record.id + suffix
            assert (tmp_path / "pred" / name).read_bytes() == (expected / name).read_bytes(), name

    predictor, _ = smooth_spectra([read_spectrum(records[2].path)], config, pairs=False)[0]
    fpca_model = fit_fpca([p.response for p in model.pairs], config.bootstrap_components)
    boot = bootstrap_bands(
        model.pairs, model, predictor, fpca_model,
        WildBootstrapConfig(replicates=config.bootstrap_replicates, components=config.bootstrap_components,
                            alpha=config.alpha, seed=config.seed),
    )
    save_bootstrap_band(boot, expected / "bootstrap_band.json")
    assert (tmp_path / "boot" / "bootstrap_band.json").read_bytes() == (
        expected / "bootstrap_band.json"
    ).read_bytes()


def _query_args(command, mock_dir):
    return {
        "predict": ["--manifest", str(mock_dir / "manifest.json")],
        "bootstrap": ["--spectrum", str(read_manifest(mock_dir / "manifest.json")[0].path)],
    }[command]


@pytest.mark.parametrize("command", ["predict", "bootstrap"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda record: record.clear(), "model has no 'config'"),
        (lambda record: record.pop("span_candidates"), "model has no 'config'"),
        (lambda record: record.update(span_candidates=[0.5, 1.5]), "candidate span"),
        (lambda record: record.update(predictor_points="40"), "'predictor_points'"),
        (lambda record: record.update(semimetric="foo"), "unknown semimetric 'foo'"),
        # the `span` key that older models carry
        (lambda record: record.update(span=None),
         f"model has no 'config' recording {list(MODEL_SETTINGS)} (its keys differ in ['span'])"),
        # models that kept their grids and semimetric beside the record
        (lambda record: record.pop("semimetric"),
         f"model has no 'config' recording {list(MODEL_SETTINGS)} (its keys differ in ['semimetric'])"),
        # JSON integers have no size limit; one that no float holds is not a number
        (lambda record: record.update(span_candidates=[0.3, 10**400]),
         f"config key 'span_candidates' needs float values, got {10**400!r}"),
        (lambda record: record.update(predictor_range=[1300.0, 10**400]),
         f"config key 'predictor_range' needs float values, got {10**400!r}"),
    ],
    ids=["no-record", "partial-record", "bad-span", "bad-type", "bad-semimetric", "old-span-record",
         "old-grids-record", "span-int-beyond-float", "range-int-beyond-float"],
)
def test_model_without_a_valid_config_record_is_rejected(
    runner, mock_dir, model_path, tmp_path, command, edit, message
):
    document = json.loads(model_path.read_text())
    edit(document["config"])
    model_path.write_text(json.dumps(document))
    query = _query_args(command, mock_dir)
    result = runner.invoke(main, [command, "--model", str(model_path), *query, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert f"error: {model_path}: " in result.output
    assert result.output.rstrip().endswith("rerun fit")
    if "model has no" not in message:
        assert "in the model's 'config' record" in result.output


@pytest.mark.parametrize("key", ["predictors", "responses", "kappa"])
def test_model_missing_a_key_is_rejected(runner, mock_dir, model_path, tmp_path, key):
    document = json.loads(model_path.read_text())
    del document[key]
    model_path.write_text(json.dumps(document))
    query = _query_args("predict", mock_dir)
    result = runner.invoke(main, ["predict", "--model", str(model_path), *query, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert result.output.strip() == f"error: {model_path}: model has no {key!r}; rerun fit"


def test_badly_typed_manifest_or_model_value_exits_with_code_two(runner, config_path, mock_dir, model_path, tmp_path):
    manifest = json.loads((mock_dir / "manifest.json").read_text())
    manifest["spectra"][3]["predict_only"] = "false"
    bad_manifest = mock_dir / "bad_manifest.json"
    bad_manifest.write_text(json.dumps(manifest))
    result = runner.invoke(
        main, ["fit", "--config", str(config_path), "--manifest", str(bad_manifest), "--out", str(tmp_path / "m.json")]
    )
    assert result.exit_code == 2, result.output
    assert result.output.strip() == f"error: {bad_manifest}: spectrum entry 3 needs true or false for 'predict_only', found 'false'"

    document = json.loads(model_path.read_text())
    document["kappa"] = 2.7
    model_path.write_text(json.dumps(document))
    query = _query_args("predict", mock_dir)
    result = runner.invoke(main, ["predict", "--model", str(model_path), *query, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert result.output.strip() == f"error: {model_path}: model's 'kappa' is not an integer: 2.7; rerun fit"


def test_malformed_model_exits_with_code_two_naming_the_file(runner, mock_dir, model_path, tmp_path):
    saved = json.loads(model_path.read_text())
    edits = {
        "config": ({**saved["config"], "predictor_points": saved["config"]["predictor_points"] + 1},
                   "bad value in the model: "),
        "predictors": ([{"flux": row} for row in saved["predictors"]], "model's 'predictors' row 0 is not a list"),
        "responses": ([[str(v) for v in row] for row in saved["responses"]], "model's 'responses' row 0 is not a list"),
        "kappa": (0, "bad value in the model: "),
    }
    query = _query_args("predict", mock_dir)
    for key, (value, message) in edits.items():
        model_path.write_text(json.dumps({**saved, key: value}))
        result = runner.invoke(main, ["predict", "--model", str(model_path), *query, "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, (key, result.output)
        assert result.output.startswith(f"error: {model_path}: {message}"), result.output
        assert result.output.strip().endswith("; rerun fit")


@pytest.mark.parametrize("command", ["predict", "bootstrap"])
def test_bad_flag_value_is_not_blamed_on_the_model(runner, mock_dir, model_path, tmp_path, command):
    query = _query_args(command, mock_dir)
    result = runner.invoke(
        main, [command, "--model", str(model_path), *query, "--alpha", "1.5", "--out", str(tmp_path / "out")]
    )
    assert result.exit_code == 2, result.output
    assert result.output.strip() == "error: alpha must be in (0, 1)"


def _eval(runner, pred_dir, manifest, out):
    return runner.invoke(
        main,
        ["eval", "--predictions", str(pred_dir), "--manifest", str(manifest), "--out", str(out)],
    )


def test_eval_divides_truths_by_the_normalization_predict_used(
    runner, config_path, mock_dir, pred_dir, tmp_path
):
    eval_out = tmp_path / "eval"
    result = _eval(runner, pred_dir, mock_dir / "manifest.json", eval_out)
    assert result.exit_code == 0, result.output

    config = load_config(config_path)
    records = read_manifest(mock_dir / "manifest.json")
    predictions, truths = [], []
    for record in records:
        prediction = read_curve(pred_dir / f"{record.id}_prediction.csv")
        _, ref = smooth_spectra([read_spectrum(record.path, record.z)], config, pairs=False)[0]
        truth = resample(read_curve(record.truth_path), prediction.grid)
        predictions.append(prediction)
        truths.append(truth.with_values(truth.values / ref))
    expected = tmp_path / "expected"
    for name, error in (("relative", evaluation.relative_error), ("plain", evaluation.plain_error)):
        summary = evaluation.summarize([error(p, t) for p, t in zip(predictions, truths)])
        write_error_summary(expected / f"{name}_error_summary.csv", summary)
        assert (eval_out / f"{name}_error_summary.csv").read_bytes() == (
            expected / f"{name}_error_summary.csv"
        ).read_bytes()
    bands = [load_conformal_band(pred_dir / f"{r.id}_band.json")[0] for r in records]
    coverage = evaluation.coverage_rate(bands, truths)
    assert f"band coverage {coverage:.3f} over 12 spectra" in result.output


def test_eval_reads_no_spectrum_and_smooths_nothing(
    runner, mock_dir, pred_dir, tmp_path, monkeypatch
):
    def forbidden(*args, **kwargs):
        raise AssertionError("eval must not read or smooth a raw spectrum")

    for target in (
        "specband.cli.smooth_spectra",
        "specband.fileio.read_spectrum",
        "specband.pipeline.select_spans",
        "specband.pipeline.smooth_block",
        "specband.smoothing._fit_values",
    ):
        monkeypatch.setattr(target, forbidden)
    result = _eval(runner, pred_dir, mock_dir / "manifest.json", tmp_path / "eval")
    assert result.exit_code == 0, result.output
    assert (tmp_path / "eval" / "relative_error_summary.csv").exists()


def test_eval_rejects_band_without_normalization(runner, mock_dir, pred_dir, tmp_path):
    path = pred_dir / "mock_0003_band.json"
    document = json.loads(path.read_text())
    del document["normalization"]
    path.write_text(json.dumps(document))
    result = _eval(runner, pred_dir, mock_dir / "manifest.json", tmp_path / "eval")
    assert result.exit_code == 2
    assert "mock_0003_band.json" in result.output
    assert "normalization" in result.output


def test_eval_rejects_malformed_band_naming_the_file(runner, mock_dir, pred_dir, tmp_path):
    path = pred_dir / "mock_0003_band.json"
    saved = json.loads(path.read_text())
    for edit, message in (({"half_width": [1]}, "band needs a number for 'half_width', found [1]"),
                          ({"grid": {}}, "band needs a list of numbers for 'grid'"),
                          ({"alpha": "0.1"}, "band needs a number for 'alpha', found '0.1'")):
        path.write_text(json.dumps({**saved, **edit}))
        result = _eval(runner, pred_dir, mock_dir / "manifest.json", tmp_path / "eval")
        assert result.exit_code == 2, (edit, result.output)
        assert result.output.strip() == f"error: {path}: {message}; rerun predict"
    path.write_text(json.dumps({**saved, "normalization": 0}))  # eval would divide by it
    result = _eval(runner, pred_dir, mock_dir / "manifest.json", tmp_path / "eval")
    assert result.exit_code == 2
    assert result.output.strip() == (
        f"error: {path}: bad value in the band: normalization must be finite and positive, found 0; rerun predict")


def test_integer_beyond_float_range_exits_with_code_two_naming_the_file(runner, config_path, mock_dir, model_path,
                                                                        pred_dir, tmp_path):
    # JSON integers have no size limit; one that no float holds is not a number
    # here, so it is a bad value in its file (exit 2), not a numerical failure
    huge = 10**400
    manifest = json.loads((mock_dir / "manifest.json").read_text())
    manifest["spectra"][2]["z"] = huge
    bad_manifest = mock_dir / "huge_z.json"
    bad_manifest.write_text(json.dumps(manifest))
    result = runner.invoke(
        main, ["fit", "--config", str(config_path), "--manifest", str(bad_manifest), "--out", str(tmp_path / "m.json")]
    )
    assert result.exit_code == 2, result.output
    assert result.output.strip() == (
        f"error: {bad_manifest}: spectrum entry 2 needs a finite, non-negative number for 'z', found {huge!r}")

    band = pred_dir / "mock_0003_band.json"
    band.write_text(json.dumps({**json.loads(band.read_text()), "normalization": huge}))
    result = _eval(runner, pred_dir, mock_dir / "manifest.json", tmp_path / "eval")
    assert result.exit_code == 2, result.output
    assert result.output.strip() == f"error: {band}: band needs a number for 'normalization', found {huge!r}; rerun predict"

    document = json.loads(model_path.read_text())
    document["predictors"][4][7] = -huge
    model_path.write_text(json.dumps(document))
    result = runner.invoke(main, ["predict", "--model", str(model_path), *_query_args("predict", mock_dir),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert result.output.strip() == f"error: {model_path}: model's 'predictors' row 4 is not a list of numbers; rerun fit"


def test_manifest_id_cannot_place_outputs_outside_out(runner, mock_dir, model_path, tmp_path):
    before = sorted(tmp_path.rglob("*"))
    document = json.loads((mock_dir / "manifest.json").read_text())
    manifest = tmp_path / "escaping.json"
    for bad in ("../escaped/mock_0003", str(tmp_path / "absolute" / "mock_0003")):
        document["spectra"][3]["id"] = bad
        manifest.write_text(json.dumps(document))
        result = runner.invoke(main, ["predict", "--model", str(model_path), "--manifest", str(manifest),
                                      *QUERY_FLAGS, "--out", str(tmp_path / "pred" / "out")])
        assert result.exit_code == 2, result.output
        assert result.output.strip() == (f"error: {manifest}: spectrum entry 3 needs a file name (not empty, "
                                         f"'.' or '..', no path separator) for 'id', found {bad!r}")
    assert sorted(tmp_path.rglob("*")) == sorted([*before, manifest])


# --kappa and --span, which no command takes, are listed so that every command rejects them
CONFIG_FLAGS = (
    "--config", "--seed", "--alpha", "--semimetric", "--kappa",
    "--kappa-candidates", "--span", "--span-candidates",
)
# the config flags each command takes: the settings it reads
KEPT_FLAGS = {
    "mockgen": {"--config", "--seed"},
    "fit": {"--config", "--seed", "--semimetric", "--kappa-candidates", "--span-candidates"},
    "predict": {"--alpha"},
    "bootstrap": {"--seed", "--alpha"},
    "eval": set(),
}


def test_commands_take_only_the_config_flags_they_read():
    for command, kept in KEPT_FLAGS.items():
        options = {opt for param in main.commands[command].params for opt in param.opts}
        assert options & set(CONFIG_FLAGS) == kept, command


def _readme_flag_table() -> dict[str, set[str]]:
    """Each command's flags, both columns, as the README's command table lists them."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = {}
    for row in re.findall(r"^\| `(\w+)` \|(.*)\|$", text, flags=re.MULTILINE):
        code = " ".join(re.findall(r"`([^`]*)`", row[1]))
        table[row[0]] = set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", code))
    return table


def test_readme_flag_table_lists_each_commands_options():
    table = _readme_flag_table()
    assert sorted(table) == sorted(main.commands)
    for name, command in main.commands.items():
        options = {opt for param in command.params if isinstance(param, click.Option) for opt in param.opts}
        assert table[name] == options, name


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c, kept in KEPT_FLAGS.items() for f in CONFIG_FLAGS if f not in kept],
)
def test_removed_config_flags_are_rejected(runner, command, flag):
    result = runner.invoke(main, [command, flag, "1"])
    assert result.exit_code == 2
    assert "No such option" in result.output


@pytest.mark.parametrize(
    "document, message",
    [
        ({"kappa_candidates": 5}, "'kappa_candidates'"),
        ({"span_candidates": ["0.3"]}, "'span_candidates'"),
        ([1, 2], "config must be a JSON object"),
        ({"span_candidates": [10**400]}, "error: config key 'span_candidates' needs float values, got 1000"),
    ],
)
def test_malformed_config_exits_with_code_two(runner, mock_dir, tmp_path, document, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    result = runner.invoke(
        main,
        ["fit", "--config", str(path), "--manifest", str(mock_dir / "manifest.json"), "--out", str(tmp_path / "m.json")],
    )
    assert result.exit_code == 2, result.output
    assert message in result.output


@pytest.mark.parametrize("key, value", [("kappa", 3), ("span", 0.5)])
def test_config_with_a_fixed_value_key_is_rejected_naming_the_key(runner, mock_dir, tmp_path, key, value):
    """A fixed kappa or span is a one-element candidate list; the keys that
    once fixed them are unknown."""
    path = tmp_path / "old.json"
    path.write_text(json.dumps({key: value}))
    result = runner.invoke(
        main,
        ["fit", "--config", str(path), "--manifest", str(mock_dir / "manifest.json"), "--out", str(tmp_path / "m.json")],
    )
    assert result.exit_code == 2, result.output
    assert result.output.strip() == f"error: unknown config keys: [{key!r}]"


@pytest.mark.parametrize(
    "document, message",
    [
        ({"kappa_candidates": [0]}, "got kappa_candidates=(0,)"),
        ({"kappa_candidates": []}, "kappa_candidates=()"),
        ({"kappa_candidates": [0, 2]}, "kappa_candidates=(0, 2)"),
        ({"span_candidates": [1.5]}, "span must be in (0, 1]"),
        ({"span_candidates": []}, "span_candidates must not be empty"),
        ({"predictor_points": 1}, "error: config key 'predictor_points' must be at least 2, got 1"),
        ({"mock_grid_points": 0}, "error: config key 'mock_grid_points' must be at least 2, got 0"),
        ({"normalization_wavelength": 1200.0},
         "error: config key 'normalization_wavelength' must lie in predictor_range [1300.0, 1600.0], got 1200.0"),
        ({"predictor_range": [1600.0, 1300.0]}, "error: empty wavelength range [1600.0, 1300.0]"),
        ({"predictor_points": 10**400}, "error: config key 'predictor_points' must be at most sys.maxsize"),
        ({"kappa_candidates": [2, 10**400]}, "error: config key 'kappa_candidates' must be at most sys.maxsize"),
    ],
)
def test_fit_range_checks_its_config_before_reading_a_spectrum(
    runner, mock_dir, tmp_path, monkeypatch, document, message
):
    def forbidden(*args, **kwargs):
        raise AssertionError("fit must check its config before reading a spectrum")

    monkeypatch.setattr("specband.fileio.read_spectrum", forbidden)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    result = runner.invoke(
        main,
        ["fit", "--config", str(path), "--manifest", str(mock_dir / "manifest.json"), "--out", str(tmp_path / "m.json")],
    )
    assert result.exit_code == 2, result.output
    assert message in result.output


def test_validation_errors_exit_with_code_two(runner, config_path, tmp_path):
    bad_manifest = tmp_path / "missing.json"
    bad_manifest.write_text(json.dumps({"schema_version": 1, "kind": "spectrum_manifest", "spectra": []}))
    result = runner.invoke(
        main,
        ["fit", "--config", str(config_path), "--manifest", str(bad_manifest), "--out", str(tmp_path / "m.json")],
    )
    assert result.exit_code == 2


def test_unknown_config_key_is_rejected(runner, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"not_a_key": 1}))
    result = runner.invoke(
        main, ["mockgen", "--config", str(path), "--out", str(tmp_path / "out")]
    )
    assert result.exit_code == 2
    assert "unknown config keys" in result.output


def test_exit_code_mapping():
    import numpy as np
    import pytest as _pytest

    from specband.cli import EXIT_NUMERICAL, EXIT_VALIDATION, _exit_codes

    @_exit_codes
    def bad_input():
        raise ValueError("no")

    @_exit_codes
    def bad_numerics():
        raise np.linalg.LinAlgError("singular")

    with _pytest.raises(SystemExit) as info:
        bad_input()
    assert info.value.code == EXIT_VALIDATION
    with _pytest.raises(SystemExit) as info:
        bad_numerics()
    assert info.value.code == EXIT_NUMERICAL


def test_eval_names_the_spectrum_whose_band_is_on_another_grid(runner, mock_dir, pred_dir, tmp_path):
    path = pred_dir / "mock_0005_band.json"
    document = json.loads(path.read_text())
    document["grid"] = [g + 0.5 for g in document["grid"]]
    path.write_text(json.dumps(document))
    result = _eval(runner, pred_dir, mock_dir / "manifest.json", tmp_path / "eval")
    assert result.exit_code == 2, result.output
    assert result.output.strip() == "error: spectrum mock_0005: band and prediction grids differ; rerun predict"
    assert not (tmp_path / "eval").exists()


def test_eval_names_the_spectrum_whose_truth_does_not_cover_its_prediction(runner, mock_dir, pred_dir, tmp_path):
    record = read_manifest(mock_dir / "manifest.json")[4]
    truth = read_curve(record.truth_path)
    keep = truth.grid.points >= 1089.0
    write_curve(record.truth_path, Curve(WavelengthGrid(truth.grid.points[keep]), truth.values[keep]))
    result = _eval(runner, pred_dir, mock_dir / "manifest.json", tmp_path / "eval")
    assert result.exit_code == 2, result.output
    low = truth.grid.points[keep][0]
    assert result.output.strip() == (
        f"error: spectrum {record.id}'s truth: cannot resample: target wavelength 1050.0 "
        f"below curve range [{low}, {truth.grid.high}]")


@pytest.mark.parametrize(
    "value, message",
    [(10**400, f"config key 'mock_noise_level' needs float values, got {10**400!r}"),
     (-0.05, "noise_level must be non-negative")],
    ids=["int-beyond-float", "negative"],
)
def test_mockgen_rejects_a_noise_level_it_cannot_use(runner, tmp_path, value, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mock_noise_level": value}))
    result = runner.invoke(main, ["mockgen", "--config", str(path), "--out", str(tmp_path / "mocks")])
    assert result.exit_code == 2, result.output
    assert result.output.strip() == f"error: {message}"
    assert not (tmp_path / "mocks").exists()


def test_readers_name_the_spectrum_or_curve_file_a_bad_value_is_in(runner, config_path, mock_dir, pred_dir, tmp_path):
    manifest = mock_dir / "manifest.json"
    spectrum = read_manifest(manifest)[1].path
    spectrum.write_text("\n".join(spectrum.read_text().splitlines()[:6]) + "\n")  # header and 5 rows
    result = runner.invoke(main, ["fit", "--config", str(config_path), "--manifest", str(manifest),
                                  "--out", str(tmp_path / "m.json")])
    assert result.exit_code == 2, result.output
    assert result.output.strip() == f"error: {spectrum}: a raw spectrum needs at least 10 samples"

    spectrum.write_text("")
    result = runner.invoke(main, ["fit", "--config", str(config_path), "--manifest", str(manifest),
                                  "--out", str(tmp_path / "m.json")])
    assert result.exit_code == 2, result.output
    assert result.output.strip() == f"error: {spectrum}: empty spectrum file"

    path = pred_dir / "mock_0002_prediction.csv"
    header, *rows = path.read_text().splitlines()
    for body, message in ((rows[::-1], "grid points must be strictly increasing"),
                          (rows[:1], "a wavelength grid needs at least 2 points")):
        path.write_text("\n".join([header, *body]) + "\n")
        result = _eval(runner, pred_dir, manifest, tmp_path / "eval")
        assert result.exit_code == 2, result.output
        assert result.output.strip() == f"error: {path}: {message}"


def test_manifest_of_another_schema_or_without_truths_exits_with_code_two(runner, config_path, mock_dir, pred_dir,
                                                                          tmp_path):
    document = json.loads((mock_dir / "manifest.json").read_text())
    path = mock_dir / "other.json"
    path.write_text(json.dumps({**document, "schema_version": 2}))
    result = runner.invoke(main, ["fit", "--config", str(config_path), "--manifest", str(path),
                                  "--out", str(tmp_path / "m.json")])
    assert result.exit_code == 2, result.output
    assert result.output.strip() == f"error: {path}: unsupported schema version 2"

    for entry in document["spectra"]:
        del entry["truth_path"]
    path.write_text(json.dumps(document))
    result = _eval(runner, pred_dir, path, tmp_path / "eval")
    assert result.exit_code == 2, result.output
    assert result.output.strip() == "error: no manifest entry carries a truth_path"
