import json

import numpy as np
import pytest
from click.testing import CliRunner

from specband import evaluation
from specband.cli import main
from specband.conformal import band, calibrate
from specband.curves import resample
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
from specband.pipeline import load_config, spectrum_to_pair, spectrum_to_predictor
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
QUERY_FLAGS = ["--seed", "7", "--alpha", "0.2"]
BOOTSTRAP_FLAGS = [*QUERY_FLAGS, "-m", "2", "-B", "50"]


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


def _unusable_spectra(mock_dir, tmp_path):
    """Training records plus two spectra fit must not smooth: one with no
    response-range samples, one with 12 (enough for a fixed span, too few
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


def test_fit_rejects_spectrum_without_response_coverage(runner, config_path, mock_dir, tmp_path):
    records, paths = _unusable_spectra(mock_dir, tmp_path)
    for name, path in paths.items():
        manifest = tmp_path / f"{name}_manifest.json"
        write_manifest(
            manifest,
            [SpectrumRecord(name, path)] + [
                SpectrumRecord(r.id, r.path, r.z) for r in records[:4]
            ],
        )
        result = runner.invoke(
            main,
            ["fit", "--config", str(config_path), "--manifest", str(manifest), "--out", str(tmp_path / "m.json")],
        )
        assert result.exit_code == 2
        assert f"spectrum {name} has too few samples" in result.output


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
    pair, _ = spectrum_to_pair(read_spectrum(usable.path, usable.z), load_config(config_path))
    assert not any(np.array_equal(p, pair.predictor.values) for p in predictors)


def test_predict_writes_predictions_and_bands(config_path, mock_dir, pred_dir):
    records = read_manifest(mock_dir / "manifest.json")
    for record in records:
        assert (pred_dir / f"{record.id}_prediction.csv").exists()
    band = json.loads((pred_dir / "mock_0000_band.json").read_text())
    assert band["kind"] == "conformal_band"
    assert not band["degenerate"]
    _, ref = spectrum_to_predictor(read_spectrum(records[0].path), load_config(config_path))
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
            "--seed", "7",
            "--model", str(model_path),
            "--manifest", str(mock_dir / "manifest.json"),
            "--alpha", "0.01",
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    assert "degenerate" in result.output
    band = json.loads((out / "mock_0000_band.json").read_text())
    assert band["degenerate"] is True


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
            "bootstrap", *QUERY_FLAGS, "-B", "50",
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
            "bootstrap", *QUERY_FLAGS, "-m", "2",
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
         "normalization_wavelength": 1400.0}
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
    model, settings = load_regression(model_path)
    assert settings["span_candidates"] == [0.2, 0.5, 0.8]
    assert settings["normalization_wavelength"] == 1400.0
    expected = tmp_path / "expected"
    calibration = calibrate(
        model.pairs, config.alpha, model.semimetric, model.kernel,
        config.kappa_candidates, split_seed=config.seed,
    )
    for record in records:
        predictor, ref = spectrum_to_predictor(read_spectrum(record.path, record.z), config)
        write_curve(expected / f"{record.id}_prediction.csv", predict(model, predictor))
        save_conformal_band(band(calibration, predictor), expected / f"{record.id}_band.json", ref)
        for suffix in ("_prediction.csv", "_band.json"):
            name = record.id + suffix
            assert (tmp_path / "pred" / name).read_bytes() == (expected / name).read_bytes(), name

    predictor, _ = spectrum_to_predictor(read_spectrum(records[2].path), config)
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
        (lambda record: record.pop("span"), "model has no 'config'"),
        (lambda record: record.update(span_candidates=[0.5, 1.5]), "candidate span"),
        (lambda record: record.update(predictor_points="40"), "'predictor_points'"),
    ],
    ids=["no-record", "partial-record", "bad-span", "bad-type"],
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
        _, ref = spectrum_to_predictor(read_spectrum(record.path, record.z), config)
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
        "specband.cli.spectrum_to_predictor",
        "specband.fileio.read_spectrum",
        "specband.pipeline.select_span_cv",
        "specband.pipeline.smooth",
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


CONFIG_FLAGS = (
    "--config", "--seed", "--alpha", "--semimetric", "--kappa",
    "--kappa-candidates", "--span", "--span-candidates",
)
# the config flags each command takes: the settings it reads
KEPT_FLAGS = {
    "mockgen": {"--config", "--seed"},
    "fit": {"--config", "--semimetric", "--kappa", "--kappa-candidates", "--span", "--span-candidates"},
    "predict": {"--seed", "--alpha"},
    "bootstrap": {"--seed", "--alpha"},
    "eval": set(),
}


def test_commands_take_only_the_config_flags_they_read():
    for command, kept in KEPT_FLAGS.items():
        options = {opt for param in main.commands[command].params for opt in param.opts}
        assert options & set(CONFIG_FLAGS) == kept, command


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
        ({"span": "0.3"}, "'span'"),
        ([1, 2], "config must be a JSON object"),
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


@pytest.mark.parametrize(
    "document, message",
    [
        ({"kappa": 0}, "got kappa=0"),
        ({"kappa_candidates": []}, "kappa_candidates=()"),
        ({"kappa_candidates": [0, 2]}, "kappa_candidates=(0, 2)"),
        ({"span": 1.5}, "span must be in (0, 1]"),
        ({"span_candidates": []}, "candidate_spans must not be empty"),
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
