"""Command-line front end.

Subcommands cover the whole pipeline: ``mockgen`` writes simulated spectra,
``fit`` turns a spectrum manifest into a persisted regression model,
``predict`` emits per-spectrum predictions with conformal bands, ``bootstrap``
writes a wild-bootstrap confidence band and scree data, and ``eval`` compares
saved predictions against truth curves. Exit codes: 0 success, 2 validation
error, 3 numerical failure. Every command is deterministic given its config
and seeds.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click
import numpy as np

from . import conformal as conformal_mod
from . import evaluation, fileio, fpca, mockgen
from . import regression as regression_mod
from . import wild_bootstrap as wb
from .curves import resample
from .pipeline import PipelineConfig, fit_pairs, load_config, smooth_spectra
from .semimetrics import TOKENS

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _exit_codes(func):
    # LinAlgError subclasses ValueError, so the numerical branch must come first
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except (np.linalg.LinAlgError, FloatingPointError, ArithmeticError) as err:
            click.echo(f"numerical failure: {err}", err=True)
            sys.exit(EXIT_NUMERICAL)
        except (ValueError, OSError, KeyError) as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(EXIT_VALIDATION)

    return wrapper


_CONFIG_FLAGS = {
    "config": click.option("--config", "config_path", type=click.Path(exists=True, path_type=Path), default=None, help="JSON config file; flags override its keys."),
    "seed": click.option("--seed", type=int, default=None, help="Root random seed."),
    "alpha": click.option("--alpha", type=float, default=None, help="Miscoverage level in (0, 1)."),
    "semimetric": click.option("--semimetric", type=click.Choice(TOKENS), default=None, help="Predictor-space distance."),
    "kappa_candidates": click.option("--kappa-candidates", default=None, help="Comma-separated CV neighbor counts; one count is used without CV. A count above n-1 counts as n-1 (in fit's split model, n1-1)."),
    "span_candidates": click.option("--span-candidates", default=None, help="Comma-separated CV spans; one span is used without CV."),
}


def _config_options(*names):
    """The named config flags: the settings a command reads."""

    def decorate(func):
        for name in reversed(names):
            func = _CONFIG_FLAGS[name](func)
        return func

    return decorate


def _build_config(config_path, **flags) -> PipelineConfig:
    for name, kind, noun in (("span_candidates", float, "numbers"), ("kappa_candidates", int, "integers")):
        if flags.get(name) is not None:
            values = []
            for item in flags[name].split(","):
                try:
                    values.append(kind(item))
                except ValueError:
                    raise ValueError(f"--{name.replace('_', '-')} needs comma-separated {noun}, found {item!r}") from None
            flags[name] = values
    return load_config(config_path, **flags)


@click.group()
def main() -> None:
    """Functional regression for spectrum continua, with uncertainty bands."""


@main.command("mockgen")
@_config_options("config", "seed")
@click.option("--count", type=int, default=None, help="Number of mock spectra.")
@click.option("--out", "out_dir", type=click.Path(path_type=Path), required=True, help="Output directory.")
@_exit_codes
def cmd_mockgen(config_path, count, out_dir, **flags) -> None:
    """Generate mock spectra, their true continua, and a manifest."""
    config = _build_config(config_path, mock_count=count, **flags)
    model = mockgen.synthetic_model(
        config.mock_grid(),
        n_components=config.mock_components,
        eigenvalue_decay=config.mock_eigenvalue_decay,
        variance_scale=config.mock_variance_scale,
        noise_level=config.mock_noise_level,
        seed=config.seed,
        normalization_wavelength=config.normalization_wavelength,
    )
    realizations = mockgen.generate(model, config.mock_count, config.seed)

    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for i, realization in enumerate(realizations):
        name = f"mock_{i:04d}"
        spectrum_path = out_dir / "spectra" / f"{name}.csv"
        truth_path = out_dir / "truths" / f"{name}.csv"
        fileio.write_spectrum(spectrum_path, realization.noisy)
        fileio.write_curve(truth_path, realization.true_continuum)
        records.append(
            fileio.SpectrumRecord(id=name, path=spectrum_path, z=0.0, truth_path=truth_path)
        )
    fileio.write_manifest(out_dir / "manifest.json", records)
    mockgen.save_model(model, out_dir / "model")
    click.echo(f"wrote {len(records)} mock spectra under {out_dir}")


@main.command("fit")
@_config_options("config", "seed", "semimetric", "kappa_candidates", "span_candidates")
@click.option("--manifest", type=click.Path(exists=True, path_type=Path), required=True, help="Spectrum manifest to fit on.")
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True, help="Model file to write.")
@_exit_codes
def cmd_fit(config_path, manifest, out_path, **flags) -> None:
    """Smooth the manifest spectra into curve pairs, fit the regression, and
    calibrate its conformal split once, drawn from the seed; the model file
    keeps the split's fitting rows, kappa and scores for ``predict``."""
    config = _build_config(config_path, **flags)
    spectra = {}
    for record in fileio.read_manifest(manifest):
        if record.predict_only:
            click.echo(f"skipping predict-only spectrum {record.id}", err=True)
            continue
        spectra[record.id] = fileio.read_spectrum(record.path, record.z)
    pairs = [pair for pair, _ in smooth_spectra(list(spectra.values()), config, pairs=True, names=list(spectra))]
    model, cv_table = fit_pairs(pairs, config)
    calibration = conformal_mod.calibrate(model.pairs, config.alpha, model.semimetric, model.kernel,
                                          config.kappa_candidates, split_seed=config.seed)
    fileio.save_regression(model, out_path, config, calibration)
    if cv_table:
        click.echo("kappa  loo_error")
        for kappa, score in cv_table:
            click.echo(f"{kappa:5d}  {score:.6g}")
    click.echo(f"selected kappa={model.kappa} on n={len(model)} pairs -> {out_path}")
    _echo_edge_kappa("kappa", model, config.kappa_candidates)
    split = calibration.trained_model
    click.echo(f"conformal split (seed {config.seed}): kappa1={split.kappa} on n1={len(split)} pairs, "
               f"n2={calibration.n2} scores")
    _echo_edge_kappa("kappa1", split, config.kappa_candidates)


def _echo_edge_kappa(name: str, model, kappa_candidates) -> None:
    """Flag a kappa LOO chose at an end of the usable candidates: past that end
    a kappa never scored might score lower."""
    usable = regression_mod.usable_kappas(kappa_candidates, len(model))
    if len(usable) > 1 and model.kappa in (usable[0], usable[-1]):
        edge, past = ("largest", "larger") if model.kappa == usable[-1] else ("smallest", "smaller")
        click.echo(f"{name}={model.kappa} is the {edge} usable candidate of {usable}; a {past} one might score lower")


@main.command("predict")
@_config_options("alpha")
@click.option("--model", "model_path", type=click.Path(exists=True, path_type=Path), required=True, help="Fitted model file.")
@click.option("--manifest", type=click.Path(exists=True, path_type=Path), required=True, help="Spectra to predict.")
@click.option("--out", "out_dir", type=click.Path(path_type=Path), required=True, help="Output directory.")
@_exit_codes
def cmd_predict(model_path, manifest, out_dir, **flags) -> None:
    """Predict each spectrum's response segment with a conformal band.

    Spectra are smoothed with the settings the model records. The bands come
    from the conformal split ``fit`` stored: its model, rebuilt on the stored
    rows with the stored kappa, and its scores, ranked by ``--alpha``; nothing
    is fitted or calibrated here. Each band file records the spectrum's
    normalization constant, which ``eval`` divides the truth curve by.
    """
    model, settings, (split_model, scores) = fileio.load_regression(model_path)
    config = load_config(**settings, **flags)
    records = fileio.read_manifest(manifest)
    spectra = [fileio.read_spectrum(record.path, record.z) for record in records]
    predictors = smooth_spectra(spectra, config, pairs=False, names=[r.id for r in records])
    calibration = conformal_mod.ConformalCalibration(split_model, scores, config.alpha)
    if np.isinf(calibration.half_width):  # alpha and n2 decide it for every band
        click.echo(f"warning: alpha={config.alpha} is too small for the calibration "
                   f"size n2={calibration.n2}; every band is degenerate", err=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    for record, (predictor, ref) in zip(records, predictors):
        prediction = regression_mod.predict(model, predictor)
        band = conformal_mod.band(calibration, predictor)
        fileio.write_curve(out_dir / f"{record.id}_prediction.csv", prediction)
        fileio.save_conformal_band(band, out_dir / f"{record.id}_band.json", ref)
    click.echo(f"wrote predictions for {len(records)} spectra under {out_dir}")


@main.command("bootstrap")
@_config_options("seed", "alpha")
@click.option("--model", "model_path", type=click.Path(exists=True, path_type=Path), required=True, help="Fitted model file.")
@click.option("--spectrum", "spectrum_path", type=click.Path(exists=True, path_type=Path), required=True, help="Query spectrum.")
@click.option("--redshift", type=float, default=0.0, help="Query spectrum redshift.")
@click.option("--components", "-m", "components", type=int, default=None, help="Number of principal components.")
@click.option("--replicates", "-B", "replicates", type=int, default=None, help="Bootstrap replicates.")
@click.option("--out", "out_dir", type=click.Path(path_type=Path), required=True, help="Output directory.")
@_exit_codes
def cmd_bootstrap(model_path, spectrum_path, redshift, components, replicates, out_dir, **flags) -> None:
    """Wild-bootstrap confidence band for the projected prediction at one spectrum."""
    model, settings, _ = fileio.load_regression(model_path)
    config = load_config(**settings, bootstrap_components=components, bootstrap_replicates=replicates, **flags)
    responses = [p.response for p in model.pairs]
    fpca_model = fpca.fit_fpca(responses, config.bootstrap_components)

    spectrum = fileio.read_spectrum(spectrum_path, redshift)
    predictor, _ = smooth_spectra([spectrum], config, pairs=False, names=[str(spectrum_path)])[0]
    band = wb.bootstrap_bands(
        model.pairs,
        model,
        predictor,
        fpca_model,
        wb.WildBootstrapConfig(
            replicates=config.bootstrap_replicates,
            components=config.bootstrap_components,
            alpha=config.alpha,
            seed=config.seed,
        ),
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    fileio.save_bootstrap_band(band, out_dir / "bootstrap_band.json")
    fileio.write_scree(out_dir / "scree.csv", fpca.scree_rows(fpca_model))
    click.echo(
        f"wrote bootstrap band ({config.bootstrap_components} components, "
        f"B={config.bootstrap_replicates}) under {out_dir}"
    )


@main.command("eval")
@click.option("--predictions", "pred_dir", type=click.Path(exists=True, path_type=Path), required=True, help="Directory written by predict.")
@click.option("--manifest", type=click.Path(exists=True, path_type=Path), required=True, help="Manifest with truth paths.")
@click.option("--out", "out_dir", type=click.Path(path_type=Path), required=True, help="Output directory.")
@_exit_codes
def cmd_eval(pred_dir, manifest, out_dir) -> None:
    """Compare saved predictions and bands against the manifest's truth curves.

    Each truth is divided by the normalization constant recorded in the
    spectrum's band file, so it sits on the scale of its prediction.
    """
    records = [r for r in fileio.read_manifest(manifest) if r.truth_path is not None]
    if not records:
        raise ValueError("no manifest entry carries a truth_path")
    predictions, bands, truths = [], [], []
    for record in records:
        prediction = fileio.read_curve(pred_dir / f"{record.id}_prediction.csv")
        band, normalization = fileio.load_conformal_band(pred_dir / f"{record.id}_band.json")
        if not band.center.grid.matches(prediction.grid):
            raise ValueError(f"spectrum {record.id}: band and prediction grids differ; rerun predict")
        try:
            truth = resample(fileio.read_curve(record.truth_path), prediction.grid)
        except ValueError as err:
            raise ValueError(f"spectrum {record.id}'s truth: {err}") from None
        predictions.append(prediction)
        bands.append(band)
        truths.append(truth.with_values(truth.values / normalization))
    rel = evaluation.summarize(
        [evaluation.relative_error(p, t) for p, t in zip(predictions, truths)]
    )
    plain = evaluation.summarize(
        [evaluation.plain_error(p, t) for p, t in zip(predictions, truths)]
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    fileio.write_error_summary(out_dir / "relative_error_summary.csv", rel)
    fileio.write_error_summary(out_dir / "plain_error_summary.csv", plain)
    click.echo(
        f"mean relative error {rel.overall_mean:.4f}; band coverage "
        f"{evaluation.coverage_rate(bands, truths):.3f} over {len(records)} spectra"
    )
