import dataclasses
import json
import math
import re
import sys

import numpy as np
import pytest

from specband import pipeline, regression, smoothing
from specband.curves import RawSpectrum, nearest_index, to_rest_frame
from specband.mockgen import generate, synthetic_model
from specband.pipeline import PipelineConfig, fit_pairs, load_config, smooth_spectra
from specband.smoothing import in_range, select_spans, smooth_block


def _mock_spectrum(seed=0, points=160):
    config = PipelineConfig(mock_grid_points=points)
    model = synthetic_model(config.mock_grid(), seed=seed)
    return generate(model, 1, seed=seed)[0].noisy, config


def test_config_defaults_follow_the_study_design():
    config = PipelineConfig()
    assert config.predictor_range == (1300.0, 1600.0)
    assert config.response_range == (1050.0, 1185.0)
    assert config.alpha == 0.1
    assert config.bootstrap_replicates == 500
    assert config.bootstrap_components == 5
    assert config.mock_components == 10


def test_config_rejects_overlapping_ranges():
    with pytest.raises(ValueError, match=re.escape(
            "config key 'response_range' must be two finite numbers, 0 < low < high < predictor_range's low, "
            "got (1050.0, 1185.0)")):
        PipelineConfig(predictor_range=(1100.0, 1600.0))
    with pytest.raises(ValueError, match=re.escape("config key 'alpha' must be a number in (0, 1), got 1.5")):
        PipelineConfig(alpha=1.5)
    with pytest.raises(ValueError, match=re.escape("config key 'semimetric' must be one of 'l2', 'deriv1', 'deriv2', got 'cosine'")):
        PipelineConfig(semimetric="cosine")


@pytest.mark.parametrize("key", ["predictor_points", "response_points", "mock_grid_points"])
def test_load_config_rejects_a_grid_of_fewer_than_two_points_naming_the_key(key):
    with pytest.raises(ValueError, match=re.escape(f"config key {key!r} must be an integer from 2 to sys.maxsize, got 1")):
        load_config(**{key: 1})
    assert getattr(load_config(**{key: 2}), key) == 2


@pytest.mark.parametrize("key", ["predictor_points", "response_points", "mock_grid_points", "mock_count",
                                 "mock_components", "bootstrap_replicates", "bootstrap_components", "kappa_candidates"])
def test_config_rejects_a_size_or_count_above_sys_maxsize_naming_the_key(key):
    """No array or index holds more; the seed has no such bound."""
    def value(n):
        return (2, n) if key == "kappa_candidates" else n

    rule = pipeline._RULES[key][2]
    assert rule.endswith("to sys.maxsize")
    with pytest.raises(ValueError, match=re.escape(f"config key {key!r} must be {rule}, got {value(sys.maxsize + 1)!r}")):
        PipelineConfig(**{key: value(sys.maxsize + 1)})
    with pytest.raises(ValueError, match=re.escape(f"config key {key!r} must be {rule}, got ")):
        load_config(**{key: value(10**400)})
    assert getattr(PipelineConfig(**{key: value(sys.maxsize)}), key) == value(sys.maxsize)
    assert PipelineConfig(seed=10**400).seed == 10**400


def test_load_config_rejects_a_normalization_wavelength_outside_the_predictor_range():
    """Outside the range the nearest predictor grid point would stand in for it unnoticed."""
    for wavelength in (1200.0, 1600.5):
        with pytest.raises(ValueError, match=re.escape(
                f"config key 'normalization_wavelength' must be a number in predictor_range, got {wavelength}")):
            load_config(normalization_wavelength=wavelength)
    for wavelength in (1300.0, 1600.0):  # the range's ends are in it
        assert load_config(normalization_wavelength=wavelength).normalization_wavelength == wavelength
    assert load_config(predictor_range=[1250, 1600], normalization_wavelength=1260.0).predictor_range == (1250.0, 1600.0)


# per key: a wrong type, an out-of-range value, a non-finite number and a
# boundary value, each as a JSON config or a library caller could give it
TINY = 5e-324  # the least positive float
RULE_CASES = {
    "predictor_range": ([1300.0, "1600"], [1600.0, 1300.0], [1300.0, math.inf], [np.nextafter(1185.0, 2000.0), 1300.0]),
    "response_range": ("1050-1185", [1050.0, 1300.0], [-math.inf, 1185.0], [TINY, np.nextafter(1300.0, 0.0)]),
    "predictor_points": (2.5, 1, math.inf, 2),
    "response_points": ("200", 0, math.nan, sys.maxsize),
    "normalization_wavelength": ("1300", 1600.5, math.nan, 1600.0),
    "semimetric": (["l2"], "cosine", math.nan, "deriv2"),
    "kappa_candidates": ((2.5,), [0, 2], [2, math.inf], [1, sys.maxsize]),
    "span_candidates": (["0.3"], [], [0.5, math.nan], [1, TINY]),
    "alpha": ("0.1", 1.0, math.nan, np.nextafter(1.0, 0.0)),
    "bootstrap_replicates": (500.0, 0, math.inf, 1),
    "bootstrap_components": (True, -5, -math.inf, 1),
    "seed": (1.0, -1, math.inf, 10**400),
    "mock_count": (np.float64(3.0), 0, math.inf, 1),
    "mock_grid_points": ([551], 1, math.inf, 2),
    "mock_components": ("10", 0, math.nan, sys.maxsize),
    "mock_eigenvalue_decay": (False, 0.0, math.inf, TINY),
    "mock_variance_scale": ("2.5", -1e-300, math.inf, 0),
    "mock_noise_level": (True, -0.05, math.inf, 0.0),
}


@pytest.mark.parametrize("key", [field.name for field in dataclasses.fields(PipelineConfig)])
def test_each_key_meets_its_one_rule_from_the_library_and_from_load_config(key):
    """One rule per key, checked in one place: PipelineConfig and load_config
    (so a JSON config, a flag and the model's record) reject the same values
    with the same message naming the key, and take its default and boundary."""
    rule = pipeline._RULES[key][2]
    *bad, boundary = RULE_CASES[key]
    for value in bad:
        message = f"config key {key!r} must be {rule}, got {value!r}"
        for make in (PipelineConfig, load_config):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make(**{key: value})
    for value in (getattr(PipelineConfig(), key), boundary):
        for make in (PipelineConfig, load_config):
            taken = getattr(make(**{key: value}), key)
            assert taken == (tuple(value) if isinstance(value, list) else value)


def test_load_config_merges_file_and_overrides(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"alpha": 0.2, "kappa_candidates": [3, 5]}))
    config = load_config(path, alpha=0.3, seed=11)
    assert config.alpha == 0.3
    assert config.kappa_candidates == (3, 5)
    assert config.seed == 11
    # None overrides are ignored
    assert load_config(path, alpha=None).alpha == 0.2


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"bandwidth": 2}))
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config(path)
    # a fixed kappa or span is a one-element candidate list, not a key
    for key, value in (("kappa", 3), ("span", 0.5)):
        with pytest.raises(ValueError, match=re.escape(f"unknown config keys: [{key!r}]")):
            load_config(**{key: value})


def test_load_config_takes_a_float_key_value_by_the_one_number_rule():
    """Any finite real that is not a bool, an integer only if a float holds it."""
    config = load_config(normalization_wavelength=np.int64(1400), span_candidates=[1, np.float32(0.5)])
    assert config.normalization_wavelength == 1400 and config.span_candidates == (1.0, 0.5)
    assert type(config.span_candidates[0]) is float and load_config(kappa_candidates=[np.int64(3)]).kappa_candidates == (3,)
    for value in (10**400, -(2**1024 - 2**970), True, "0.5", math.inf):  # an override of None sets nothing
        message = f"config key 'span_candidates' must be a non-empty list of numbers in (0, 1], got [0.5, {value!r}]"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(span_candidates=[0.5, value])
        with pytest.raises(ValueError, match=re.escape(
                f"config key 'mock_noise_level' must be a finite non-negative number, got {value!r}")):
            load_config(mock_noise_level=value)


def test_pair_is_normalized_at_the_reference_wavelength():
    spectrum, config = _mock_spectrum(seed=3)
    ((pair, ref),) = smooth_spectra([spectrum], config, pairs=True)
    assert ref > 0.0
    idx = nearest_index(pair.predictor.grid, config.normalization_wavelength)
    assert pair.predictor.values[idx] == pytest.approx(1.0, abs=1e-12)
    assert len(pair.predictor.grid) == config.predictor_points
    assert len(pair.response.grid) == config.response_points


def test_fixed_span_skips_cv(monkeypatch):
    """A one-span list is the fixed span: smoothed with it, without CV."""
    spectrum, config = _mock_spectrum(seed=4)
    fixed = PipelineConfig(mock_grid_points=160, span_candidates=(0.5,))
    monkeypatch.setattr(smoothing, "span_cv_table", None)  # any CV call fails
    ((pair_fixed, ref),) = smooth_spectra([spectrum], fixed, pairs=True)
    lam, flux = in_range(to_rest_frame(spectrum), fixed.predictor_range)
    alone = smooth_block(lam, flux[None], fixed.predictor_range, [0.5], fixed.predictor_grid())[0]
    assert np.array_equal(pair_fixed.predictor.values, alone / ref)


def test_rest_frame_is_applied_before_smoothing():
    spectrum, config = _mock_spectrum(seed=5)
    shifted = RawSpectrum(
        spectrum.wavelengths * 3.0, spectrum.flux, spectrum.noise_sd, redshift=2.0
    )
    (direct, ref_direct), (moved, ref_moved) = smooth_spectra([spectrum, shifted], config, pairs=False)
    assert ref_moved == pytest.approx(ref_direct, rel=1e-9)
    assert np.allclose(moved.values, direct.values, atol=1e-9)


def test_batch_smooths_each_spectrum_as_it_would_alone(monkeypatch):
    """Four z=0 mocks share their sample grid. Two more are observed at
    their own redshift, off that grid, and one loses a response-range
    sample, so they share no grid in the ranges they change. Each spectrum
    gets, in input order and to the last bit, the span select_spans picks
    for it alone and the curves smooth_block gives it with that span."""
    config = PipelineConfig(mock_grid_points=160)
    spectra = [r.noisy for r in generate(synthetic_model(config.mock_grid(), seed=11), 7, seed=12)]
    for i, z in ((4, 2.1), (5, 3.3)):
        s = spectra[i]
        spectra[i] = RawSpectrum((s.wavelengths + 0.4 * z) * (1.0 + z), s.flux, s.noise_sd, redshift=z)
    keep = np.arange(len(spectra[6])) != 20
    s = spectra[6]
    spectra[6] = RawSpectrum(s.wavelengths[keep], s.flux[keep], s.noise_sd[keep])
    group_sizes = []

    def recording(lam, flux, spans):
        group_sizes.append(len(flux))
        return select_spans(lam, flux, spans)

    monkeypatch.setattr(pipeline, "select_spans", recording)
    batch = smooth_spectra(spectra, config, pairs=True)
    # predictor range: the four z=0 mocks and the one with a response sample
    # dropped, then each redshifted mock; response range: four, then three of one
    assert group_sizes == [5, 1, 1, 4, 1, 1, 1]

    for spectrum, (pair, ref) in zip(spectra, batch):
        rest = to_rest_frame(spectrum)
        alone = []
        for wl_range, grid in ((config.predictor_range, config.predictor_grid()),
                               (config.response_range, config.response_grid())):
            lam, flux = in_range(rest, wl_range)
            span = select_spans(lam, flux[None], config.span_candidates)
            alone.append(smooth_block(lam, flux[None], wl_range, span, grid)[0])
        assert ref == alone[0][nearest_index(pair.predictor.grid, config.normalization_wavelength)]
        assert np.array_equal(pair.predictor.values, alone[0] / ref)
        assert np.array_equal(pair.response.values, alone[1] / ref)
        assert pair.predictor.grid is batch[0][0].predictor.grid
        assert pair.response.grid is batch[0][0].response.grid


def test_smooth_spectra_needs_enough_samples_in_each_range():
    spectrum, config = _mock_spectrum(seed=6)
    smooth_spectra([spectrum], config, pairs=True)
    wl = spectrum.wavelengths

    def kept(keep):
        return RawSpectrum(wl[keep], spectrum.flux[keep], spectrum.noise_sd[keep])

    def fails(spectrum, range_, found):
        message = f"spectrum 0, rest-frame range {range_}: span cross-validation needs at least 20 samples, found {found}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            smooth_spectra([spectrum], config, pairs=True)

    # no response samples: a pair fails, a predictor alone does not
    fails(kept(wl >= 1300.0), "[1050.0, 1185.0]", 0)
    smooth_spectra([kept(wl >= 1300.0)], config, pairs=False)
    fails(kept(wl <= 1250.0), "[1300.0, 1600.0]", 0)
    # 12 response samples smooth with a one-span list but not under span CV
    short = kept(wl >= wl[wl <= 1185.0][-12])
    fails(short, "[1050.0, 1185.0]", 12)
    fixed = dataclasses.replace(config, span_candidates=(0.5,))
    smooth_spectra([short], fixed, pairs=True)
    with pytest.raises(ValueError, match=r"\[1050.0, 1185.0\]: smoothing needs at least 9 samples, found 8$"):
        smooth_spectra([kept(wl >= wl[wl <= 1185.0][-8])], fixed, pairs=True)


def test_fit_pairs_with_fixed_kappa_skips_cv(monkeypatch):
    """A one-element candidate list is the fixed kappa, and so is a list that
    leaves one value once each candidate above n - 1 counts as n - 1."""
    config = PipelineConfig(mock_grid_points=160, span_candidates=(0.5,), kappa_candidates=(2,))
    model = synthetic_model(config.mock_grid(), seed=7)
    pairs = [pair for pair, _ in smooth_spectra([r.noisy for r in generate(model, 5, seed=8)], config, pairs=True)]
    monkeypatch.setattr(regression, "kappa_cv_scores", None)  # any CV call fails
    for candidates, kappa in (((2,), 2), ((8,), 4), ((4, 5, 8), 4)):
        fitted, table = fit_pairs(pairs, dataclasses.replace(config, kappa_candidates=candidates))
        assert fitted.kappa == kappa
        assert table == []


def test_fit_pairs_selects_kappa_from_candidates():
    config = PipelineConfig(
        mock_grid_points=160, span_candidates=(0.5,), kappa_candidates=(1, 2, 3)
    )
    model = synthetic_model(config.mock_grid(), seed=9)
    pairs = [pair for pair, _ in smooth_spectra([r.noisy for r in generate(model, 6, seed=10)], config, pairs=True)]
    fitted, table = fit_pairs(pairs, config)
    assert fitted.kappa in (1, 2, 3)
    assert len(table) == 3
    best = min(table, key=lambda entry: entry[1])
    assert fitted.kappa == best[0]
