import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from specband.curves import Curve, WavelengthGrid, trapezoid_weights
from specband.fileio import read_curve
from specband.mockgen import MockModel, generate, save_model, synthetic_model

GRID = WavelengthGrid.uniform(1050.0, 1600.0, 276)
W = trapezoid_weights(GRID.points)


def _default_model(seed=0):
    return synthetic_model(GRID, seed=seed)


def test_degenerate_model_reproduces_the_mean():
    model = _default_model()
    silent = MockModel(
        mu=model.mu,
        xi=model.xi,
        eigenvalues=np.zeros(len(model.xi)),
        sigma=Curve(GRID, np.zeros(len(GRID))),
    )
    for realization in generate(silent, 3, seed=5):
        assert np.array_equal(realization.noisy.flux, model.mu.values)
        assert np.array_equal(realization.true_continuum.values, model.mu.values)


def test_single_component_score_variance():
    """sigma = 0, one unit-variance component: the score variance over 1e4
    draws stays within 5% of 1 (3-sigma bound for a chi-square estimator)."""
    model = _default_model()
    lone = MockModel(
        mu=model.mu,
        xi=model.xi[:1],
        eigenvalues=np.array([1.0]),
        sigma=Curve(GRID, np.zeros(len(GRID))),
    )
    realizations = generate(lone, 10_000, seed=11)
    omegas = np.array([r.omega[0] for r in realizations])
    assert abs(np.var(omegas) - 1.0) < 0.05
    one = realizations[0]
    assert np.array_equal(one.noisy.flux, one.true_continuum.values)


def test_default_configuration_matches_the_study_design():
    model = synthetic_model(GRID, n_components=10)
    assert len(model.xi) == 10
    train = generate(model, 100, seed=1)
    test = generate(model, 100, seed=2)
    assert len(train) == len(test) == 100


def test_eigenspectra_are_orthonormal():
    model = _default_model(seed=3)
    gram = (model.xi * W) @ model.xi.T
    assert np.allclose(gram, np.eye(len(model.xi)), atol=1e-8)


def test_mean_is_normalized_at_the_reference_wavelength():
    model = _default_model(seed=4)
    idx = np.argmin(np.abs(GRID.points - 1300.0))
    assert model.mu.values[idx] == pytest.approx(1.0, abs=1e-12)
    assert np.all(model.mu.values > 0.0)


def test_five_components_carry_most_of_the_variance():
    model = _default_model()
    fraction = model.eigenvalues[:5].sum() / model.eigenvalues.sum()
    assert 0.95 <= fraction <= 0.99


def test_noise_sd_is_inflated_at_the_edges():
    model = _default_model()
    assert model.sigma.values[0] > model.sigma.values[len(GRID) // 2]
    assert model.sigma.values[-1] > model.sigma.values[len(GRID) // 2]


def test_generation_is_deterministic():
    model = _default_model()
    a = generate(model, 4, seed=21)
    b = generate(model, 4, seed=21)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.noisy.flux, rb.noisy.flux)
        assert np.array_equal(ra.omega, rb.omega)
    c = generate(model, 4, seed=22)
    assert not np.array_equal(a[0].noisy.flux, c[0].noisy.flux)


def _half_silent_model():
    # every other eigenvalue and every other noise sd zero: Generator.normal
    # draws +0.0 there, where a bare scale * standard normal can give -0.0
    model = _default_model()
    eigenvalues = model.eigenvalues.copy()
    eigenvalues[1::2] = 0.0
    sigma = model.sigma.values.copy()
    sigma[::2] = 0.0
    return MockModel(model.mu, model.xi, eigenvalues, Curve(GRID, sigma))


def test_item_i_is_the_draw_of_the_i_th_child_seed():
    count = 5
    for model in (_default_model(), _half_silent_model()):
        for seed in (17, 0, 2**40 + 3):
            mocks = generate(model, count, seed=seed)
            assert len(mocks) == count
            children = np.random.SeedSequence(seed).spawn(count)
            for i in (0, 1, count - 1, -1):
                rng = np.random.default_rng(children[i])
                omega = rng.normal(0.0, np.sqrt(model.eigenvalues))
                continuum = model.mu.values + model.xi.T @ omega
                noisy = continuum + rng.normal(0.0, model.sigma.values)
                mock = mocks[i]
                assert mock.omega.tobytes() == omega.tobytes()
                assert mock.true_continuum.values.tobytes() == continuum.tobytes()
                assert mock.noisy.flux.tobytes() == noisy.tobytes()
                assert mock.noisy is mock.noisy


def test_threads_racing_on_the_first_read_of_noisy_draw_its_noise_once():
    """A mock's noise is drawn when .noisy is first read: threads racing on that
    read share one draw, and the mock then drops its generator."""
    mocks = list(generate(_default_model(), 50, seed=31))
    expected = [m.noisy.flux.tobytes() for m in generate(_default_model(), 50, seed=31)]
    assert all(m.rng is not None for m in mocks)
    barrier = threading.Barrier(4)

    def read():
        barrier.wait(timeout=60)
        return [m.noisy for m in mocks]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            seen = [f.result(timeout=60) for f in [pool.submit(read) for _ in range(4)]]
    finally:
        sys.setswitchinterval(interval)
    for i, mock in enumerate(mocks):
        assert all(noisy[i] is mock.noisy for noisy in seen)
        assert mock.noisy.flux.tobytes() == expected[i]
        assert mock.rng is None


def test_reads_in_any_order_draw_the_same_bits():
    mocks = generate(_default_model(), 6, seed=23)
    forward = [m.noisy.flux for m in mocks]
    backward = [m.noisy.flux for m in reversed(mocks)][::-1]
    by_index = {i: mocks[i].noisy.flux for i in (4, 0, 5, 2, 1, 3)}
    for i in range(6):
        assert np.array_equal(forward[i], backward[i])
        assert np.array_equal(forward[i], by_index[i])
        assert np.array_equal(forward[i], mocks[i - 6].noisy.flux)
    picked = mocks[1:6:2]
    assert isinstance(picked, list) and len(picked) == 3
    for mock, i in zip(picked, (1, 3, 5)):
        assert np.array_equal(mock.noisy.flux, forward[i])
    assert isinstance(mocks[::-1], list) and np.array_equal(mocks[::-1][0].noisy.flux, forward[5])
    for index in (6, -7):
        with pytest.raises(IndexError):
            mocks[index]


def test_count_below_one_is_rejected_at_the_call():
    with pytest.raises(ValueError, match="count must be at least 1"):
        generate(_default_model(), 0, seed=1)


@pytest.mark.parametrize("count, seed, name", [
    (3, -1, "seed"), (3, 1.5, "seed"), (3, True, "seed"), (3, "1", "seed"),
    (2.0, 1, "count"), (True, 1, "count"), (None, 1, "count"),
])
def test_a_count_or_seed_that_is_not_an_integer_in_range_is_rejected_at_the_call(count, seed, name):
    with pytest.raises(ValueError, match=f"^{name} must be at least [01] and an integer, got"):
        generate(_default_model(), count, seed)


def test_numpy_integers_are_taken_as_count_and_seed():
    mocks = generate(_default_model(), np.int64(2), np.uint32(4))
    assert len(mocks) == 2
    assert mocks[1].omega.tobytes() == generate(_default_model(), 2, 4)[1].omega.tobytes()


def test_noisy_flux_is_unbiased_around_the_mean():
    model = synthetic_model(GRID, noise_level=0.02, seed=6)
    realizations = generate(model, 10_000, seed=7)
    flux = np.stack([r.noisy.flux for r in realizations])
    centered = flux.mean(axis=0) - model.mu.values
    pointwise_sd = flux.std(axis=0, ddof=1) / np.sqrt(flux.shape[0])
    within = np.abs(centered) <= 3.0 * pointwise_sd
    assert within.mean() >= 0.99


def test_true_continuum_lies_in_the_model_span():
    model = _default_model(seed=8)
    realization = generate(model, 1, seed=9)[0]
    design = np.column_stack(
        [model.mu.values, *model.xi]
    )
    coeff, *_ = np.linalg.lstsq(design, realization.true_continuum.values, rcond=None)
    residual = design @ coeff - realization.true_continuum.values
    assert np.max(np.abs(residual)) < 1e-8


def test_model_round_trip_through_files(tmp_path):
    model = _default_model(seed=10)
    manifest = save_model(model, tmp_path / "model")
    document = json.loads(manifest.read_text())
    assert [entry["eigenvalue"] for entry in document["components"]] == (
        model.eigenvalues.tolist()
    )
    base = manifest.parent
    assert np.array_equal(read_curve(base / document["mean_path"]).values, model.mu.values)
    assert np.array_equal(read_curve(base / document["sigma_path"]).values, model.sigma.values)
    for entry, component in zip(document["components"], model.xi, strict=True):
        assert np.array_equal(read_curve(base / entry["path"]).values, component)


def test_corrupt_component_file_names_file_and_row(tmp_path):
    model = _default_model(seed=13)
    save_model(model, tmp_path / "model")
    target = tmp_path / "model" / "component_01.csv"
    lines = target.read_text().splitlines()
    lines[3] = "1060.0,not_a_number"
    target.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="component_01.csv, row 4"):
        read_curve(target)


def test_synthetic_model_validation():
    with pytest.raises(ValueError, match="n_components"):
        synthetic_model(GRID, n_components=0)
    with pytest.raises(ValueError, match="decay"):
        synthetic_model(GRID, eigenvalue_decay=0.0)
    with pytest.raises(ValueError, match="^noise_level must be non-negative$"):
        synthetic_model(GRID, noise_level=-0.05)


def test_eigenspectra_are_one_read_only_array():
    model = _default_model()
    assert type(model.xi) is np.ndarray and model.xi.shape == (10, len(GRID))
    assert not model.xi.flags.writeable
    with pytest.raises(ValueError):
        model.xi[0, 0] = 1.0


@pytest.mark.parametrize("xi, message", [
    (lambda xi: xi[0], "eigenspectra must be 2-dimensional"),
    (lambda xi: xi[:, 1:], f"eigenspectra must be finite rows of {len(GRID)} values"),
    (lambda xi: np.hstack([xi, xi[:, :1]]), f"eigenspectra must be finite rows of {len(GRID)} values"),
    (lambda xi: np.where(np.arange(len(GRID)) == 5, np.nan, xi), "eigenspectra must be finite rows"),
    (lambda xi: np.where(np.arange(len(GRID)) == 5, -np.inf, xi), "eigenspectra must be finite rows"),
    (lambda xi: xi[:-1], "one eigenvalue per eigenspectrum"),
], ids=["1-d", "narrow", "wide", "nan", "inf", "one-row-short"])
def test_model_rejects_eigenspectra_that_are_not_finite_rows_on_the_grid(xi, message):
    model = _default_model()
    with pytest.raises(ValueError, match=message):
        MockModel(model.mu, xi(model.xi), model.eigenvalues, model.sigma)


def test_model_rejects_negative_eigenvalues_or_noise():
    model = _default_model()
    with pytest.raises(ValueError, match="eigenvalues must be non-negative"):
        MockModel(model.mu, model.xi, np.where(np.arange(10) == 3, -1.0, model.eigenvalues), model.sigma)
    with pytest.raises(ValueError, match="noise sd must be non-negative"):
        MockModel(model.mu, model.xi, model.eigenvalues, model.sigma.with_values(-model.sigma.values))


def test_more_components_than_grid_points_cannot_be_orthonormalized():
    grid = WavelengthGrid.uniform(1050.0, 1600.0, 2)
    assert synthetic_model(grid, n_components=2).xi.shape == (2, 2)
    with pytest.raises(ValueError, match="cannot orthonormalize component 3 on a 2-point grid"):
        synthetic_model(grid, n_components=3)
