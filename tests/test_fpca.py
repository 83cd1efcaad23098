import numpy as np
import pytest

from specband.curves import Curve, WavelengthGrid, trapezoid_weights
from specband.fpca import FpcaModel, fit_fpca, project, scree_rows

GRID = WavelengthGrid(np.linspace(1.0, 3.0, 60))
W = trapezoid_weights(GRID.points)


def _l2_norm(values):
    return float(np.sqrt(np.sum(W * values * values)))


def _gaussian_sample(rng, n, eigenvalues, basis):
    scores = rng.normal(0.0, np.sqrt(eigenvalues), size=(n, len(eigenvalues)))
    return [Curve(GRID, 1.0 + scores[i] @ basis) for i in range(n)]


def _orthonormal_basis(k):
    t = (GRID.points - GRID.low) / (GRID.high - GRID.low)
    raw = [np.cos(np.pi * (j + 1) * t) for j in range(k)]
    basis = []
    for v in raw:
        v = v.copy()
        for b in basis:
            v -= np.sum(W * v * b) * b
        basis.append(v / _l2_norm(v))
    return np.stack(basis)


def test_antisymmetric_pair_gives_rank_one():
    rng = np.random.default_rng(0)
    c = rng.normal(size=60)
    model = fit_fpca([Curve(GRID, c), Curve(GRID, -c)], m=2)
    assert np.allclose(model.mean.values, 0.0, atol=1e-14)
    direction = c / _l2_norm(c)
    aligned = abs(np.sum(W * model.components[0] * direction))
    assert aligned == pytest.approx(1.0, abs=1e-10)
    assert model.eigenvalues[0] > 1e-10
    assert np.all(np.abs(model.eigenvalues[1:]) < 1e-10)


def test_identical_curves_give_zero_spectrum():
    c = np.sin(GRID.points)
    model = fit_fpca([Curve(GRID, c)] * 5, m=2)
    assert np.allclose(model.mean.values, c)
    assert np.all(np.abs(model.eigenvalues) < 1e-12)
    with pytest.raises(ValueError, match="zero"):
        scree_rows(model)


def test_recovers_a_known_three_component_model():
    """Eigenvalues averaged over 10 seeds land within 25% of truth (a single
    50-draw sample carries ~20% sampling noise); every seed's spectrum must
    match an SVD-based reference decomposition and align with the true basis.
    """
    truth_eigs = np.array([1.0, 0.4, 0.1])
    basis = _orthonormal_basis(3)
    estimates = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        curves = _gaussian_sample(rng, 50, truth_eigs, basis)
        model = fit_fpca(curves, m=3)
        estimates.append(model.eigenvalues[:3])

        # independent route: singular values of the weighted, centered data
        data = np.stack([c.values for c in curves])
        centered = data - data.mean(axis=0)
        svals = np.linalg.svd(centered * np.sqrt(W), compute_uv=False)
        ref_eigs = svals**2 / len(curves)
        assert np.allclose(model.eigenvalues[:3], ref_eigs[:3], rtol=1e-8)

        for j in range(3):
            overlap = abs(np.sum(W * model.components[j] * basis[j]))
            assert overlap > 0.9
    mean_estimate = np.mean(estimates, axis=0)
    assert np.all(np.abs(mean_estimate / truth_eigs - 1.0) < 0.25)


def test_components_are_orthonormal():
    rng = np.random.default_rng(3)
    curves = [Curve(GRID, rng.normal(size=60)) for _ in range(12)]
    model = fit_fpca(curves, m=6)
    for i in range(6):
        for j in range(6):
            inner = np.sum(W * model.components[i] * model.components[j])
            assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)


def test_eigenvalue_sum_equals_integrated_variance():
    rng = np.random.default_rng(4)
    curves = [Curve(GRID, rng.normal(size=60) * 2.0) for _ in range(15)]
    model = fit_fpca(curves, m=3)
    data = np.stack([c.values for c in curves])
    pointwise_var = ((data - data.mean(axis=0)) ** 2).mean(axis=0)
    integrated = float(np.sum(W * pointwise_var))
    assert float(np.sum(model.eigenvalues)) == pytest.approx(integrated, abs=1e-8)


def test_projection_of_mean_is_zero():
    rng = np.random.default_rng(5)
    curves = [Curve(GRID, rng.normal(size=60)) for _ in range(8)]
    model = fit_fpca(curves, m=4)
    assert np.allclose(project(model, model.mean), 0.0, atol=1e-12)


def test_projection_reads_component_coordinates():
    rng = np.random.default_rng(6)
    curves = [Curve(GRID, rng.normal(size=60)) for _ in range(10)]
    model = fit_fpca(curves, m=4)
    shifted = model.mean.values + 2.0 * model.components[0]
    scores = project(model, Curve(GRID, shifted))
    assert scores[0] == pytest.approx(2.0, abs=1e-8)
    assert np.allclose(scores[1:], 0.0, atol=1e-8)


def test_projection_is_the_least_squares_fit():
    rng = np.random.default_rng(7)
    curves = [Curve(GRID, rng.normal(size=60)) for _ in range(10)]
    model = fit_fpca(curves, m=4)
    target = Curve(GRID, rng.normal(size=60))
    scores = project(model, target)
    # weighted least squares onto the component basis, solved independently
    lhs = model.components * np.sqrt(W)
    rhs = (target.values - model.mean.values) * np.sqrt(W)
    ls, *_ = np.linalg.lstsq(lhs.T, rhs, rcond=None)
    assert np.allclose(scores, ls, atol=1e-8)


def test_full_rank_reconstruction_of_training_curves():
    rng = np.random.default_rng(8)
    n = 9
    curves = [Curve(GRID, rng.normal(size=60)) for _ in range(n)]
    model = fit_fpca(curves, m=n - 1)
    for c in curves:
        back = model.mean.values + project(model, c) @ model.components
        assert _l2_norm(back - c.values) < 1e-6


def test_explained_variance_fractions():
    model = FpcaModel(
        mean=Curve(GRID, np.zeros(60)),
        components=_orthonormal_basis(2),
        eigenvalues=np.array([3.0, 1.0]),
    )
    assert np.allclose([fraction for _, _, fraction in scree_rows(model)], [0.75, 1.0])


def test_model_grid_is_its_mean_s_and_one_grid_holds_every_curve():
    basis = _orthonormal_basis(2)
    eigenvalues = np.array([2.0, 1.0])
    model = FpcaModel(Curve(GRID, np.zeros(60)), basis, eigenvalues)
    assert model.grid is model.mean.grid
    assert model.m == 2 and np.array_equal(model.components, basis)
    shifted = WavelengthGrid(GRID.points + 1.0)
    with pytest.raises(ValueError, match="all FPCA and projected curves must share one grid"):
        project(model, Curve(shifted, np.zeros(60)))


def test_components_are_a_read_only_copy():
    basis = _orthonormal_basis(2)
    model = FpcaModel(Curve(GRID, np.zeros(60)), basis, np.array([2.0, 1.0]))
    basis[0, 0] = 99.0
    assert model.components[0, 0] != 99.0
    assert not model.components.flags.writeable
    with pytest.raises(ValueError):
        model.components[0, 0] = 1.0


@pytest.mark.parametrize("components, message", [
    (np.ones(60), "components must be 2-dimensional"),
    (np.ones((2, 59)), "components must be finite rows of 60 values"),
    (np.ones((2, 61)), "components must be finite rows of 60 values"),
    (np.vstack([np.ones(60), np.full(60, np.nan)]), "components must be finite rows of 60 values"),
    (np.vstack([np.ones(60), np.full(60, np.inf)]), "components must be finite rows of 60 values"),
], ids=["1-d", "narrow", "wide", "nan", "inf"])
def test_model_rejects_a_component_array_that_is_not_finite_rows_on_the_grid(components, message):
    with pytest.raises(ValueError, match=message):
        FpcaModel(Curve(GRID, np.zeros(60)), components, np.array([2.0, 1.0]))


def test_fit_is_the_eigendecomposition_of_the_centred_sample():
    """Reference: mean, centred copy and weighted covariance spelled out."""
    rng = np.random.default_rng(12)
    curves = _gaussian_sample(rng, 40, np.array([4.0, 2.0, 1.0]), _orthonormal_basis(3))
    model = fit_fpca(curves, m=3)
    data = np.stack([c.values for c in curves])
    mean = data.mean(axis=0)
    centered = data - mean
    sqrt_w = np.sqrt(W)
    eigvals = np.linalg.eigh(sqrt_w[:, None] * (centered.T @ centered / 40) * sqrt_w[None, :])[0][::-1]
    assert np.array_equal(model.mean.values, mean)
    assert np.array_equal(model.eigenvalues, eigvals)
    assert model.components.shape == (3, 60) and not model.components.flags.writeable


def test_explained_variance_rank_one():
    rng = np.random.default_rng(9)
    c = rng.normal(size=60)
    model = fit_fpca([Curve(GRID, c), Curve(GRID, -c)], m=1)
    assert scree_rows(model)[0][2] == pytest.approx(1.0, abs=1e-10)


def test_component_sign_is_fixed_leading_positive():
    rng = np.random.default_rng(10)
    curves = [Curve(GRID, rng.normal(size=60)) for _ in range(10)]
    model = fit_fpca(curves, m=5)
    for comp in model.components:
        lead = comp[np.abs(comp) > 1e-12][0]
        assert lead > 0.0


def test_components_are_the_per_column_loop_s_bits():
    """Reference: each eigenvector divided by sqrt(w) on its own, then negated
    when its first entry with |phi| > 1e-12 is negative. On a grid spaced
    1e30 apart (values scaled by 1e-15) every |phi| is below 1e-12, and each
    component keeps the sign eigh gave it."""
    rng = np.random.default_rng(14)
    wide = WavelengthGrid(1e30 * np.arange(1.0, 61.0))
    for grid, scale in ((GRID, 1.0), (wide, 1e-15)):
        curves = [Curve(grid, scale * rng.normal(size=60)) for _ in range(10)]
        model = fit_fpca(curves, m=3)
        data = np.stack([c.values for c in curves])
        centered = data - data.mean(axis=0)
        sqrt_w = np.sqrt(trapezoid_weights(grid.points))
        eigvals, eigvecs = np.linalg.eigh(sqrt_w[:, None] * (centered.T @ centered / 10) * sqrt_w[None, :])
        order = np.argsort(eigvals)[::-1]
        signs = []
        for j in range(3):
            phi = eigvecs[:, order[j]] / sqrt_w
            nonzero = np.flatnonzero(np.abs(phi) > 1e-12)
            if nonzero.size and phi[nonzero[0]] < 0.0:
                phi = -phi
            assert model.components[j].tobytes() == phi.tobytes()
            signs.append(np.sign(phi[0]))
    assert -1.0 in signs and 1.0 in signs  # on the wide grid, both signs are kept


def test_m_bounds_are_enforced():
    rng = np.random.default_rng(11)
    curves = [Curve(GRID, rng.normal(size=60)) for _ in range(4)]
    with pytest.raises(ValueError, match="m must be"):
        fit_fpca(curves, m=5)
    with pytest.raises(ValueError, match="m must be"):
        fit_fpca(curves, m=0)


def test_mock_responses_concentrate_in_five_components():
    """Smooth response segments of simulated spectra keep most of their
    variance in the leading five components."""
    from specband.mockgen import generate, synthetic_model
    from specband.pipeline import PipelineConfig
    from specband.smoothing import in_range, select_spans, smooth_block

    full_grid = WavelengthGrid.uniform(1050.0, 1600.0, 276)
    model = synthetic_model(full_grid, seed=2024)
    resp_grid = WavelengthGrid.uniform(1050.0, 1185.0, 60)
    samples = [in_range(r.noisy, (1050.0, 1185.0)) for r in generate(model, 60, seed=5)]
    lam, flux = samples[0][0], np.stack([f for _, f in samples])
    spans = select_spans(lam, flux, PipelineConfig().span_candidates)
    curves = [Curve(resp_grid, v) for v in smooth_block(lam, flux, (1050.0, 1185.0), spans, resp_grid)]
    fraction = scree_rows(fit_fpca(curves, m=5))[4][2]  # carried by the leading five
    assert fraction > 0.9


def test_scree_rows_cover_full_spectrum():
    rng = np.random.default_rng(12)
    curves = [Curve(GRID, rng.normal(size=60)) for _ in range(6)]
    model = fit_fpca(curves, m=2)
    rows = scree_rows(model)
    assert rows[0][0] == 1
    assert rows[-1][2] == pytest.approx(1.0)
    fractions = [r[2] for r in rows]
    assert all(a <= b + 1e-12 for a, b in zip(fractions, fractions[1:]))


@pytest.mark.parametrize("eigenvalues, message", [
    ([1.0, 2.0], "eigenvalues must be sorted non-increasing"),
    ([1.0, -1e-9], "eigenvalues must be non-negative up to roundoff"),
], ids=["increasing", "negative"])
def test_model_rejects_increasing_or_negative_eigenvalues(eigenvalues, message):
    with pytest.raises(ValueError, match=message):
        FpcaModel(Curve(GRID, np.zeros(60)), np.ones((2, 60)), np.array(eigenvalues))
    assert FpcaModel(Curve(GRID, np.zeros(60)), np.ones((2, 60)), np.array([1.0, -1e-11])).m == 2


def test_fit_of_no_curves_is_rejected():
    with pytest.raises(ValueError, match="need at least one curve"):
        fit_fpca([], m=1)
