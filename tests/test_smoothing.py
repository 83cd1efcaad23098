import numpy as np
import pytest

from specband.curves import RawSpectrum, WavelengthGrid
from specband.pipeline import PipelineConfig
from specband.smoothing import in_range, select_spans, smooth_block, span_cv_table

SPANS = PipelineConfig().span_candidates


def _spectrum(wl, flux):
    wl = np.asarray(wl, dtype=float)
    return RawSpectrum(wl, np.asarray(flux, dtype=float), np.zeros_like(wl))


def _smooth(lam, flux, wl_range, span, grid):
    """The samples in ``wl_range`` smoothed onto ``grid`` as a block of one."""
    lam, flux = in_range(_spectrum(lam, flux), wl_range)
    return smooth_block(lam, flux[None], wl_range, [span], grid)[0]


def oracle_local_quadratic(lam, flux, out, span):
    """Independent reference: dense per-point weighted least squares."""
    m = lam.size
    q0 = min(m, max(4, int(np.ceil(span * m))))
    result = np.empty(out.size)
    for k, x0 in enumerate(out):
        d = np.abs(lam - x0)
        ds = np.sort(d)
        q = q0
        while q < m and np.sum(d < ds[q - 1]) < 3:
            q += 1
        scale = ds[q - 1]
        u = d / scale
        w = np.where(u < 1.0, (1.0 - u**3) ** 3, 0.0)
        keep = w > 0
        x = lam[keep] - x0
        design = np.column_stack([np.ones(x.size), x, x * x])
        sw = np.sqrt(w[keep])
        beta, *_ = np.linalg.lstsq(design * sw[:, None], flux[keep] * sw, rcond=None)
        result[k] = beta[0]
    return result


# -------------------------------------------------------------- exactness

@pytest.mark.parametrize("span", [0.3, 0.5, 0.9, 1.0])
def test_reproduces_quadratics_exactly(span):
    lam = np.linspace(1000.0, 1100.0, 60)
    flux = 2.0 + 3.0 * lam + lam**2
    grid = WavelengthGrid(np.linspace(1005.0, 1095.0, 40))
    out = _smooth(lam, flux, (1000.0, 1100.0), span, grid)
    truth = 2.0 + 3.0 * grid.points + grid.points**2
    assert np.max(np.abs(out - truth) / np.abs(truth)) < 1e-9


def test_reproduces_random_quadratics():
    rng = np.random.default_rng(17)
    lam = np.sort(rng.uniform(1000.0, 1200.0, 80))
    grid = WavelengthGrid(np.linspace(1010.0, 1190.0, 25))
    for _ in range(10):
        a, b, c = rng.uniform(-2.0, 2.0, 3)
        flux = a + b * (lam / 1000.0) + c * (lam / 1000.0) ** 2
        out = _smooth(lam, flux, (1000.0, 1200.0), 0.4, grid)
        truth = a + b * (grid.points / 1000.0) + c * (grid.points / 1000.0) ** 2
        assert np.max(np.abs(out - truth)) < 1e-9 * max(1.0, np.max(np.abs(truth)))


def test_constant_flux_stays_constant():
    lam = np.linspace(1.0, 10.0, 30)
    grid = WavelengthGrid(np.linspace(2.0, 9.0, 15))
    out = _smooth(lam, np.full(30, 5.0), (1.0, 10.0), 0.5, grid)
    assert np.allclose(out, 5.0, atol=1e-12)


def test_matches_dense_oracle_on_noisy_data():
    rng = np.random.default_rng(4)
    lam = np.sort(rng.uniform(1000.0, 1500.0, 200))
    flux = np.sin(lam / 40.0) + rng.normal(0.0, 0.1, 200)
    out_grid = WavelengthGrid(np.linspace(1020.0, 1480.0, 50))
    got = _smooth(lam, flux, (1000.0, 1500.0), 0.3, out_grid)
    want = oracle_local_quadratic(lam, flux, out_grid.points, 0.3)
    assert np.allclose(got, want, atol=1e-8)


@pytest.mark.parametrize("span", SPANS)
def test_matches_dense_oracle_across_spans(span):
    rng = np.random.default_rng(8)
    lam = np.sort(rng.uniform(1000.0, 1300.0, 150))
    flux = np.cos(lam / 25.0) + rng.normal(0.0, 0.2, 150)
    out_grid = WavelengthGrid(np.linspace(lam[0], lam[-1], 70))
    got = _smooth(lam, flux, (1000.0, 1300.0), span, out_grid)
    want = oracle_local_quadratic(lam, flux, out_grid.points, span)
    assert np.allclose(got, want, rtol=0.0, atol=1e-10)


def test_widened_window_matches_oracle():
    """Uniform samples with the base window of 4: at a midpoint between two
    samples the 3rd and 4th nearest distances tie, so the window must widen
    to the next distance up before 3 samples carry weight."""
    rng = np.random.default_rng(12)
    lam = 1000.0 + 0.5 * np.arange(60)
    flux = np.sin(lam / 3.0) + rng.normal(0.0, 0.1, lam.size)
    midpoints = lam[:-1] + 0.25
    nearest = np.sort(np.abs(lam - midpoints[20]))
    assert nearest[2] == nearest[3]
    # midpoints, one sample and both range ends; span 0.05 of 60 gives 4
    points = np.unique(np.concatenate([midpoints, [lam[0], lam[10], lam[-1]]]))
    grid = WavelengthGrid(points)
    got = _smooth(lam, flux, (lam[0], lam[-1]), 0.05, grid)
    want = oracle_local_quadratic(lam, flux, points, 0.05)
    assert np.allclose(got, want, rtol=0.0, atol=1e-10)

    # the even/odd CV folds score each fold at the other's midpoints and at
    # one range end; span 0.1 of each 30-sample fold gives 4
    ((score,),) = span_cv_table(lam, flux[None], (0.1,))
    idx = np.arange(lam.size)
    total = 0.0
    for f in (0, 1):
        tr = idx % 2 == f
        pred = oracle_local_quadratic(lam[tr], flux[tr], lam[~tr], 0.1)
        total += np.sum((pred - flux[~tr]) ** 2)
    assert score == pytest.approx(total, rel=1e-10, abs=0.0)


def _thin_third_neighbour(delta):
    """Samples 1 apart around 1000 with the 3rd nearest to 1000 moved to
    1 - delta: with the base window of 4 (span 0.1 of 12 samples) its
    tricube weight is about (3 delta)**3, and the 4th nearest, at 1, has
    none."""
    offsets = [-5.0, -4.0, -3.0, -2.0, -1.0, -0.4, 0.3, 1.0 - delta, 2.0, 3.0, 4.0, 5.0]
    return 1000.0 + np.array(offsets)


@pytest.mark.parametrize("seed", range(4))
def test_ill_conditioned_window_matches_oracle(seed):
    """A weight of ~3e-18 leaves the moment matrix singular to working
    precision, but the weighted fit is still the quadratic through the three
    weighted samples, which the least-squares re-solve finds."""
    lam = _thin_third_neighbour(5e-7)
    flux = np.random.default_rng(seed).normal(size=lam.size)
    grid = WavelengthGrid([999.0, 1000.0])
    got = _smooth(lam, flux, (lam[0], lam[-1]), 0.1, grid)
    want = oracle_local_quadratic(lam, flux, grid.points, 0.1)
    assert np.allclose(got, want, rtol=0.0, atol=1e-6)


def test_rank_deficient_window_is_a_singular_fit():
    """A weight of ~3e-38 is below working precision: two samples carry the
    window, and no quadratic is determined."""
    lam = _thin_third_neighbour(1e-13)
    flux = np.random.default_rng(0).normal(size=lam.size)
    with pytest.raises(ValueError, match="singular local fit at wavelength 1000.0"):
        _smooth(lam, flux, (lam[0], lam[-1]), 0.1, WavelengthGrid([999.0, 1000.0]))


def test_cv_smoothing_recovers_sine_under_noise():
    """RMSE against the clean signal stays under the noise level, 20 seeds."""
    lam = np.linspace(1000.0, 1600.0, 500)
    truth = np.sin(lam / 20.0)
    grid = WavelengthGrid(np.linspace(1010.0, 1590.0, 120))
    truth_on_grid = np.sin(grid.points / 20.0)
    rmses = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        flux = truth + rng.normal(0.0, 0.05, lam.size)
        (span,) = select_spans(lam, flux[None], SPANS)
        fit = _smooth(lam, flux, (1000.0, 1600.0), span, grid)
        rmses.append(np.sqrt(np.mean((fit - truth_on_grid) ** 2)))
    assert max(rmses) < 0.05
    assert np.mean(rmses) < 0.02


# ----------------------------------------------------------------- errors

def test_too_few_samples_raises():
    lam = np.linspace(1.0, 10.0, 10)
    with pytest.raises(ValueError, match="at least 9"):
        _smooth(lam, np.ones(10), (1.0, 3.0), 0.5, WavelengthGrid([1.5, 2.0]))


def test_output_grid_must_stay_in_range():
    lam = np.linspace(1.0, 10.0, 30)
    with pytest.raises(ValueError, match="beyond the smoothing range"):
        _smooth(lam, np.ones(30), (2.0, 8.0), 0.5, WavelengthGrid([2.0, 9.0]))


def test_config_validation():
    for span in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError, match=r"every candidate span must be in \(0, 1\]"):
            PipelineConfig(span_candidates=(span,))
    assert PipelineConfig(span_candidates=(1.0,)).span_candidates == (1.0,)
    with pytest.raises(ValueError, match="span_candidates must not be empty"):
        PipelineConfig(span_candidates=())
    with pytest.raises(ValueError, match=r"every candidate span must be in \(0, 1\]"):
        PipelineConfig(span_candidates=(0.5, 0.0))


# -------------------------------------------------------------- linearity

def test_smoother_is_linear_in_flux():
    rng = np.random.default_rng(23)
    lam = np.sort(rng.uniform(1.0, 20.0, 60))
    f1 = rng.normal(size=60)
    f2 = rng.normal(size=60)
    a, b = 1.75, -0.5
    grid = WavelengthGrid(np.linspace(2.0, 19.0, 30))
    s1 = _smooth(lam, f1, (1.0, 20.0), 0.4, grid)
    s2 = _smooth(lam, f2, (1.0, 20.0), 0.4, grid)
    s12 = _smooth(lam, a * f1 + b * f2, (1.0, 20.0), 0.4, grid)
    assert np.max(np.abs(s12 - (a * s1 + b * s2))) < 1e-10


# ------------------------------------------------------------ span CV

def test_cv_prefers_larger_span_on_pure_quadratic():
    lam = np.linspace(1.0, 50.0, 60)
    flux = 1.0 + 0.1 * lam + 0.02 * lam**2
    assert select_spans(lam, flux[None], (0.3, 0.9)) == [0.9]


def test_cv_picks_smallest_span_for_wiggly_signal():
    rng = np.random.default_rng(31)
    lam = np.linspace(1.0, 100.0, 240)
    flux = np.sin(lam) + rng.normal(0.0, 0.01, lam.size)
    spans = (0.1, 0.4, 0.8)
    assert select_spans(lam, flux[None], spans) == [0.1]
    # argmin agrees with an independently computed CV table
    table = dict(zip(spans, span_cv_table(lam, flux[None], spans)[0]))
    idx = np.arange(lam.size)
    for span, score in table.items():
        total = 0.0
        for f in (0, 1):
            tr = idx % 2 == f
            pred = oracle_local_quadratic(lam[tr], flux[tr], lam[~tr], span)
            total += np.sum((pred - flux[~tr]) ** 2)
        assert score == pytest.approx(total, rel=1e-9)
    assert min(table, key=table.get) == 0.1


def test_cv_single_candidate_is_returned():
    """A single span is used as given for every row, without CV, so the
    20-sample minimum of span CV does not apply to it."""
    lam = np.linspace(1.0, 10.0, 40)
    assert select_spans(lam, np.ones((1, 40)), (0.5,)) == [0.5]
    assert select_spans(lam[:12], np.ones((3, 12)), [1]) == [1.0, 1.0, 1.0]
    with pytest.raises(ValueError, match="at least 20"):
        select_spans(lam[:12], np.ones((3, 12)), (0.5, 1.0))


def test_cv_selection_is_permutation_stable():
    rng = np.random.default_rng(42)
    lam = np.linspace(1.0, 60.0, 150)
    flux = np.cos(lam / 3.0) + rng.normal(0.0, 0.05, lam.size)
    spans = (0.1, 0.3, 0.5, 0.7, 0.9)
    first = select_spans(lam, flux[None], spans)
    second = select_spans(lam, flux[None], spans[::-1])
    assert first == second


def test_cv_needs_twenty_samples():
    lam = np.linspace(1.0, 10.0, 15)
    with pytest.raises(ValueError, match="at least 20"):
        select_spans(lam, np.ones((1, 15)), SPANS)


# ------------------------------------------------------------ batches

def test_batch_span_cv_is_the_one_spectrum_span_cv_row_by_row():
    """Each row of a block gets, bit for bit, the CV scores, span and smooth
    it gets alone. On this uniform grid every window of span 0.1 on a CV
    fold is rank-deficient where rounding breaks the tie between the 3rd and
    4th nearest samples, so that span scores inf for every row."""
    lam = 1000.0 + 0.3 * np.arange(40)
    rng = np.random.default_rng(9)
    flux = np.sin(np.outer([0.1, 0.5, 1.0, 1.5, 2.0], lam)) + rng.normal(0.0, 0.05, (5, lam.size))
    spans = (0.1, 0.3, 0.5)
    table = span_cv_table(lam, flux, spans)
    assert np.isinf(table[:, 0]).all() and np.isfinite(table[:, 1:]).all()
    chosen = select_spans(lam, flux, spans)
    assert chosen == [0.5, 0.5, 0.3, 0.3, 0.3]
    grid = WavelengthGrid(np.linspace(lam[0], lam[-1], 25))
    block = smooth_block(lam, flux, (lam[0], lam[-1]), chosen, grid)
    for row, scores, span, values in zip(flux, table, chosen, block):
        assert np.array_equal(span_cv_table(lam, row[None], spans)[0], scores)
        assert select_spans(lam, row[None], spans) == [span]
        assert np.array_equal(_smooth(lam, row, (lam[0], lam[-1]), span, grid), values)


# 2**60 - (1 + k * eps) rounds to -2**60 for every k: from a point that far,
# clustered samples all lie at one distance, and no window has 3 strictly inside
CLUSTER = 1.0 + np.arange(19) * np.finfo(float).eps
FAR = 2.0**60


def test_a_window_whose_samples_all_tie_in_distance_is_rejected():
    grid = WavelengthGrid(np.array([1.0, FAR]))
    with pytest.raises(ValueError) as err:
        smooth_block(CLUSTER[:9], np.ones((1, 9)), (1.0, FAR), [0.5], grid)
    assert str(err.value) == f"singular local fit at wavelength {FAR}: fewer than 3 samples carry positive weight"


def test_spans_are_rejected_when_every_candidate_fails_to_fit():
    # the odd fold holds the far sample, which the even fold's clustered samples cannot fit
    lam = np.append(CLUSTER, FAR)
    assert np.isinf(span_cv_table(lam, np.ones((1, 20)), SPANS)).all()
    with pytest.raises(ValueError, match="every candidate span failed to fit"):
        select_spans(lam, np.ones((1, 20)), SPANS)
