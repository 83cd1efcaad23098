import numpy as np
import pytest

from specband.curves import (
    Curve,
    CurvePair,
    RawSpectrum,
    WavelengthGrid,
    resample,
    shared_grid,
    sup_distance,
    to_rest_frame,
    trapezoid_weights,
)
from specband.evaluation import summarize
from specband.fpca import fit_fpca
from specband.mockgen import MockModel, generate, synthetic_model
from specband.regression import FittedRegression, KernelSpec
from specband.semimetrics import SemimetricSpec


def _spectrum(wavelengths, flux=None, z=0.0):
    wl = np.asarray(wavelengths, dtype=float)
    fx = np.ones_like(wl) if flux is None else np.asarray(flux, dtype=float)
    return RawSpectrum(wl, fx, np.zeros_like(wl), z)


# ------------------------------------------------------------- construction

def test_grid_rejects_non_increasing():
    with pytest.raises(ValueError, match="strictly increasing"):
        WavelengthGrid([1.0, 1.0, 2.0])


def test_grid_rejects_non_positive_and_non_finite():
    with pytest.raises(ValueError):
        WavelengthGrid([0.0, 1.0])
    with pytest.raises(ValueError):
        WavelengthGrid([1.0, np.inf])


def test_grid_matches_itself_without_comparing_points(monkeypatch):
    grid = WavelengthGrid([1.0, 2.0, 3.0])

    def forbidden(*args, **kwargs):
        raise AssertionError("a grid is the same as itself")

    monkeypatch.setattr(np, "array_equal", forbidden)
    assert grid.matches(grid)


def test_curve_length_must_match_grid():
    grid = WavelengthGrid([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="3-point grid"):
        Curve(grid, [1.0, 2.0])


def test_raw_spectrum_needs_ten_samples():
    with pytest.raises(ValueError, match="at least 10"):
        _spectrum(np.arange(1.0, 6.0))


def test_raw_spectrum_rejects_negative_noise():
    wl = np.arange(1.0, 13.0)
    with pytest.raises(ValueError, match="noise"):
        RawSpectrum(wl, np.ones_like(wl), -np.ones_like(wl))


# ------------------------------------------------------------ check parity

def _rejected_with(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert type(caught.value) is ValueError and str(caught.value) == message


def _raw_with(column, position, value):
    columns = {"wl": np.linspace(1000.0, 1100.0, 12), "fx": np.ones(12), "sd": np.full(12, 0.1)}
    columns[column][position] = value
    return lambda: RawSpectrum(columns["wl"], columns["fx"], columns["sd"])


@pytest.mark.parametrize("position", [0, -1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_samples_are_rejected_first_or_last(bad, position):
    points = np.array([1.0, 2.0, 3.0])
    points[position] = bad
    _rejected_with(lambda: WavelengthGrid(points), "grid points must be finite")
    values = np.array([1.0, 2.0, 3.0])
    values[position] = bad
    _rejected_with(lambda: Curve(WavelengthGrid([1.0, 2.0, 3.0]), values), "curve values must be finite")
    for column in ("wl", "fx", "sd"):
        _rejected_with(_raw_with(column, position, bad), "spectrum samples must be finite")


@pytest.mark.parametrize("points", [[1.0, 1.0, 2.0], [1.0, 2.0, 2.0], [2.0, 1.0, 3.0], [1.0, 3.0, 2.0]],
                         ids=["equal first", "equal last", "decreasing first", "decreasing last"])
def test_equal_or_decreasing_neighbouring_grid_points_are_rejected(points):
    _rejected_with(lambda: WavelengthGrid(points), "grid points must be strictly increasing")


@pytest.mark.parametrize("position, step", [(1, 0.0), (-1, 0.0), (1, -1.0), (-1, -1.0)],
                         ids=["equal first", "equal last", "decreasing first", "decreasing last"])
def test_equal_or_decreasing_neighbouring_wavelengths_are_rejected(position, step):
    neighbour = np.linspace(1000.0, 1100.0, 12)[position - 1]
    _rejected_with(_raw_with("wl", position, neighbour + step), "sample wavelengths must be strictly increasing")


@pytest.mark.parametrize("points", [[0.0, 1.0], [-0.0, 1.0], [-1.0, 1.0]])
def test_a_grid_point_at_or_below_zero_is_rejected(points):
    _rejected_with(lambda: WavelengthGrid(points), "grid points must be positive")


def test_negative_noise_sd_is_rejected_and_minus_zero_accepted():
    for position in (0, -1):
        _rejected_with(_raw_with("sd", position, -1e-300), "noise sd must be non-negative")
    spectrum = _raw_with("sd", 0, -0.0)()
    assert np.signbit(spectrum.noise_sd[0]) and spectrum.noise_sd[0] == 0.0


def test_two_dimensional_input_is_rejected():
    square = [[1.0, 2.0], [3.0, 4.0]]
    _rejected_with(lambda: WavelengthGrid(square), "grid points must be 1-dimensional")
    _rejected_with(lambda: Curve(WavelengthGrid([1.0, 2.0]), square), "curve values must be 1-dimensional")
    wl = np.linspace(1000.0, 1100.0, 12)
    _rejected_with(lambda: RawSpectrum(wl, np.ones((12, 1)), np.zeros(12)), "flux must be 1-dimensional")


@pytest.mark.parametrize("given", [[1, 2, 3], np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0], dtype=">f8")],
                         ids=["int list", "int array", "big-endian float64"])
def test_list_int_and_foreign_float_inputs_become_frozen_float64(given):
    for values in (WavelengthGrid(given).points, Curve(WavelengthGrid([1.0, 2.0, 3.0]), given).values):
        assert values.dtype == np.float64 and values.dtype.isnative and isinstance(values.base, bytes)
        assert values.tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("z", [True, False, "2", None, np.nan, np.inf, -1.0, 1j])
def test_redshift_must_be_a_finite_non_negative_real_not_a_bool(z):
    wl = np.linspace(1000.0, 1100.0, 12)
    _rejected_with(lambda: RawSpectrum(wl, np.ones(12), np.zeros(12), z),
                   "redshift must be a finite non-negative number")


@pytest.mark.parametrize("z", [10**400, 2**1024 - 2**970], ids=["10**400", "least-int-beyond-float"])
def test_redshift_rejects_an_integer_no_float_holds(z):
    wl = np.linspace(1000.0, 1100.0, 12)
    _rejected_with(lambda: RawSpectrum(wl, np.ones(12), np.zeros(12), z),
                   "redshift must be a finite non-negative number")
    assert RawSpectrum(wl, np.ones(12), np.zeros(12), 2**1024 - 2**971).redshift == float(2**1024 - 2**971)


@pytest.mark.parametrize("z", [0, 2, 2.5, np.float64(1.5), np.float32(0.5), np.int64(3)])
def test_redshift_takes_any_real_number_as_a_float(z):
    wl = np.linspace(1000.0, 1100.0, 12)
    spectrum = RawSpectrum(wl, np.ones(12), np.zeros(12), z)
    assert type(spectrum.redshift) is float and spectrum.redshift == float(z)


def test_curve_pair_requires_disjoint_ranges():
    pred = Curve(WavelengthGrid([1300.0, 1400.0]), [1.0, 1.0])
    resp = Curve(WavelengthGrid([1050.0, 1185.0]), [1.0, 1.0])
    CurvePair(pred, resp)
    with pytest.raises(ValueError, match="predictor grid"):
        CurvePair(resp, pred)


def test_values_are_immutable():
    curve = Curve(WavelengthGrid([1.0, 2.0]), [1.0, 2.0])
    with pytest.raises(ValueError):
        curve.values[0] = 5.0


# -------------------------------------------------------------- ownership

def test_a_frozen_array_passes_between_values_as_the_same_object():
    curve = Curve(WavelengthGrid([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])
    assert Curve(curve.grid, curve.values).values is curve.values
    assert resample(curve, curve.grid).values is curve.values
    spectrum = _spectrum(np.linspace(2000.0, 4000.0, 15), z=2.5)
    rest = to_rest_frame(spectrum)
    assert rest.flux is spectrum.flux and rest.noise_sd is spectrum.noise_sd
    model = synthetic_model(WavelengthGrid.uniform(1000.0, 1600.0, 50), n_components=3)
    assert MockModel(model.mu, model.xi, model.eigenvalues, model.sigma).eigenvalues is model.eigenvalues
    for mock in generate(model, 2, seed=1):
        assert mock.noisy.wavelengths is model.grid.points
        assert mock.noisy.noise_sd is model.sigma.values


@pytest.mark.parametrize("kind", ["writable", "read-only view", "list", "float32"])
def test_anything_but_a_frozen_array_is_copied_once(kind):
    source = np.array([1.0, 2.0, 3.0])
    given = {"writable": source, "read-only view": source.view(), "list": source.tolist(),
             "float32": source.astype(np.float32)}[kind]
    if kind == "read-only view":
        given.flags.writeable = False
    curve = Curve(WavelengthGrid([1.0, 2.0, 3.0]), given)
    assert isinstance(curve.values.base, bytes)
    (source if kind == "read-only view" else given)[0] = 99.0
    assert curve.values.tolist() == [1.0, 2.0, 3.0]


def test_no_value_array_can_be_made_writable_again():
    curve = Curve(WavelengthGrid([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))
    spectrum = _spectrum(np.linspace(1000.0, 2000.0, 12))
    model = synthetic_model(WavelengthGrid.uniform(1000.0, 1600.0, 50), n_components=3)
    for values in (curve.grid.points, curve.values, spectrum.wavelengths, spectrum.flux,
                   spectrum.noise_sd, model.eigenvalues):
        with pytest.raises(ValueError):
            values.flags.writeable = True


def test_mock_scores_and_model_matrices_refuse_writes():
    model = synthetic_model(WavelengthGrid.uniform(1000.0, 1600.0, 50), n_components=3)
    mocks = generate(model, 3, seed=2)
    low, high = WavelengthGrid.uniform(1000.0, 1200.0, 20), WavelengthGrid.uniform(1300.0, 1600.0, 30)
    pairs = [CurvePair(resample(m.true_continuum, high), resample(m.true_continuum, low)) for m in mocks]
    fitted = FittedRegression(tuple(pairs), SemimetricSpec.parse("l2"), KernelSpec(), 1)
    for values in (mocks[0].omega, fitted.predictor_matrix, fitted.response_matrix):
        with pytest.raises(ValueError):
            values[:] += 5.0


# -------------------------------------------------------------- rest frame

def test_rest_frame_divides_by_one_plus_z():
    wl = np.linspace(4000.0, 4864.0, 10)
    wl[-1] = 4864.0
    rest = to_rest_frame(_spectrum(wl, z=3.0))
    assert rest.wavelengths[-1] == pytest.approx(1216.0)
    assert rest.redshift == 0.0


def test_rest_frame_identity_at_z_zero():
    spec = _spectrum(np.linspace(1000.0, 2000.0, 12))
    rest = to_rest_frame(spec)
    assert np.array_equal(rest.wavelengths, spec.wavelengths)
    assert np.array_equal(rest.flux, spec.flux)


def test_rest_frame_z_one_halves_wavelengths():
    rest = to_rest_frame(_spectrum(np.linspace(1216.0, 2432.0, 10), z=1.0))
    assert rest.wavelengths[-1] == pytest.approx(1216.0)


def test_rest_frame_idempotent():
    spec = _spectrum(np.linspace(2000.0, 4000.0, 15), z=2.5)
    once = to_rest_frame(spec)
    twice = to_rest_frame(once)
    assert np.array_equal(once.wavelengths, twice.wavelengths)


# --------------------------------------------------------------- resample

def test_resample_linear_midpoint():
    curve = Curve(WavelengthGrid([1.0, 3.0]), [0.0, 2.0])
    out = resample(curve, WavelengthGrid([1.0, 2.0]))
    assert out.values[1] == pytest.approx(1.0)


def test_resample_identity_is_bitwise():
    rng = np.random.default_rng(0)
    grid = WavelengthGrid(np.sort(rng.uniform(1.0, 10.0, 50)))
    curve = Curve(grid, rng.normal(size=50))
    out = resample(curve, grid)
    assert np.array_equal(out.values, curve.values)


def test_resample_linearity_through_gap():
    curve = Curve(WavelengthGrid([1.0, 2.0, 4.0]), [1.0, 2.0, 4.0])
    out = resample(curve, WavelengthGrid([2.0, 3.0]))
    assert out.values[1] == pytest.approx(3.0)


def test_resample_exact_at_shared_points():
    grid = WavelengthGrid([1.0, 2.0, 3.0, 4.0])
    curve = Curve(grid, [5.0, -1.0, 2.0, 7.0])
    out = resample(curve, WavelengthGrid([2.0, 3.0]))
    assert out.values[0] == -1.0 and out.values[1] == 2.0


def test_resample_refuses_extrapolation_and_names_wavelength():
    curve = Curve(WavelengthGrid([2.0, 3.0]), [0.0, 1.0])
    with pytest.raises(ValueError, match="1.0"):
        resample(curve, WavelengthGrid([1.0, 2.5]))
    with pytest.raises(ValueError, match="9.0"):
        resample(curve, WavelengthGrid([2.5, 9.0]))


# ------------------------------------------------------------ sup distance

def test_sup_distance_identity_and_max_abs():
    grid = WavelengthGrid([1.0, 2.0, 3.0])
    a = Curve(grid, [1.0, 2.0, 3.0])
    assert sup_distance(a, a) == 0.0
    b = Curve(grid, [4.0, 1.0, 1.0])
    assert sup_distance(a, b) == 3.0


def test_sup_distance_constant_offset():
    grid = WavelengthGrid([1.0, 2.0])
    assert sup_distance(Curve(grid, [1.0, 1.0]), Curve(grid, [0.0, 0.0])) == 1.0


def test_sup_distance_grid_mismatch():
    a = Curve(WavelengthGrid([1.0, 2.0]), [0.0, 0.0])
    b = Curve(WavelengthGrid([1.0, 3.0]), [0.0, 0.0])
    with pytest.raises(ValueError, match="all curves must share one grid"):
        sup_distance(a, b)


def test_shared_grid_returns_the_first_grid_or_names_the_curves():
    grid = WavelengthGrid([1.0, 2.0])
    curves = [Curve(grid, [0.0, 1.0]), Curve(WavelengthGrid([1.0, 2.0]), [1.0, 0.0])]
    assert shared_grid(curves, "curves") is grid
    assert shared_grid(curves[:1], "curves") is grid
    with pytest.raises(ValueError, match="^all model curves must share one grid$"):
        shared_grid([*curves, Curve(WavelengthGrid([1.0, 3.0]), [0.0, 0.0])], "model curves")


def _moved(curve):
    return Curve(WavelengthGrid(curve.grid.points + 0.5), curve.values)


@pytest.mark.parametrize("build", [
    lambda m: fit_fpca([m.mu, _moved(m.mu.with_values(m.xi[0]))], 1),
    lambda m: summarize([m.mu, m.mu.with_values(m.xi[0]), _moved(m.mu.with_values(m.xi[1]))]),
    lambda m: MockModel(_moved(m.mu), m.xi, m.eigenvalues, m.sigma),
    lambda m: MockModel(m.mu, m.xi, m.eigenvalues, _moved(m.sigma)),
], ids=["fpca", "summarize", "mock mean", "mock noise sd"])
def test_every_curve_sample_keeps_the_one_grid_rule(build):
    model = synthetic_model(WavelengthGrid.uniform(1000.0, 1600.0, 50), n_components=3)
    with pytest.raises(ValueError, match="must share one grid"):
        build(model)


def test_sup_distance_is_a_metric_on_random_triples():
    rng = np.random.default_rng(7)
    grid = WavelengthGrid(np.sort(rng.uniform(1.0, 5.0, 20)))
    for _ in range(50):
        a, b, c = (Curve(grid, rng.normal(size=20)) for _ in range(3))
        dab, dba = sup_distance(a, b), sup_distance(b, a)
        assert dab == dba
        assert dab >= 0.0
        assert sup_distance(a, a) == 0.0
        assert sup_distance(a, c) <= dab + sup_distance(b, c) + 1e-12


# -------------------------------------------------------- helpers

def test_trapezoid_weights_integrate_linear_functions_exactly():
    pts = np.array([0.5, 1.0, 2.5, 3.0, 4.0])
    w = trapezoid_weights(pts)
    assert np.sum(w) == pytest.approx(3.5)
    assert np.sum(w * pts) == pytest.approx(np.trapezoid(pts, pts))


def test_raw_spectrum_rejects_columns_of_unequal_length():
    wl = np.arange(1.0, 13.0)
    for flux, sd in ((np.ones(11), np.zeros(12)), (np.ones(12), np.zeros(13))):
        with pytest.raises(ValueError, match="wavelengths, flux and noise_sd must have equal length"):
            RawSpectrum(wl, flux, sd)
