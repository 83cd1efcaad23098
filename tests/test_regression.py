import numpy as np
import pytest

from specband.curves import Curve, CurvePair, WavelengthGrid, trapezoid_weights
from specband import regression
from specband.regression import (
    FittedRegression,
    KernelSpec,
    best_kappa,
    kappa_cv_scores,
    predict,
    predict_many,
    prediction_weights,
    select_kappa_cv,
)
from specband.semimetrics import SemimetricSpec, distance, distance_matrix

L2 = SemimetricSpec.l2()
KERNEL = KernelSpec()

# predictor grid on a unit-length interval so constant-offset curves have an
# L2 distance equal to the offset
PRED_GRID = WavelengthGrid(np.linspace(1.0, 2.0, 101))
RESP_GRID = WavelengthGrid(np.linspace(0.25, 0.75, 40))


def _pair(pred_values, resp_values):
    return CurvePair(
        Curve(PRED_GRID, pred_values),
        Curve(RESP_GRID, resp_values),
    )


def _offset_model(offsets, responses, kappa):
    """Training predictors at constant offsets from zero; distances = |offset|."""
    pairs = tuple(
        _pair(np.full(101, off), np.full(40, resp))
        for off, resp in zip(offsets, responses)
    )
    return FittedRegression(pairs, L2, KERNEL, kappa)


def _zero_query():
    return Curve(PRED_GRID, np.zeros(101))


def brute_force_prediction(model, x):
    """Direct evaluation of the kernel-average formula, scalar loops only."""
    n = model.n
    dists = [distance(model.semimetric, p.predictor, x) for p in model.pairs]
    ordered = sorted(dists)
    lo, hi = ordered[model.kappa - 1], ordered[model.kappa]
    h = lo if lo == hi else 0.5 * (lo + hi)
    values = np.zeros(len(model.response_grid))
    total = 0.0
    for d, pair in zip(dists, model.pairs):
        if h == 0.0:
            w = 1.0 if d == 0.0 else 0.0
        else:
            u = d / h
            w = 1.0 - u * u if u <= 1.0 else 0.0
        total += w
        values = values + w * pair.response.values
    if total == 0.0:
        # every pair inside ties at the bandwidth, where the kernel is zero:
        # unweighted mean of those pairs
        return np.mean([p.response.values for d, p in zip(dists, model.pairs) if d <= h], axis=0)
    return values / total


# ---------------------------------------------------------------- bandwidth

def test_bandwidth_midpoint_rule():
    # kappa=2 puts h midway between distances 2 and 3; the kernel weights
    # 1 - (1/2.5)^2 = 0.84 and 1 - (2/2.5)^2 = 0.36 hold at h = 2.5 only
    model = _offset_model([1.0, 2.0, 3.0, 4.0, 9.9], [0.0] * 5, kappa=2)
    w = prediction_weights(model, _zero_query())
    assert np.allclose(w, [0.7, 0.3, 0.0, 0.0, 0.0], atol=1e-12)


def test_bandwidth_tie_returns_common_value():
    # the 3rd and 4th distances tie at 1, so h = 1: both tied curves sit on
    # the kernel's edge with zero weight, and the weight ratio 15:12 of the
    # two nearer curves holds at h = 1 only
    model = _offset_model([0.25, 0.5, 1.0, -1.0], [0.0] * 4, kappa=3)
    w = prediction_weights(model, _zero_query())
    assert np.allclose(w, [15 / 27, 12 / 27, 0.0, 0.0], atol=1e-12)


def test_bandwidth_two_points():
    # the bandwidth falls between the two curves, so only the nearer counts
    model = _offset_model([0.0, 5.0], [0.0, 0.0], kappa=1)
    assert np.array_equal(prediction_weights(model, _zero_query()), [1.0, 0.0])


def test_kappa_must_be_below_n():
    with pytest.raises(ValueError, match="kappa"):
        _offset_model([1.0, 2.0], [0.0, 0.0], kappa=2)


# ----------------------------------------------------------------- predict

def test_predict_returns_isolated_neighbor_response():
    rng = np.random.default_rng(0)
    y1 = rng.normal(size=40)
    pairs = (
        _pair(np.zeros(101), y1),
        _pair(np.full(101, 50.0), rng.normal(size=40)),
        _pair(np.full(101, 60.0), rng.normal(size=40)),
    )
    model = FittedRegression(pairs, L2, KERNEL, kappa=1)
    out = predict(model, Curve(PRED_GRID, np.full(101, 0.001)))
    assert np.array_equal(out.values, y1)


def test_predict_averages_equidistant_pair():
    rng = np.random.default_rng(1)
    y1, y2 = rng.normal(size=40), rng.normal(size=40)
    pairs = (_pair(np.full(101, 1.0), y1), _pair(np.full(101, -1.0), y2))
    model = FittedRegression(pairs, L2, KERNEL, kappa=1)
    out = predict(model, _zero_query())
    assert np.allclose(out.values, (y1 + y2) / 2.0, atol=1e-12)


def test_predict_matches_hand_computed_weights():
    """Distances 0.1,0.2,0.3,0.9,1.4 with kappa=3: h=0.6, kernel weights
    proportional to 35/36, 8/9, 3/4 and zero beyond the bandwidth."""
    rng = np.random.default_rng(2)
    responses = [rng.normal(size=40) for _ in range(5)]
    model = FittedRegression(
        tuple(
            _pair(np.full(101, off), resp)
            for off, resp in zip([0.1, 0.2, 0.3, 0.9, 1.4], responses)
        ),
        L2,
        KERNEL,
        kappa=3,
    )
    w = prediction_weights(model, _zero_query())
    assert np.allclose(w, [35 / 94, 32 / 94, 27 / 94, 0.0, 0.0], atol=1e-12)
    out = predict(model, _zero_query())
    expected = (35 * responses[0] + 32 * responses[1] + 27 * responses[2]) / 94
    assert np.allclose(out.values, expected, atol=1e-12)
    assert np.allclose(out.values, brute_force_prediction(model, _zero_query()), atol=1e-14)


def test_constant_responses_predict_the_constant():
    rng = np.random.default_rng(3)
    pairs = tuple(
        _pair(rng.normal(size=101), np.full(40, 3.25)) for _ in range(6)
    )
    model = FittedRegression(pairs, L2, KERNEL, kappa=3)
    out = predict(model, Curve(PRED_GRID, rng.normal(size=101)))
    assert np.allclose(out.values, 3.25, atol=1e-12)


def test_brute_force_equivalence_on_random_datasets():
    rng = np.random.default_rng(100)
    grid_x = WavelengthGrid(np.linspace(2.0, 3.0, 20))
    grid_y = WavelengthGrid(np.linspace(0.5, 1.5, 20))
    for _ in range(25):
        n = int(rng.integers(2, 7))
        pairs = tuple(
            CurvePair(
                Curve(grid_x, rng.normal(size=20)),
                Curve(grid_y, rng.normal(size=20)),
            )
            for _ in range(n)
        )
        kappa = int(rng.integers(1, n))
        model = FittedRegression(pairs, L2, KERNEL, kappa)
        x = Curve(grid_x, rng.normal(size=20))
        got = predict(model, x).values
        want = brute_force_prediction(model, x)
        assert np.max(np.abs(got - want)) < 1e-12


def test_weights_form_probability_vector():
    rng = np.random.default_rng(5)
    pairs = tuple(
        _pair(rng.normal(size=101), rng.normal(size=40)) for _ in range(8)
    )
    model = FittedRegression(pairs, L2, KERNEL, kappa=4)
    for _ in range(20):
        w = prediction_weights(model, Curve(PRED_GRID, rng.normal(size=101)))
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) < 1e-12


def test_prediction_stays_in_response_envelope():
    rng = np.random.default_rng(6)
    pairs = tuple(
        _pair(rng.normal(size=101), rng.normal(size=40)) for _ in range(7)
    )
    model = FittedRegression(pairs, L2, KERNEL, kappa=3)
    responses = np.stack([p.response.values for p in pairs])
    for _ in range(10):
        out = predict(model, Curve(PRED_GRID, rng.normal(size=101))).values
        assert np.all(out >= responses.min(axis=0) - 1e-12)
        assert np.all(out <= responses.max(axis=0) + 1e-12)


def test_pairs_beyond_bandwidth_get_zero_weight():
    model = _offset_model([0.1, 0.2, 5.0, 9.0], [0.0] * 4, kappa=2)
    w = prediction_weights(model, _zero_query())
    assert w[2] == 0.0 and w[3] == 0.0


def test_response_scaling_is_exact_for_powers_of_two():
    rng = np.random.default_rng(7)
    predictors = [rng.normal(size=101) for _ in range(5)]
    responses = [rng.normal(size=40) for _ in range(5)]
    x = Curve(PRED_GRID, rng.normal(size=101))
    base = FittedRegression(
        tuple(_pair(p, r) for p, r in zip(predictors, responses)), L2, KERNEL, 3
    )
    doubled = FittedRegression(
        tuple(_pair(p, 2.0 * r) for p, r in zip(predictors, responses)), L2, KERNEL, 3
    )
    assert np.array_equal(predict(doubled, x).values, 2.0 * predict(base, x).values)


def test_predictor_scaling_leaves_prediction_unchanged():
    # scaling all predictors (and the query) scales every distance, and the
    # neighbor ratios u = d/h are scale-free
    rng = np.random.default_rng(8)
    predictors = [rng.normal(size=101) for _ in range(6)]
    responses = [rng.normal(size=40) for _ in range(6)]
    xv = rng.normal(size=101)
    base = FittedRegression(
        tuple(_pair(p, r) for p, r in zip(predictors, responses)), L2, KERNEL, 3
    )
    scaled = FittedRegression(
        tuple(_pair(2.0 * p, r) for p, r in zip(predictors, responses)), L2, KERNEL, 3
    )
    out_base = predict(base, Curve(PRED_GRID, xv)).values
    out_scaled = predict(scaled, Curve(PRED_GRID, 2.0 * xv)).values
    assert np.allclose(out_base, out_scaled, atol=1e-13)


def test_derivative_semimetric_ignores_constant_offsets():
    # under the first-derivative distance, shifting a predictor by a constant
    # must not change which neighbors it finds
    rng = np.random.default_rng(14)
    predictors = [rng.normal(size=101) for _ in range(6)]
    responses = [rng.normal(size=40) for _ in range(6)]
    pairs = tuple(_pair(p, r) for p, r in zip(predictors, responses))
    model = FittedRegression(pairs, SemimetricSpec.sobolev(1), KERNEL, kappa=3)
    x = rng.normal(size=101)
    base = predict(model, Curve(PRED_GRID, x))
    shifted = predict(model, Curve(PRED_GRID, x + 5.0))
    assert np.allclose(base.values, shifted.values, atol=1e-10)


def test_duplicate_predictors_share_weight():
    rng = np.random.default_rng(9)
    y1, y2 = rng.normal(size=40), rng.normal(size=40)
    pairs = (
        _pair(np.zeros(101), y1),
        _pair(np.zeros(101), y2),
        _pair(np.full(101, 8.0), rng.normal(size=40)),
    )
    model = FittedRegression(pairs, L2, KERNEL, kappa=1)
    out = predict(model, _zero_query())
    assert np.allclose(out.values, (y1 + y2) / 2.0, atol=1e-12)


def test_predict_many_matches_brute_force_past_the_first_block():
    # constant integer offsets on a grid with dyadic trapezoid weights (1/16,
    # 1/8) summing to 1: the Gram distances are the exact |offset differences|
    grid = WavelengthGrid(np.linspace(1.0, 2.0, 9))
    rng = np.random.default_rng(16)
    offsets = [0, 0, *range(10, 210, 10)]
    pairs = tuple(CurvePair(Curve(grid, np.full(9, float(o))), Curve(RESP_GRID, rng.normal(size=40))) for o in offsets)
    model = FittedRegression(pairs, L2, KERNEL, kappa=1)
    query_offsets = rng.integers(-20, 220, size=regression._BLOCK_ROWS + 40).astype(float)
    # past the first block: an exact copy of the duplicated training curve
    # (two distances 0, so h = 0) and a query midway between 10 and 20 (both
    # neighbors tie at h = 5, where every kernel weight is 0)
    query_offsets[regression._BLOCK_ROWS + 3] = 0.0
    query_offsets[regression._BLOCK_ROWS + 7] = 15.0
    queries = np.repeat(query_offsets[:, None], 9, axis=1)
    dmat = distance_matrix(L2, queries, model.predictor_matrix, grid.points)
    assert np.array_equal(dmat, np.abs(query_offsets[:, None] - np.array(offsets, dtype=float)))

    got = predict_many(model, queries)
    for row, q in zip(got, queries):
        assert np.max(np.abs(row - brute_force_prediction(model, Curve(grid, q)))) < 1e-12
    copies, tied = got[regression._BLOCK_ROWS + 3], got[regression._BLOCK_ROWS + 7]
    assert np.allclose(copies, (pairs[0].response.values + pairs[1].response.values) / 2.0, atol=1e-12)
    assert np.allclose(tied, (pairs[2].response.values + pairs[3].response.values) / 2.0, atol=1e-12)


def test_query_grid_mismatch_raises():
    model = _offset_model([1.0, 2.0, 3.0], [0.0] * 3, kappa=1)
    bad = Curve(WavelengthGrid(np.linspace(1.0, 2.0, 50)), np.zeros(50))
    with pytest.raises(ValueError, match="predictor grid"):
        predict(model, bad)


# ------------------------------------------------------------ kappa by LOO

def oracle_loo_table(pairs, candidates):
    """Independent leave-one-out table using scalar distance calls."""
    n = len(pairs)
    quad = trapezoid_weights(pairs[0].response.grid.points)
    table = {}
    for kappa in candidates:
        k_eff = min(kappa, n - 2)
        total = 0.0
        for i in range(n):
            rest = [pairs[j] for j in range(n) if j != i]
            dists = [distance(L2, p.predictor, pairs[i].predictor) for p in rest]
            ordered = sorted(dists)
            lo, hi = ordered[k_eff - 1], ordered[k_eff]
            h = lo if lo == hi else 0.5 * (lo + hi)
            num = np.zeros_like(pairs[i].response.values)
            den = 0.0
            for d, p in zip(dists, rest):
                u = d / h if h > 0 else (0.0 if d == 0.0 else np.inf)
                w = 1.0 - u * u if u <= 1.0 else 0.0
                num = num + w * p.response.values
                den += w
            if den == 0.0:
                # distances tied exactly at the bandwidth: unweighted mean of
                # everything inside it
                num = np.zeros_like(num)
                for d, p in zip(dists, rest):
                    if d <= h:
                        num = num + p.response.values
                        den += 1.0
            diff = num / den - pairs[i].response.values
            total += float(np.sum(quad * diff * diff))
        table[kappa] = total / n
    return table


def test_loo_prefers_one_neighbor_for_smooth_structure():
    # responses follow the predictors deterministically along a 1-d family
    # with well-separated geometric spacing; the nearest neighbor is nearly a
    # perfect predictor
    base_x = np.sin(np.linspace(0.0, 3.0, 101))
    base_y = np.cos(np.linspace(0.0, 2.0, 40))
    pairs = tuple(
        _pair(1.1**i * base_x, 1.1**i * base_y) for i in range(1, 11)
    )
    candidates = [1, len(pairs) - 1]
    assert select_kappa_cv(pairs, L2, KERNEL, candidates) == 1
    table = dict(kappa_cv_scores(pairs, L2, KERNEL, candidates))
    want = oracle_loo_table(pairs, candidates)
    for kappa in candidates:
        assert table[kappa] == pytest.approx(want[kappa], rel=1e-9)
    assert min(want, key=want.get) == 1


def test_loo_prefers_averaging_for_pure_noise():
    n = 12
    candidates = [1, n - 1]
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pairs = tuple(
            _pair(rng.normal(size=101), rng.normal(size=40)) for _ in range(n)
        )
        got = select_kappa_cv(pairs, L2, KERNEL, candidates)
        want = oracle_loo_table(pairs, candidates)
        assert got == min(want, key=want.get)
        wins += got == n - 1
    assert wins > 10


def test_loo_single_candidate():
    rng = np.random.default_rng(3)
    pairs = tuple(_pair(rng.normal(size=101), rng.normal(size=40)) for _ in range(6))
    assert select_kappa_cv(pairs, L2, KERNEL, [3]) == 3


def test_loo_rejects_empty_or_out_of_range_candidates():
    rng = np.random.default_rng(4)
    pairs = tuple(_pair(rng.normal(size=101), rng.normal(size=40)) for _ in range(5))
    with pytest.raises(ValueError, match="empty"):
        select_kappa_cv(pairs, L2, KERNEL, [])
    with pytest.raises(ValueError, match="outside"):
        select_kappa_cv(pairs, L2, KERNEL, [5])


def test_loo_handles_duplicates_and_ties_at_the_bandwidth():
    # three identical predictors: leaving one out with kappa=1 leaves two at
    # distance 0, so h = 0; from the +/-1 curves the three copies tie at the
    # bandwidth, every kernel weight vanishes and the fallback mean runs
    rng = np.random.default_rng(15)
    offsets = [0.0, 0.0, 0.0, 1.0, -1.0, 3.0]
    pairs = tuple(_pair(np.full(101, off), rng.normal(size=40)) for off in offsets)
    candidates = [1, 2, 3, 4]
    table = dict(kappa_cv_scores(pairs, L2, KERNEL, candidates))
    want = oracle_loo_table(pairs, candidates)
    for kappa in candidates:
        assert table[kappa] == pytest.approx(want[kappa], rel=1e-12)
    assert select_kappa_cv(pairs, L2, KERNEL, candidates) == min(want, key=want.get)


def test_best_kappa_ties_go_to_the_smaller_kappa():
    assert best_kappa([(8, 1.0), (2, 1.0), (4, 3.0)]) == 2
    assert best_kappa([(2, 2.0), (16, 0.5), (4, 0.5)]) == 4
