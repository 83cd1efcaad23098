import numpy as np
import pytest

from specband.curves import Curve, CurvePair, WavelengthGrid, trapezoid_weights
from specband import regression
from specband.regression import (
    FittedRegression,
    KernelSpec,
    fit_kappa,
    kappa_cv_scores,
    predict,
    predict_many,
    prediction_weights,
    select_kappa_cv,
)
from specband.conformal import calibrate
from specband.semimetrics import SemimetricSpec, distances_to, nearest, reference

L2 = SemimetricSpec.parse("l2")
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
    n = len(model)
    dists = [distances_to(model.semimetric, p.predictor.values, x.values, x.grid.points)[0] for p in model.pairs]
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


def brute_force_weights(model, x):
    """Every pair's normalized weight at ``x`` as a dense n-vector, scalar loops only."""
    dists = [distances_to(model.semimetric, p.predictor.values, x.values, x.grid.points)[0] for p in model.pairs]
    ordered = sorted(dists)
    lo, hi = ordered[model.kappa - 1], ordered[model.kappa]
    h = lo if lo == hi else 0.5 * (lo + hi)
    raw = []
    for d in dists:
        if h == 0.0:
            raw.append(1.0 if d == 0.0 else 0.0)
        else:
            u = d / h
            raw.append(1.0 - u * u if u <= 1.0 else 0.0)
    total = sum(raw)
    if total == 0.0:  # every pair inside ties at the bandwidth: each gets 1/count
        inside = [1.0 if d <= h else 0.0 for d in dists]
        return np.array(inside) / sum(inside)
    return np.array(raw) / total


def assert_weights_are_the_oracle_s_nonzeros(model, x):
    rows, w = prediction_weights(model, x)
    dense = brute_force_weights(model, x)
    assert rows.tolist() == np.flatnonzero(dense).tolist()
    assert w.tobytes() == dense[rows].tobytes()
    return rows, w


# ---------------------------------------------------------------- bandwidth

def test_bandwidth_midpoint_rule():
    # kappa=2 puts h midway between distances 2 and 3; the kernel weights
    # 1 - (1/2.5)^2 = 0.84 and 1 - (2/2.5)^2 = 0.36 hold at h = 2.5 only
    model = _offset_model([1.0, 2.0, 3.0, 4.0, 9.9], [0.0] * 5, kappa=2)
    rows, w = prediction_weights(model, _zero_query())
    assert rows.tolist() == [0, 1] and np.allclose(w, [0.7, 0.3], atol=1e-12)


def test_bandwidth_tie_returns_common_value():
    # the 3rd and 4th distances tie at 1, so h = 1: both tied curves sit on
    # the kernel's edge with zero weight, and the weight ratio 15:12 of the
    # two nearer curves holds at h = 1 only
    model = _offset_model([0.25, 0.5, 1.0, -1.0], [0.0] * 4, kappa=3)
    rows, w = assert_weights_are_the_oracle_s_nonzeros(model, _zero_query())
    assert rows.tolist() == [0, 1] and np.allclose(w, [15 / 27, 12 / 27], atol=1e-12)


def test_bandwidth_two_points():
    # the bandwidth falls between the two curves, so only the nearer counts
    model = _offset_model([0.0, 5.0], [0.0, 0.0], kappa=1)
    rows, w = prediction_weights(model, _zero_query())
    assert rows.tolist() == [0] and w.tolist() == [1.0]


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
    rows, w = prediction_weights(model, _zero_query())
    assert rows.tolist() == [0, 1, 2] and np.allclose(w, [35 / 94, 32 / 94, 27 / 94], atol=1e-12)
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
        rows, w = prediction_weights(model, Curve(PRED_GRID, rng.normal(size=101)))
        assert np.all(rows[1:] > rows[:-1]) and 0 <= rows[0] and rows[-1] < len(model)
        assert np.all(w > 0.0)
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
    rows, _ = prediction_weights(model, _zero_query())
    assert 2 not in rows and 3 not in rows


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
    model = FittedRegression(pairs, SemimetricSpec.parse("deriv1"), KERNEL, kappa=3)
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
    # 1/8) summing to 1: the distances are the exact |offset differences|
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
    dmat = np.stack([distances_to(L2, model.predictor_matrix, q, grid.points) for q in queries])
    assert np.array_equal(dmat, np.abs(query_offsets[:, None] - np.array(offsets, dtype=float)))

    got = predict_many(model, queries)
    for row, q in zip(got, queries):
        assert np.max(np.abs(row - brute_force_prediction(model, Curve(grid, q)))) < 1e-12
    copies, tied = got[regression._BLOCK_ROWS + 3], got[regression._BLOCK_ROWS + 7]
    assert np.allclose(copies, (pairs[0].response.values + pairs[1].response.values) / 2.0, atol=1e-12)
    assert np.allclose(tied, (pairs[2].response.values + pairs[3].response.values) / 2.0, atol=1e-12)


# constant integer offsets on a grid with dyadic trapezoid weights (1/16,
# 1/8) summing to 1: both distance kernels give the exact |offset differences|
DYADIC_GRID = WavelengthGrid(np.linspace(1.0, 2.0, 9))
# duplicates (0, 0, 0 and 60, 60), equal gaps (10 and -10 from 0) and a
# curve midway between two others (45 between 30 and 60)
TIED_OFFSETS = [0, 0, 0, 10, -10, 30, 45, 60, 60, 75, 100]


def _tied_pairs(offsets, seed):
    rng = np.random.default_rng(seed)
    return tuple(
        CurvePair(Curve(DYADIC_GRID, np.full(9, float(o))), Curve(RESP_GRID, rng.normal(size=40)))
        for o in offsets
    )


@pytest.mark.parametrize("kappa", [1, 2, 3, 4, 5])
def test_sparse_neighbours_match_brute_force_on_duplicates_and_ties(kappa):
    # from 0 the three copies give h = 0 for kappa <= 2 and tie with the
    # +/-10 curves across the kappa/kappa+1 boundary for kappa = 4; from 5
    # (kappa <= 3), 20 (kappa = 1) and 52.5 (kappa <= 2) every neighbor
    # inside ties at the bandwidth, so all kernel weights vanish
    pairs = _tied_pairs(TIED_OFFSETS, 17)
    model = FittedRegression(pairs, L2, KERNEL, kappa)
    query_offsets = [0.0, 5.0, 15.0, 20.0, 30.0, 52.5, 60.0, 67.5, -10.0, 120.0]
    queries = np.repeat(np.array(query_offsets)[:, None], 9, axis=1)
    many = predict_many(model, queries)
    for q, row in zip(queries, many):
        x = Curve(DYADIC_GRID, q)
        want = brute_force_prediction(model, x)
        assert np.max(np.abs(predict(model, x).values - want)) < 1e-12
        assert np.max(np.abs(row - want)) < 1e-12
        rows, w = assert_weights_are_the_oracle_s_nonzeros(model, x)
        assert np.max(np.abs(w @ model.response_matrix[rows] - want)) < 1e-12
    if kappa == 1:  # from 20 the fallback averages the curves at 10 and 30
        want = (pairs[3].response.values + pairs[5].response.values) / 2.0
        assert np.allclose(many[3], want, atol=1e-12)


def test_sparse_predict_many_matches_brute_force_on_ties_past_the_first_block():
    model = FittedRegression(_tied_pairs(TIED_OFFSETS, 18), L2, KERNEL, kappa=2)
    rng = np.random.default_rng(19)
    query_offsets = rng.integers(-20, 120, size=regression._BLOCK_ROWS + 30).astype(float)
    # past the first block: the three copies (h = 0), 15 (the copies and 30
    # tie across the kappa/kappa+1 boundary) and 52.5 (three neighbors tie
    # at the bandwidth and every kernel weight vanishes)
    query_offsets[regression._BLOCK_ROWS + 2 :][:3] = [0.0, 15.0, 52.5]
    queries = np.repeat(query_offsets[:, None], 9, axis=1)
    got = predict_many(model, queries)
    for row, q in zip(got, queries):
        assert np.max(np.abs(row - brute_force_prediction(model, Curve(DYADIC_GRID, q)))) < 1e-12


def test_sparse_loo_table_matches_brute_force_on_duplicates_and_ties():
    # leaving out a copy of 0 leaves two at distance 0 (h = 0 for kappa = 1),
    # leaving out a 60 ties 45 and 75 across the boundary (kappa = 2), and
    # from 45 the two 60s and 30 tie at the bandwidth (kappa <= 2)
    pairs = _tied_pairs(TIED_OFFSETS, 20)
    n = len(pairs)
    candidates = [1, 2, 3, 4, 6, n - 1]
    table = dict(kappa_cv_scores(FittedRegression(pairs, L2, KERNEL, 1), candidates))
    quad = trapezoid_weights(RESP_GRID.points)
    for kappa in candidates:
        total = 0.0
        for i in range(n):
            rest = FittedRegression(pairs[:i] + pairs[i + 1 :], L2, KERNEL, min(kappa, n - 2))
            diff = brute_force_prediction(rest, pairs[i].predictor) - pairs[i].response.values
            total += float(np.sum(quad * diff * diff))
        assert table[kappa] == pytest.approx(total / n, rel=1e-12)


def test_loo_table_matches_brute_force_past_the_first_block():
    # under the first-derivative distance: copies (distance 0) and curves
    # shifted by a constant (distance ~1e-15, the derivatives' rounding)
    rng = np.random.default_rng(27)
    values = rng.normal(size=(regression._BLOCK_ROWS + 16, 101))
    values[-10:] = values[:10]
    values[-15:-10] = values[:5] + 3.0
    pairs = tuple(_pair(v, rng.normal(size=40)) for v in values)
    d1 = SemimetricSpec.parse("deriv1")
    n = len(pairs)
    candidates = [1, 3, 8]
    table = dict(kappa_cv_scores(FittedRegression(pairs, d1, KERNEL, 1), candidates))
    quad = trapezoid_weights(RESP_GRID.points)
    for kappa in candidates:
        total = 0.0
        for i in range(n):
            rest = FittedRegression(pairs[:i] + pairs[i + 1 :], d1, KERNEL, kappa)
            diff = brute_force_prediction(rest, pairs[i].predictor) - pairs[i].response.values
            total += float(np.sum(quad * diff * diff))
        assert table[kappa] == pytest.approx(total / n, rel=1e-12)


def test_gram_screen_alone_would_pick_wrong_neighbours():
    # 60 near-duplicate curves, a 1e4 offset plus 1e-7 noise on 300 points:
    # the Gram expansion's rounding dwarfs the distances, so its 9 nearest
    # are not the 9 nearest by direct distance; predictions still equal a
    # brute force over direct distances
    grid = WavelengthGrid(np.linspace(1.0, 2.0, 300))
    rng = np.random.default_rng(25)
    values = 1e4 + 1e-7 * rng.normal(size=(60, 300))
    pairs = tuple(CurvePair(Curve(grid, v), Curve(RESP_GRID, rng.normal(size=40))) for v in values)
    model = FittedRegression(pairs, L2, KERNEL, kappa=8)
    queries = 1e4 + 1e-7 * rng.normal(size=(10, 300))
    w = trapezoid_weights(grid.points)
    q_sq, v_sq = np.sum(queries * queries * w, axis=1), np.sum(values * values * w, axis=1)
    gram = np.sqrt(np.maximum(q_sq[:, None] + v_sq[None, :] - 2.0 * (queries @ (values * w).T), 0.0))
    direct = np.stack([distances_to(L2, values, q, grid.points) for q in queries])
    assert np.max(np.abs(gram - direct)) > 100 * np.max(direct)
    assert any(set(np.argsort(g)[:9]) != set(np.argsort(d)[:9]) for g, d in zip(gram, direct))
    for q, row in zip(queries, predict_many(model, queries)):
        assert np.max(np.abs(row - brute_force_prediction(model, Curve(grid, q)))) < 1e-12


def test_squared_distances_that_tie_after_the_square_root_share_the_bandwidth():
    # from 0: a curve at distance 0.5, then squared distances 1 and
    # 1 + 2**-52 (dyadic weights make both exact), whose square roots are
    # both 1.0, then a curve at 5. With kappa = 2 the 2nd and 3rd nearest tie
    # at h = 1, where the kernel is zero, so only the nearest curve counts
    rng = np.random.default_rng(28)
    near, a, far = np.full(9, 0.5), np.zeros(9), np.full(9, 5.0)
    a[1:3] = 2.0  # interior weights 1/8: 2 * 4 / 8 = 1
    b = a.copy()
    b[0] = 2.0**-24  # end weight 1/16 adds 2**-52
    pairs = tuple(
        CurvePair(Curve(DYADIC_GRID, v), Curve(RESP_GRID, rng.normal(size=40)))
        for v in (far, b, near, a)
    )
    w = trapezoid_weights(DYADIC_GRID.points)
    assert np.sum(w * b * b) == 1.0 + 2.0**-52 and np.sum(w * a * a) == 1.0
    x = Curve(DYADIC_GRID, np.zeros(9))
    for pair in (pairs[1], pairs[3]):
        assert distances_to(L2, pair.predictor.values, x.values, x.grid.points)[0] == 1.0
    model = FittedRegression(pairs, L2, KERNEL, kappa=2)
    rows, w = assert_weights_are_the_oracle_s_nonzeros(model, x)
    assert rows.tolist() == [2] and w.tolist() == [1.0]
    assert np.array_equal(predict(model, x).values, pairs[2].response.values)
    assert np.allclose(brute_force_prediction(model, x), pairs[2].response.values, atol=1e-12)


@pytest.mark.parametrize("semimetric", [L2, SemimetricSpec.parse("deriv1"), SemimetricSpec.parse("deriv2")])
def test_predict_is_bitwise_predict_many_past_the_first_block(semimetric):
    rng = np.random.default_rng(26)
    pairs = tuple(_pair(rng.normal(size=101), rng.normal(size=40)) for _ in range(150))
    model = FittedRegression(pairs, semimetric, KERNEL, kappa=16)
    queries = rng.normal(size=(regression._BLOCK_ROWS + 20, 101))
    queries[-3:] = model.predictor_matrix[:3]  # copies: distance 0
    for q, row in zip(queries, predict_many(model, queries)):
        assert predict(model, Curve(PRED_GRID, q)).values.tobytes() == row.tobytes()


@pytest.mark.parametrize("semimetric", [L2, SemimetricSpec.parse("deriv1"), SemimetricSpec.parse("deriv2")])
def test_search_cache_is_read_only(semimetric):
    """No array the search reads can be written, so a later prediction cannot
    change under a caller's write."""
    rng = np.random.default_rng(31)
    model = FittedRegression(tuple(_pair(rng.normal(size=101), rng.normal(size=40)) for _ in range(20)),
                             semimetric, KERNEL, kappa=3)
    x = Curve(PRED_GRID, rng.normal(size=101))
    before = predict(model, x).values
    arrays = [part for part in model.reference if isinstance(part, np.ndarray)]
    assert len(arrays) >= 6
    for part in arrays:
        with pytest.raises(ValueError, match="read-only"):
            part[...] = 0.0
    assert np.array_equal(predict(model, x).values, before)


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
            x = pairs[i].predictor
            dists = [distances_to(L2, p.predictor.values, x.values, x.grid.points)[0] for p in rest]
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
    table = dict(kappa_cv_scores(FittedRegression(pairs, L2, KERNEL, 1), candidates))
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


def test_loo_single_candidate(monkeypatch):
    """A single candidate in [1, n-1] is used as given, without CV, even on
    the two pairs too few for leave-one-out selection."""
    rng = np.random.default_rng(3)
    pairs = tuple(_pair(rng.normal(size=101), rng.normal(size=40)) for _ in range(6))
    monkeypatch.setattr(regression, "kappa_cv_scores", None)  # any CV call fails
    assert select_kappa_cv(pairs, L2, KERNEL, [3]) == 3
    for fit_pairs, kappa in ((pairs, 3), (pairs[:2], 1)):
        model, table = regression.fit_kappa(fit_pairs, L2, KERNEL, [kappa])
        assert (model.pairs, model.kappa, table) == (fit_pairs, kappa, [])


def test_fit_kappa_embeds_the_pairs_once(monkeypatch):
    """CV searches the model fit_kappa builds, and the model it returns at the
    chosen kappa reuses that search reference: one embedding per fit."""
    rng = np.random.default_rng(6)
    pairs = tuple(_pair(rng.normal(size=101), rng.normal(size=40)) for _ in range(30))
    calls = []

    def counting(*args):
        calls.append(args)
        return reference(*args)

    monkeypatch.setattr(regression, "reference", counting)
    model, table = regression.fit_kappa(pairs, L2, KERNEL, [1, 3, 7])
    query = rng.normal(size=(4, 101))
    got = predict_many(model, query), predict_many(model, model.predictor_matrix)
    assert len(table) == 3 and len(calls) == 1
    fresh = FittedRegression(pairs, L2, KERNEL, model.kappa)
    want = predict_many(fresh, query), predict_many(fresh, fresh.predictor_matrix)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_loo_rejects_pairs_the_model_rejects():
    """Leave-one-out CV applies the model's one-grid rule: pairs alternating
    between two predictor grids are rejected, as FittedRegression rejects them."""
    rng = np.random.default_rng(5)
    grids = [WavelengthGrid(np.linspace(low, low + 300.0, 30)) for low in (1300.0, 1310.0)]
    pairs = tuple(CurvePair(Curve(grids[i % 2], rng.normal(size=30)), Curve(RESP_GRID, rng.normal(size=40)))
                  for i in range(12))
    candidates = [2, 4, 8]
    for call in (regression.fit_kappa, select_kappa_cv):
        with pytest.raises(ValueError, match="all training predictors must share one grid"):
            call(pairs, L2, KERNEL, candidates)
    # one candidate skips CV but not the model's checks
    with pytest.raises(ValueError, match="all training predictors must share one grid"):
        select_kappa_cv(pairs, L2, KERNEL, [3])
    with pytest.raises(ValueError, match="all training predictors must share one grid"):
        FittedRegression(pairs, L2, KERNEL, 4)
    moved = WavelengthGrid(RESP_GRID.points - 0.1)
    pairs = tuple(CurvePair(Curve(PRED_GRID, rng.normal(size=101)), Curve(moved if i == 5 else RESP_GRID, rng.normal(size=40)))
                  for i in range(12))
    with pytest.raises(ValueError, match="all training responses must share one grid"):
        regression.fit_kappa(pairs, L2, KERNEL, candidates)


def test_loo_rejects_empty_or_out_of_range_candidates():
    """An empty list and a kappa below 1 are rejected; a candidate above n - 1
    counts as n - 1."""
    rng = np.random.default_rng(4)
    pairs = tuple(_pair(rng.normal(size=101), rng.normal(size=40)) for _ in range(5))
    with pytest.raises(ValueError, match="empty"):
        select_kappa_cv(pairs, L2, KERNEL, [])
    with pytest.raises(ValueError, match="kappa"):
        select_kappa_cv(pairs, L2, KERNEL, [0])
    with pytest.raises(ValueError, match="outside"):
        select_kappa_cv(pairs, L2, KERNEL, [0, 2])
    assert select_kappa_cv(pairs, L2, KERNEL, [5]) == 4


def test_fit_kappa_cross_validates_the_candidates_clamped_to_n_minus_1(monkeypatch):
    rng = np.random.default_rng(4)
    pairs = tuple(_pair(rng.normal(size=101), rng.normal(size=40)) for _ in range(5))
    seen = []

    def recording(model, kappa_candidates):
        seen.append(list(kappa_candidates))
        return kappa_cv_scores(model, kappa_candidates)

    monkeypatch.setattr(regression, "kappa_cv_scores", recording)
    model, table = fit_kappa(pairs, L2, KERNEL, [2, 5, 8])
    assert seen == [[2, 4]]
    assert [kappa for kappa, _ in table] == [2, 4]
    assert model.kappa in (2, 4)


def test_loo_handles_duplicates_and_ties_at_the_bandwidth():
    # three identical predictors: leaving one out with kappa=1 leaves two at
    # distance 0, so h = 0; from the +/-1 curves the three copies tie at the
    # bandwidth, every kernel weight vanishes and the fallback mean runs
    rng = np.random.default_rng(15)
    offsets = [0.0, 0.0, 0.0, 1.0, -1.0, 3.0]
    pairs = tuple(_pair(np.full(101, off), rng.normal(size=40)) for off in offsets)
    candidates = [1, 2, 3, 4]
    table = dict(kappa_cv_scores(FittedRegression(pairs, L2, KERNEL, 1), candidates))
    want = oracle_loo_table(pairs, candidates)
    for kappa in candidates:
        assert table[kappa] == pytest.approx(want[kappa], rel=1e-12)
    assert select_kappa_cv(pairs, L2, KERNEL, candidates) == min(want, key=want.get)


def test_best_kappa_ties_go_to_the_smaller_kappa(monkeypatch):
    pairs = tuple(_pair(np.full(101, off), np.zeros(40)) for off in range(20))
    for table, best in (([(8, 1.0), (2, 1.0), (4, 3.0)], 2), ([(2, 2.0), (16, 0.5), (4, 0.5)], 4)):
        monkeypatch.setattr(regression, "kappa_cv_scores", lambda *args, table=table, **kwargs: table)
        model, got = regression.fit_kappa(pairs, L2, KERNEL, [k for k, _ in table])
        assert (model.kappa, got) == (best, table)


# ----------------------------------- one weighting pass against one kappa at a time

def one_kappa_neighbours(idx, dist, kappa, kernel):
    """One kappa's nearest pairs, normalized weights and fallbacks from a
    search's candidates, written out for that kappa alone: the kappa nearest
    by distance (ties to the smaller index) in index order, the midpoint
    bandwidth, and the fallback rows of every vanished query row."""
    rows = np.arange(len(dist))[:, None]
    order = np.argsort(dist, axis=1, kind="stable")
    edge = dist[rows, order[:, kappa - 1 : kappa + 1]]
    lo, hi = edge[:, :1], edge[:, 1:]
    h = np.where(lo == hi, lo, 0.5 * (lo + hi))
    pos = np.sort(order[:, :kappa], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = kernel.weights(dist[rows, pos] / h)
    total = w.sum(axis=1, keepdims=True)
    vanished = np.flatnonzero(total == 0.0)
    total[vanished] = 1.0
    fallback = {int(r): idx[r][dist[r] <= h[r]] for r in vanished}
    return idx[rows, pos], w / total, fallback


def one_kappa_predictions(idx, dist, kappa, kernel, responses):
    near, w, fallback = one_kappa_neighbours(idx, dist, kappa, kernel)
    out = np.matmul(w[:, None, :], responses[near])[:, 0]
    for row, inside in fallback.items():
        out[row] = responses[inside].mean(axis=0)
    return out


def one_kappa_predict_many(model, queries):
    return np.concatenate([
        one_kappa_predictions(*nearest(model.reference, queries[start : start + regression._BLOCK_ROWS], model.kappa + 1),
                              model.kappa, model.kernel, model.response_matrix)
        for start in range(0, len(queries), regression._BLOCK_ROWS)])


def one_kappa_at_a_time_loo_table(model, candidates):
    """Leave-one-out table with one search and one weighting per candidate."""
    n = len(model)
    quad = trapezoid_weights(model.response_grid.points)
    x, y = model.predictor_matrix, model.response_matrix
    table = []
    for kappa in candidates:
        k = min(kappa, n - 2)
        errors = np.empty(n)
        for start in range(0, n, regression._BLOCK_ROWS):
            block = np.arange(start, min(start + regression._BLOCK_ROWS, n))
            idx, dist = nearest(model.reference, x[block], k + 1, block)
            diff = one_kappa_predictions(idx, dist, k, model.kernel, y) - y[block]
            errors[block] = np.sum(quad * diff * diff, axis=1)
        table.append((kappa, float(np.sum(errors)) / n))
    return table


def _best(table):
    return min(table, key=lambda entry: (entry[1], entry[0]))[0]


@pytest.mark.parametrize("semimetric", [L2, SemimetricSpec.parse("deriv1")])
def test_one_pass_loo_table_matches_one_kappa_at_a_time(semimetric):
    # rows 70, 71 and 72 are copies: leaving one out leaves two at distance 0,
    # so kappa = 1 has a zero bandwidth and falls back while kappa = 3 weights
    # the two copies; n - 2 and n - 1 both clamp to n - 2
    rng = np.random.default_rng(40)
    n = regression._BLOCK_ROWS + 16
    values = rng.normal(size=(n, 101))
    values[71:73] = values[70]
    pairs = tuple(_pair(v, rng.normal(size=40)) for v in values)
    model = FittedRegression(pairs, semimetric, KERNEL, 1)
    candidates = [1, 3, 8, n - 2, n - 1]

    idx, dist = nearest(model.reference, model.predictor_matrix[70:71], n - 1, np.array([70]))
    fallback = regression._neighbours(idx, dist, (1, 3, n - 2, n - 2), KERNEL)[2]
    assert list(fallback) == [(0, 0)] and fallback[0, 0].tolist() == [71, 72]

    table = kappa_cv_scores(model, candidates)
    want = one_kappa_at_a_time_loo_table(model, candidates)
    assert [k for k, _ in table] == candidates
    for (_, got), (_, expected) in zip(table, want):
        assert got == pytest.approx(expected, rel=1e-12)
    assert table[-2][1] == table[-1][1]  # one clamped value, scored once
    assert _best(table) == _best(want)
    assert select_kappa_cv(pairs, semimetric, KERNEL, candidates) == _best(want)


@pytest.mark.parametrize("kappa", [2, 16])
@pytest.mark.parametrize("semimetric", [L2, SemimetricSpec.parse("deriv1"), SemimetricSpec.parse("deriv2")])
def test_one_kappa_predictions_weights_and_scores_keep_their_bits(semimetric, kappa):
    # the one-kappa path runs the one-kappa operations: predictions, weights
    # and calibration scores equal the one-kappa formula bit for bit, past the
    # first block, on copies (distance 0) and on a triple copy whose zero
    # bandwidth (kappa = 2) falls back
    rng = np.random.default_rng(41)
    values = rng.normal(size=(150, 101))
    values[1:3] = values[0]
    pairs = tuple(_pair(v, rng.normal(size=40)) for v in values)
    model = FittedRegression(pairs, semimetric, KERNEL, kappa)
    queries = rng.normal(size=(regression._BLOCK_ROWS + 20, 101))
    queries[[5, -3]] = values[0]
    queries[-2:] = values[[40, 90]]
    assert predict_many(model, queries).tobytes() == one_kappa_predict_many(model, queries).tobytes()

    for i in (0, 5, -2):
        rows, w = prediction_weights(model, Curve(PRED_GRID, queries[i]))
        near, want, fallback = one_kappa_neighbours(*nearest(model.reference, queries[i : i + 1], kappa + 1),
                                                    kappa, KERNEL)
        assert bool(fallback) == (kappa == 2 and i == 5)
        if fallback:
            assert rows.tolist() == fallback[0].tolist() and w.tolist() == [1.0 / rows.size] * rows.size
        else:
            keep = want[0] > 0.0
            assert rows.tolist() == near[0][keep].tolist() and w.tobytes() == want[0][keep].tobytes()

    cal = calibrate(pairs, 0.1, semimetric, KERNEL, [kappa], split_seed=3)
    held_out = np.random.default_rng(3).permutation(len(pairs))[len(pairs) // 2 :]
    fitted = cal.trained_model
    assert fitted.kappa == kappa and len(held_out) > regression._BLOCK_ROWS
    scores = -np.max(np.abs(model.response_matrix[held_out]
                            - one_kappa_predict_many(fitted, model.predictor_matrix[held_out])), axis=1)
    assert cal.calibration_scores.tobytes() == scores.tobytes()


def test_a_regression_on_one_pair_is_rejected():
    with pytest.raises(ValueError, match="a fitted regression needs at least 2 training pairs"):
        FittedRegression((_pair(np.zeros(101), np.zeros(40)),), SemimetricSpec.parse("l2"), KERNEL, 1)
