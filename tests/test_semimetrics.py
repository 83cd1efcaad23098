import dataclasses

import numpy as np
import pytest

from specband.curves import Curve, WavelengthGrid, trapezoid_weights
from specband.semimetrics import (
    SemimetricSpec,
    distances_to,
    nearest,
    reference,
)

L2 = SemimetricSpec.parse("l2")
D1 = SemimetricSpec.parse("deriv1")
D2 = SemimetricSpec.parse("deriv2")


def _distance(spec, a, b):
    """The direct distance between two curves on one grid."""
    return distances_to(spec, a.values, b.values, a.grid.points)[0]


def test_spec_validation():
    # an unhashable token is a ValueError like any other unknown one
    for bad in ("pca", "deriv3", "sobolev", ["l2"], 2):
        with pytest.raises(ValueError, match="unknown semimetric"):
            SemimetricSpec.parse(bad)
    assert [spec.order for spec in (L2, D1, D2)] == [0, 1, 2]
    assert [spec.token for spec in (L2, D1, D2)] == ["l2", "deriv1", "deriv2"]
    assert [f.name for f in dataclasses.fields(SemimetricSpec)] == ["token"]


@pytest.mark.parametrize("spec", [L2, D1, D2])
def test_identity_distance_is_zero(spec):
    grid = WavelengthGrid(np.linspace(1.0, 2.0, 30))
    a = Curve(grid, np.sin(grid.points))
    assert _distance(spec, a, a) == 0.0


def test_l2_of_unit_offset_over_unit_interval():
    grid = WavelengthGrid(np.linspace(1.0, 2.0, 1001))
    a = Curve(grid, np.full(1001, 3.0))
    b = Curve(grid, np.full(1001, 2.0))
    assert _distance(L2, a, b) == pytest.approx(1.0, abs=1e-9)


def test_derivative_semimetric_kills_constants():
    grid = WavelengthGrid(np.linspace(1.0, 5.0, 50))
    c = 2.7
    const = Curve(grid, np.full(50, c))
    zero = Curve(grid, np.zeros(50))
    assert _distance(D1, const, zero) == pytest.approx(0.0, abs=1e-12)
    # while the plain L2 distance sees the constant
    assert _distance(L2, const, zero) == pytest.approx(c * np.sqrt(4.0), rel=1e-9)


def test_symmetry_is_exact():
    rng = np.random.default_rng(3)
    grid = WavelengthGrid(np.sort(rng.uniform(1.0, 4.0, 40)))
    for spec in (L2, D1, D2):
        for _ in range(20):
            a = Curve(grid, rng.normal(size=40))
            b = Curve(grid, rng.normal(size=40))
            assert _distance(spec, a, b) == _distance(spec, b, a)


def test_l2_triangle_inequality():
    rng = np.random.default_rng(11)
    grid = WavelengthGrid(np.sort(rng.uniform(1.0, 3.0, 25)))
    for _ in range(100):
        a, b, c = (Curve(grid, rng.normal(size=25)) for _ in range(3))
        assert _distance(L2, a, c) <= _distance(L2, a, b) + _distance(L2, b, c) + 1e-9


def test_l2_scale_equivariance():
    rng = np.random.default_rng(5)
    grid = WavelengthGrid(np.linspace(2.0, 7.0, 60))
    a = Curve(grid, rng.normal(size=60))
    b = Curve(grid, rng.normal(size=60))
    base = _distance(L2, a, b)
    for s in (-3.5, 0.25, 7.0):
        scaled = _distance(L2, a.with_values(s * a.values), b.with_values(s * b.values))
        assert scaled == pytest.approx(abs(s) * base, abs=1e-10 * max(1.0, abs(s) * base))


@pytest.mark.parametrize("spec", [D1, D2])
def test_sobolev_invariant_to_additive_constants(spec):
    rng = np.random.default_rng(9)
    grid = WavelengthGrid(np.linspace(1.0, 2.0, 80))
    a = Curve(grid, rng.normal(size=80))
    b = Curve(grid, rng.normal(size=80))
    base = _distance(spec, a, b)
    shifted = _distance(spec, a.with_values(a.values + 11.0), b)
    assert shifted == pytest.approx(base, abs=1e-10 * max(1.0, base))


@pytest.mark.parametrize(
    "kernel",
    [
        lambda spec, v, pts: distances_to(spec, v[None, :], v, pts),
    ],
    ids=["distances_to"],
)
def test_sobolev_needs_enough_points(kernel):
    pts = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="grid points"):
        kernel(D2, np.array([0.0, 1.0, 0.0]), pts)


@pytest.mark.parametrize("spec", [L2, D1, D2])
def test_matrix_and_vector_paths_agree_with_scalar(spec):
    rng = np.random.default_rng(21)
    pts = np.sort(rng.uniform(1.0, 6.0, 35))
    grid = WavelengthGrid(pts)
    rows = rng.normal(size=(4, 35))
    cols = rng.normal(size=(3, 35))
    idx, mat = nearest(reference(spec, cols, pts), rows, 3)  # every column
    assert np.array_equal(idx, np.tile(np.arange(3), (4, 1)))
    for i in range(4):
        vec = distances_to(spec, cols, rows[i], pts)
        for j in range(3):
            scalar = _distance(spec, Curve(grid, rows[i]), Curve(grid, cols[j]))
            assert mat[i, j] == pytest.approx(scalar, abs=1e-10)
            assert vec[j] == pytest.approx(scalar, abs=1e-12)


@pytest.mark.parametrize("spec", [L2, D1, D2])
def test_nearest_candidates_hold_the_direct_distances_of_their_rows(spec):
    # 100 queries, past one block of the regression's searches; a few are
    # copies of training rows, so distance 0 and duplicate rows occur
    rng = np.random.default_rng(23)
    pts = np.sort(rng.uniform(1.0, 6.0, 60))
    values = rng.normal(size=(150, 60))
    values[140:] = values[:10]
    queries = rng.normal(size=(100, 60))
    queries[::10] = values[::15]
    count = 9
    idx, dist = nearest(reference(spec, values, pts), queries, count)
    assert np.all(np.diff(idx, axis=1) > 0)
    for q, rows, got in zip(queries, idx, dist):
        assert got.tobytes() == distances_to(spec, values[rows], q, pts).tobytes()
        full = distances_to(spec, values, q, pts)
        inside = np.flatnonzero(full <= np.sort(full)[count - 1])
        assert set(inside) <= set(rows)
        assert full[rows].tobytes() == got.tobytes()  # a subset of the full row, bit for bit


@pytest.mark.parametrize("size", [1, 3, 4, 5, 64])
@pytest.mark.parametrize("spec", [L2, D1, D2])
def test_nearest_measures_blocks_of_any_size_bit_for_bit(spec, size):
    # the direct distances are measured a few queries at a time: blocks that
    # end inside, at and past such a group give each row distances_to's bits
    rng = np.random.default_rng(29)
    pts = np.sort(rng.uniform(1.0, 6.0, 60))
    values = rng.normal(size=(150, 60))
    values[140:] = values[:10]
    queries = rng.normal(size=(size, 60))
    queries[::3] = values[: len(queries[::3])]
    idx, dist = nearest(reference(spec, values, pts), queries, 9)
    assert idx.shape == dist.shape and len(idx) == size
    for q, rows, got in zip(queries, idx, dist):
        assert got.tobytes() == distances_to(spec, values[rows], q, pts).tobytes()


def test_nearest_leaves_out_the_excluded_row():
    rng = np.random.default_rng(24)
    pts = np.linspace(1.0, 2.0, 30)
    values = rng.normal(size=(20, 30))
    values[5] = values[4]
    idx, dist = nearest(reference(L2, values, pts), values, 19, exclude=np.arange(20))
    assert idx.shape == (20, 19)
    for i, (rows, got) in enumerate(zip(idx, dist)):
        assert i not in rows
        assert got.tobytes() == distances_to(L2, values[rows], values[i], pts).tobytes()
    assert dist[4][list(idx[4]).index(5)] == 0.0  # the copy stays, at 0


@pytest.mark.parametrize("p", [60, 200], ids=["more-rows-than-points", "fewer-rows-than-points"])
@pytest.mark.parametrize("leave_out", [False, True], ids=["all-rows", "exclude"])
@pytest.mark.parametrize("spec", [L2, D1, D2])
def test_low_rank_screen_measures_only_the_nearest_and_their_ties(spec, leave_out, p):
    # 150 rows of rank 4 on p points, the last 10 copies of the first 10;
    # queries in the rows' span, copies of rows, and off it. The screen
    # works in the rows' 4-dimensional row space, yet every row at or below
    # a query's count-th distance is a candidate, measured bit for bit, and
    # the width is the count plus exact ties, not a scan of every row
    rng = np.random.default_rng(31)
    pts = np.sort(rng.uniform(1.0, 6.0, p))
    shapes = rng.normal(size=(4, p))
    values = rng.normal(size=(150, 4)) @ shapes
    values[140:] = values[:10]
    queries = rng.normal(size=(100, 4)) @ shapes
    queries[::10] = values[::15]
    queries[5::10] += rng.normal(size=(10, p))
    exclude = rng.integers(0, 150, size=100)
    exclude[::10] = np.arange(0, 150, 15)  # a copy of a row leaves that row out, as in leave-one-out
    count = 9
    idx, dist = nearest(reference(spec, values, pts), queries, count,
                        exclude if leave_out else None)
    assert np.all(np.diff(idx, axis=1) > 0)
    needed = 0
    for q, rows, got, left in zip(queries, idx, dist, exclude):
        assert got.tobytes() == distances_to(spec, values[rows], q, pts).tobytes()
        full = distances_to(spec, values, q, pts)
        if leave_out:
            assert left not in rows
            full[left] = np.inf
        inside = np.flatnonzero(full <= np.sort(full)[count - 1])
        assert set(inside) <= set(rows)
        needed = max(needed, inside.size)
    assert idx.shape[1] == needed


def test_screen_bounds_the_residuals_the_basis_leaves_out():
    # rows a + eps t and b - eps t, |a|^2 = 1, |b|^2 = 1 - 2 eps, with t of
    # unit norm off the rows' span and eps = 1e-9 below the rank tolerance;
    # the query t is nearest to the first (squared distance 2 - 2 eps
    # against 2 + eps^2), yet its lower bound is the second's (2 - 4 eps):
    # only the upper bound's residual term keeps the first a candidate
    rng = np.random.default_rng(32)
    pts = np.sort(rng.uniform(1.0, 6.0, 60))
    root_w = np.sqrt(trapezoid_weights(pts))
    span = np.linalg.qr(rng.normal(size=(60, 5)))[0] / root_w[:, None]  # weighted-orthonormal
    a, t = span[:, 0], span[:, 4]
    mix = rng.normal(size=(78, 4))
    others = 3.0 * (mix / np.linalg.norm(mix, axis=1, keepdims=True)) @ span[:, :4].T  # norm 3
    eps = 1e-9
    values = np.vstack([a + eps * t, np.sqrt(1 - 2 * eps) * a - eps * t, others])
    idx, dist = nearest(reference(L2, values, pts), t[None, :], 1)
    assert 0 in idx[0]
    assert dist[0].tobytes() == distances_to(L2, values[idx[0]], t, pts).tobytes()
    assert np.argmin(distances_to(L2, values, t, pts)) == 0
