"""Memory guards measured with tracemalloc: the peak of the stages that compare
n curves, and what generated mocks keep.

numpy reports its buffers to tracemalloc, so the traced peak of a call is
the most its arrays held at once. Leave-one-out kappa selection and
``predict_many`` hold no (n, n) array: they search the training rows one
block of queries at a time. Their peak is at least one block's
(_BLOCK_ROWS, n) screen and less than one (n, n) buffer. ``fit_fpca``
centres its one stacked (n, p) sample in place.
"""

import tracemalloc
from collections import deque

import numpy as np

from specband.curves import Curve, CurvePair, WavelengthGrid
from specband.fpca import fit_fpca
from specband.mockgen import generate, synthetic_model
from specband.regression import _BLOCK_ROWS, FittedRegression, KernelSpec, kappa_cv_scores, predict_many
from specband.semimetrics import SemimetricSpec

N = 600
SQUARE = N * N * 8
BLOCK = _BLOCK_ROWS * N * 8
GRID = WavelengthGrid(np.linspace(1.0, 2.0, 40))
RESP_GRID = WavelengthGrid(np.linspace(0.5, 1.0, 20))


def _traced_peak(call):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _pairs(seed):
    rng = np.random.default_rng(seed)
    return [
        CurvePair(Curve(GRID, rng.normal(size=40)), Curve(RESP_GRID, rng.normal(size=20)))
        for _ in range(N)
    ]


def test_kappa_cv_peak_stays_under_one_square_buffer():
    model = FittedRegression(tuple(_pairs(1)), SemimetricSpec.parse("l2"), KernelSpec(), 1)
    peak = _traced_peak(lambda: kappa_cv_scores(model, [2, 4, 8, 16, 32]))  # builds the caches
    assert BLOCK <= peak < SQUARE, f"{peak / 1e6:.2f} MB traced"


def test_predict_many_peak_stays_under_one_square_buffer():
    model = FittedRegression(tuple(_pairs(2)), SemimetricSpec.parse("l2"), KernelSpec(), 32)
    model.reference, model.response_matrix  # the model's own caches, built once
    queries = np.random.default_rng(3).normal(size=(N, 40))
    peak = _traced_peak(lambda: predict_many(model, queries))
    assert BLOCK <= peak < SQUARE, f"{peak / 1e6:.2f} MB traced"


def test_fit_fpca_peak_stays_under_two_stacked_copies():
    n, p = 2000, 200
    grid = WavelengthGrid(np.linspace(1.0, 2.0, p))
    rng = np.random.default_rng(4)
    curves = [Curve(grid, rng.normal(size=p)) for _ in range(n)]
    stack = n * p * 8
    peak = _traced_peak(lambda: fit_fpca(curves, m=5))
    print(f"\nfit_fpca peak {peak} B = {peak / stack:.2f} stacked ({n}, {p}) copies")
    assert peak < 2 * stack, f"{peak / stack:.2f} stacked copies held at once"


def test_mocks_keep_their_own_two_arrays_and_share_the_model_s():
    # each mock's continuum is its own, and so is its flux once .noisy is read
    # (the noise is drawn then); its wavelengths and noise sd are the model's
    # grid points and noise-sd curve
    model = synthetic_model(WavelengthGrid.uniform(1000.0, 1600.0, 1000))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mocks = list(generate(model, 200, seed=5))
        drawn = tracemalloc.get_traced_memory()[0] - base
        for mock in mocks:
            mock.noisy
        read = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    sample = len(mocks) * len(model.grid) * 8
    assert 1.0 < drawn / sample < 1.5, f"{drawn / sample:.2f} sample arrays kept per mock before .noisy is read"
    assert 2.0 < read / sample < 2.5, f"{read / sample:.2f} sample arrays kept per mock after .noisy is read"


def test_generated_mocks_are_drawn_when_read_not_held():
    # the sequence keeps the model's stacked eigenbasis whatever its count, and
    # iterating it holds a few realizations' arrays at a time
    model = synthetic_model(WavelengthGrid.uniform(1000.0, 1600.0, 1000))
    sample = len(model.grid) * 8
    kept = {}
    for count in (10, 10_000):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mocks = generate(model, count, seed=5)
            kept[count] = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
    # numpy keeps about 100 kB of its own for the first ~2000 seed sequences a
    # process builds; an untraced first pass fills that before the traced one
    mocks = generate(model, 1000, seed=5)
    deque(mocks, maxlen=0)
    peak = _traced_peak(lambda: deque(mocks, maxlen=0))
    print(f"\nkept {kept[10]} B for 10 mocks, {kept[10_000]} B for 10000; "
          f"peak {peak} B over 1000 reads ({sample} B per sample array)")
    assert abs(kept[10_000] - kept[10]) < sample
    assert peak < 10 * sample, f"{peak / sample:.1f} sample arrays held while iterating"
