"""Peak-memory guards for the n x n stages, measured with tracemalloc.

numpy reports its buffers to tracemalloc, so the traced peak of a call is
the most its arrays held at once. A distance matrix and the leave-one-out
table each need the (n, n) result plus one Gram buffer. The plain
expression ``sqrt(maximum(sa + sb - 2 gram, 0))`` holds three (numpy
reuses the temporary sum in place), so the bound sits between the two, at
two and a half (n, n) float64 buffers, with room for the small per-block
arrays.
"""

import tracemalloc

import numpy as np

from specband.curves import Curve, CurvePair, WavelengthGrid
from specband.regression import KernelSpec, kappa_cv_scores
from specband.semimetrics import SemimetricSpec, distance_matrix

N = 600
BOUND = 5 * N * N * 8 // 2
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


def test_distance_matrix_peak_stays_under_two_and_a_half_square_buffers():
    values = np.random.default_rng(0).normal(size=(N, 40))
    peak = _traced_peak(lambda: distance_matrix(SemimetricSpec.l2(), values, values, GRID.points))
    assert N * N * 8 <= peak < BOUND, f"{peak / 1e6:.2f} MB traced"


def test_kappa_cv_peak_stays_under_two_and_a_half_square_buffers():
    rng = np.random.default_rng(1)
    pairs = [
        CurvePair(Curve(GRID, rng.normal(size=40)), Curve(RESP_GRID, rng.normal(size=20)))
        for _ in range(N)
    ]
    peak = _traced_peak(lambda: kappa_cv_scores(pairs, SemimetricSpec.l2(), KernelSpec(), [2, 4, 8, 16, 32]))
    assert N * N * 8 <= peak < BOUND, f"{peak / 1e6:.2f} MB traced"
