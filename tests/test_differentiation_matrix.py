"""Tangent maps by a cached differentiation matrix on short axes.

Periodic axes of at most MATRIX_MAX_NODES nodes, and the interval, apply one
read-only (n, n) matrix along the axis; longer periodic axes take the FFT.
The periodic matrix is the FFT route applied to unit vectors, so the two
routes must agree to roundoff on either side of the crossover, and a stack
of maps must still be differentiated exactly as each map alone.
"""

import numpy as np
import pytest

from mapforms import domains as dm
from mapforms.domains import (MATRIX_MAX_NODES, _fd4_matrix, _spectral_derivative,
                              _spectral_matrix, circle, interval, torus, torus2)

LENGTHS = (7, 8, 63, 64, 65, 128)


def _fft_route(dom, values, axis):
    """Derivative along axis through the FFT, whatever the axis length."""
    grid = values.reshape(dom.shape + values.shape[1:])
    out = _spectral_derivative(grid, axis=axis, length=dom.periods[axis])
    return out.reshape(values.shape)


def _grids(n):
    return [(n,), (n, 8), (7, n), (4, n, 5)]


@pytest.mark.parametrize("shape", sorted({s for n in LENGTHS for s in _grids(n)}))
def test_matrix_and_fft_routes_agree(shape):
    dom = torus(shape)
    rng = np.random.default_rng(len(shape) * 1000 + sum(shape))
    values = rng.standard_normal((dom.n_nodes, 3))
    for axis, n in enumerate(shape):
        ref = _fft_route(dom, values, axis)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(dom.differentiate(values, axis) - ref)) <= 1e-13 * scale
        D = _spectral_matrix(n, dom.periods[axis])
        lead = int(np.prod(shape[:axis], dtype=int))
        by_matrix = (D @ values.reshape(lead, n, -1)).reshape(values.shape)
        assert np.max(np.abs(by_matrix - ref)) <= 1e-13 * scale


@pytest.mark.parametrize("n", LENGTHS)
def test_short_periodic_axes_take_the_matrix_and_long_ones_the_fft(n, monkeypatch):
    calls = []
    fft = np.fft.fft
    monkeypatch.setattr(dm.np.fft, "fft", lambda *a, **kw: calls.append(1) or fft(*a, **kw))
    dom = circle(n)
    _spectral_matrix(n, dom.periods[0])  # built before counting
    calls.clear()
    dom.map_jacobian(np.random.default_rng(n).standard_normal((2, n, 3)))
    assert MATRIX_MAX_NODES == 64
    assert len(calls) == (0 if n <= 64 else 1)


GRIDS = {"circle7": lambda: circle(7), "circle48": lambda: circle(48),
         "circle64": lambda: circle(64), "torus2-24": lambda: torus2(24),
         "torus-8x6x7": lambda: torus((8, 6, 7)), "interval17": lambda: interval(17)}


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("size", [2, 7, 48])
@pytest.mark.parametrize("m", [1, 4])
def test_stacked_tangent_maps_are_per_map_bit_for_bit(name, size, m):
    dom = GRIDS[name]()
    V = np.random.default_rng(size * 10 + m).standard_normal((size, dom.n_nodes, m))
    J = dom.map_jacobian(V)
    for b in range(size):
        assert np.array_equal(J[b], dom.map_jacobian(V[b]))


def test_differentiation_matrices_are_cached_read_only():
    D = _spectral_matrix(16, 2.0 * np.pi)
    assert D is _spectral_matrix(16, 2.0 * np.pi)
    assert not D.flags.writeable
    E = _fd4_matrix(17, 1.0 / 16)
    assert E is _fd4_matrix(17, 1.0 / 16)
    assert not E.flags.writeable
    # the odd-symmetric Nyquist convention: a derivative matrix of the
    # real grid is antisymmetric and annihilates constants
    for n in (7, 8):
        D = _spectral_matrix(n, 2.0 * np.pi)
        assert np.max(np.abs(D + D.T)) < 1e-14
        assert np.max(np.abs(D @ np.ones(n))) < 1e-14


@pytest.mark.parametrize("make_dom", [lambda: circle(MATRIX_MAX_NODES), lambda: torus2(16),
                                      lambda: interval(33)], ids=["circle", "torus2", "interval"])
def test_short_axes_keep_a_complex_dtype(make_dom):
    # the matrix product is linear over the complex numbers, so the real and
    # imaginary parts are differentiated as two real arrays would be, up to
    # the roundoff of a complex product
    dom = make_dom()
    rng = np.random.default_rng(44)
    re, im = rng.uniform(-1.0, 1.0, (2, dom.n_nodes, 3))
    for axis in range(dom.dim):
        got = dom.differentiate(re + 1j * im, axis)
        want = dom.differentiate(re, axis) + 1j * dom.differentiate(im, axis)
        assert got.dtype == complex
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
@pytest.mark.parametrize("make_dom", [lambda: circle(MATRIX_MAX_NODES + 1),
                                      lambda: torus((MATRIX_MAX_NODES + 1, 6))],
                         ids=["circle", "torus2"])
def test_long_axes_and_resampling_keep_a_complex_dtype(make_dom):
    # the FFT routes transform the real and imaginary parts one at a time,
    # so a complex input gives D(re) + i D(im) bit for bit, stacks included
    dom = make_dom()
    rng = np.random.default_rng(45)
    re, im = rng.uniform(-1.0, 1.0, (2, 3, dom.n_nodes, 2))
    for axis in range(dom.dim):
        got = dom.differentiate(re + 1j * im, axis)
        assert got.dtype == complex
        assert np.array_equal(got, dom.differentiate(re, axis)
                              + 1j * dom.differentiate(im, axis))
    pts = rng.uniform(0.0, 2.0 * np.pi, (5, dom.dim))
    got = dom.resample(re[0] + 1j * im[0], pts)
    assert got.dtype == complex
    assert np.array_equal(got, dom.resample(re[0], pts) + 1j * dom.resample(im[0], pts))
