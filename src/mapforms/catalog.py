"""Named vector fields and maps, and seeded random data.

The random generators produce trigonometric-polynomial data with bounded
mode numbers so that spectral quadrature and differentiation are exact on
reasonable grids and every suite is reproducible from a seed.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import mapspace as ms
from .charts import (ChartMap, VectorField, affine_field, affine_map,
                     broadcast_rows, constant_field)
from .domains import ScalarField, SourceDomain, warn_if_rough
from .forms import Form, ScalarFunc, coefficient_form, trig_scalar

Array = np.ndarray

# largest mode number of the random trigonometric data
MAX_MODE = 2


# ---------------------------------------------------------------------------
# named vector fields and maps

def named_field(name: str) -> VectorField:
    """A named vector field on R^3: e_x, e_z or radial."""
    if name in ("e_x", "e_z"):
        return constant_field(np.eye(3)["xyz".index(name[-1])], name=name)
    if name == "radial":
        P = np.diag([1.0, 1.0, 0.0])
        return VectorField(lambda x: np.hstack([x[:, :2], np.zeros((len(x), 1))]),
                           3, jacobian_func=lambda x: broadcast_rows(P, x),
                           name="radial", batched=True)
    raise KeyError(f"unknown field id {name!r}")


def unit_circle_map(dom: SourceDomain, target_dim: int) -> ms.MapPoint:
    """The unit circle in the (x,y)-plane of R^m."""
    def f(s):
        out = np.zeros((len(s), target_dim))
        out[:, 0], out[:, 1] = np.cos(s[:, 0]), np.sin(s[:, 0])
        return out
    return ms.map_from_function(dom, f, target_dim)


def torus_graph_map(dom: SourceDomain) -> ms.MapPoint:
    """The standard flat embedding of the 2-torus into R^4."""
    return ms.map_from_function(
        dom, lambda s: np.column_stack([np.cos(s[:, 0]), np.sin(s[:, 0]),
                                        np.cos(s[:, 1]), np.sin(s[:, 1])]), 4)


# ---------------------------------------------------------------------------
# random generators

def _trig_terms(dim: int, rng: np.random.Generator, n_terms: int, max_mode: int,
                amp: float, integer_modes: bool):
    """Modes (n_terms, dim), amplitudes and phases of one random trigonometric
    scalar, drawn in that order; modes drawn flat are the same C-order stream."""
    if integer_modes:
        K = rng.integers(-max_mode, max_mode + 1, size=n_terms * dim).astype(float)
    else:
        K = rng.uniform(-1.0, 1.0, size=n_terms * dim)
    A = amp * rng.uniform(-1.0, 1.0, size=n_terms)
    P = rng.uniform(0.0, 2.0 * np.pi, size=n_terms)
    return K.reshape(n_terms, dim), A, P


def random_scalar(dim: int, rng: np.random.Generator, n_terms: int = 2,
                  max_mode: int = MAX_MODE, amp: float = 1.0,
                  integer_modes: bool = True) -> ScalarFunc:
    """Random trigonometric scalar; integer modes make it 2pi-periodic."""
    return trig_scalar(dim, *_trig_terms(dim, rng, n_terms, max_mode, amp, integer_modes))


def random_form(dim: int, degree: int, rng: np.random.Generator,
                amp: float = 1.0, integer_modes: bool = False) -> Form:
    """Random form with trigonometric coefficients and analytic derivative."""
    coeffs = {I: random_scalar(dim, rng, amp=amp, integer_modes=integer_modes)
              for I in itertools.combinations(range(dim), degree)}
    return coefficient_form(dim, degree, coeffs, name=f"rand{degree}")


def _sampled(dom: SourceDomain, count: int, rng: np.random.Generator,
             amp: float) -> Array:
    """`count` random scalars, drawn as by random_scalar one after another,
    sampled on every node: (n_nodes, count).  One sine evaluation covers
    the terms of every component; each component then takes its own dot
    with its amplitudes, as its ScalarFunc would."""
    K, A, P = zip(*(_trig_terms(dom.chart_dim, rng, n_terms=2, max_mode=MAX_MODE, amp=amp,
                                integer_modes=True) for _ in range(count)))
    S = np.sin(dom.nodes @ np.concatenate(K).T + np.concatenate(P))
    S = S.reshape(dom.n_nodes, count, -1)
    return np.column_stack([S[:, c] @ a for c, a in enumerate(A)])


def random_map(dom: SourceDomain, target_dim: int, rng: np.random.Generator,
               amp: float = 1.0) -> ms.MapPoint:
    vals = _sampled(dom, target_dim, rng, amp)
    warn_if_rough(dom, vals)
    return ms.MapPoint(dom, vals)


def random_loop(dom: SourceDomain, target_dim: int, rng: np.random.Generator,
                amp: float = 0.25) -> ms.MapPoint:
    """A perturbed unit circle; stays embedded for small amplitudes."""
    s = dom.nodes[:, 0]
    circle = np.zeros((dom.n_nodes, target_dim))
    circle[:, 0], circle[:, 1] = np.cos(s), np.sin(s)
    vals = circle + _sampled(dom, target_dim, rng, amp)
    warn_if_rough(dom, vals)
    return ms.MapPoint(dom, vals)


def random_tangent(f: ms.MapPoint, rng: np.random.Generator,
                   amp: float = 1.0) -> ms.MapTangent:
    return ms.MapTangent(f, _sampled(f.dom, f.target_dim, rng, amp))


def random_affine_field(dim: int, rng: np.random.Generator,
                        amp: float = 1.0) -> VectorField:
    A = amp * rng.uniform(-1.0, 1.0, size=(dim, dim))
    c = amp * rng.uniform(-1.0, 1.0, size=dim)
    return affine_field(A, c, name="rand-affine")


def random_stream(dom: SourceDomain, rng: np.random.Generator,
                  max_mode: int = 3) -> ScalarField:
    """Zero-mean random stream function on the 2-torus."""
    g = random_scalar(2, rng, n_terms=3, max_mode=max_mode)
    vals = g.value(dom.nodes)
    return ScalarField(dom, vals - vals.mean())


def rigid_shift(shift: float) -> ChartMap:
    """Rigid rotation of the circle chart; trigonometric resampling is exact
    for band-limited data under this map."""
    return affine_map(np.eye(1), [shift], name=f"shift({shift:g})")


def rigid_shift_2d(shift_x: float, shift_y: float) -> ChartMap:
    return affine_map(np.eye(2), [shift_x, shift_y],
                      name=f"shift2({shift_x:g},{shift_y:g})")


def circle_warp() -> ChartMap:
    """Non-rigid orientation-preserving circle diffeomorphism
    s -> s + 0.3 sin s."""
    eps = 0.3

    def inv(y):
        x = y
        for _ in range(60):
            x = y - eps * np.sin(x)
        return x

    return ChartMap(lambda s: s + eps * np.sin(s), 1, 1,
                    jacobian_func=lambda s: (1.0 + eps * np.cos(s))[:, :, None],
                    inverse=inv, name=f"warp({eps:g})", batched=True)
