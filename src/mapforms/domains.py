"""Discretized compact oriented source manifolds.

Two families of domains are provided: the flat k-torus [0,2pi)^k on a
tensor grid, `torus(shape)` with k = len(shape) and periodic spectral
differentiation (the circle is k = 1, the 2-torus k = 2), and the unit
interval [0,1] with 4th-order finite differences and end-corrected
(Gregory) quadrature weights.  The interval carries a 0-dimensional
boundary domain whose two nodes are signed (-1 at 0, +1 at 1), which is
what makes the boundary integration rules come out with the documented
signs.

The spectral right inverse of d on every flat torus (zero-mean gauge), the
induced projection onto closed forms and, in dimension 2, the
stream-function construction of exact divergence-free fields live here.
Methods dispatch on the grid's structure; `kind` is only a label of it.

Periodic axes of at most MATRIX_MAX_NODES nodes and the interval apply a
cached (n, n) differentiation matrix, the periodic one being the FFT route
on unit vectors (Trefethen, *Spectral Methods in MATLAB*, 2000, ch. 3);
longer periodic axes take one FFT.

Domains are immutable after construction; the cached tables (the
differentiation matrices and the spectral wavenumbers) sit behind a
thread-safe memoizer, so differentiation and resampling are safe for
concurrent use.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .charts import VectorField, worst
from .forms import DegreeError, Form, broadcast_rows

Array = np.ndarray

TWO_PI = 2.0 * np.pi
# closedness and zero-period gate of right_inverse_b
EXACTNESS_TOL = 1e-8
# relative Nyquist-band energy above which warn_if_rough warns
ROUGHNESS_THRESHOLD = 1e-8
# longest periodic axis differentiated by a matrix (48 maps on circle(96): 610 us, FFT 373 us)
MATRIX_MAX_NODES = 64


class SmoothnessWarning(UserWarning):
    """Sampled data keeps significant energy at the Nyquist band."""


class NotExactError(ValueError):
    """A form failed the closedness / zero-period test required of exact data."""


@dataclass(frozen=True)
class SourceDomain:
    """A discretized compact oriented manifold with quadrature and
    differentiation.

    nodes holds parameter-chart coordinates, shape (n_nodes, chart_dim);
    weights are positive and sum to the coordinate volume.  A 0-dimensional
    domain (a boundary point pair) has per-node signs instead of a frame.
    """

    dim: int
    shape: tuple
    nodes: Array
    weights: Array
    orientation: int = 1
    periods: Optional[tuple] = None
    node_signs: Optional[Array] = None
    parent_indices: Optional[Array] = None

    @property
    def kind(self) -> str:
        """The structure's label: circle, torus<k>, points (dim 0) or interval."""
        if self.periods is not None:
            return "circle" if self.dim == 1 else f"torus{self.dim}"
        return "points" if self.dim == 0 else "interval"

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def chart_dim(self) -> int:
        return self.nodes.shape[1]

    @property
    def volume(self) -> float:
        return float(np.sum(self.weights))

    @property
    def spacing(self) -> tuple:
        if self.periods is not None:
            return tuple(p / n for p, n in zip(self.periods, self.shape))
        if self.dim == 0:
            return ()
        return (1.0 / (self.shape[0] - 1),)

    @property
    def signed_weights(self) -> Array:
        w = self.weights * self.orientation
        if self.node_signs is not None:
            w = w * self.node_signs
        return w

    def with_orientation(self, sign: int) -> "SourceDomain":
        return replace(self, orientation=int(sign))

    # -- node bookkeeping ---------------------------------------------------

    def node_index(self, s):
        """Index of the node at parameter point s (uniform-grid arithmetic),
        or an index array for points stacked as rows (N, chart_dim); raises
        KeyError if any point is off the grid."""
        s = np.asarray(s, dtype=float)
        rows = np.atleast_2d(s) if s.ndim else s.reshape(1, 1)
        if self.periods is not None:
            per_axis = np.rint(rows / self.spacing).astype(int) % self.shape
            j = np.ravel_multi_index(tuple(per_axis.T), self.shape)
            d = (rows - self.nodes[j] + np.pi) % TWO_PI - np.pi
            off = ~np.all(np.isclose(d, 0.0, atol=1e-9), axis=1)
        elif self.dim == 0:
            match = np.all(np.isclose(rows[:, None, :], self.nodes[None], atol=1e-9), axis=2)
            j = np.argmax(match, axis=1)
            off = ~np.any(match, axis=1)
        else:
            j = np.rint(rows[:, 0] / self.spacing[0]).astype(int)
            inside = (j >= 0) & (j < self.shape[0])
            j = np.clip(j, 0, self.shape[0] - 1)
            off = ~inside | ~np.isclose(rows[:, 0], self.nodes[j, 0], atol=1e-9)
        if np.any(off):
            raise KeyError(f"off-node parameter {rows[np.argmax(off)]}")
        return int(j[0]) if s.ndim <= 1 else j

    # -- differentiation ----------------------------------------------------

    def differentiate(self, values: Array, axis: int) -> Array:
        """Derivative of node-sampled data along a parameter axis: spectral
        on periodic domains, 4th-order finite differences (one-sided at the
        ends) on the interval.  values may be (n_nodes,), (n_nodes, m) or a
        stack (B, n_nodes, m); each map of a stack is differentiated exactly
        as it would be alone: D @ values.reshape(lead, n, -1) takes one
        (n, n) product per map and grid line, or one FFT on long axes.
        Complex values stay complex: the result is D(re) + i D(im)."""
        values = np.asarray(values)
        if axis < 0 or axis >= max(self.dim, 1) or self.dim == 0:
            raise IndexError(f"axis {axis} out of range for dim-{self.dim} domain")
        n, node = self.shape[axis], max(values.ndim - 2, 0)
        if self.periods is not None and n > MATRIX_MAX_NODES:
            grid = values.reshape(values.shape[:node] + self.shape + values.shape[node + 1:])
            out = _spectral_derivative(grid, axis=node + axis, length=self.periods[axis])
            return out.reshape(values.shape)
        D = (_fd4_matrix(n, self.spacing[0]) if self.periods is None
             else _spectral_matrix(n, self.periods[axis]))
        lead = math.prod(values.shape[:node]) * math.prod(self.shape[:axis])
        return (D @ values.reshape(lead, n, -1)).reshape(values.shape)

    def map_jacobian(self, values: Array) -> Array:
        """Tangent map of node-sampled values (n_nodes, m) -> (n_nodes, m, k),
        or of a stack of maps (B, n_nodes, m) -> (B, n_nodes, m, k)."""
        if self.dim == 0:
            return np.zeros(values.shape + (0,))
        cols = [self.differentiate(values, axis=a) for a in range(self.dim)]
        return np.stack(cols, axis=-1)

    # -- interpolation ------------------------------------------------------

    def resample(self, values: Array, points: Array) -> Array:
        """Evaluate the interpolant of node-sampled data at parameter points:
        trigonometric interpolation, exact for data below the Nyquist band.
        Only periodic domains resample."""
        if self.periods is None:
            raise ValueError(f"no interpolation on domain kind {self.kind!r}")
        values = np.asarray(values)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = _trig_interp(values.reshape(self.n_nodes, -1), self.shape, pts)
        return out.reshape((pts.shape[0],) + values.shape[1:])

    # -- boundary -----------------------------------------------------------

    def boundary(self) -> Optional["SourceDomain"]:
        """The induced boundary domain, or None when S is closed.  For the
        interval this is the signed point pair {0-, 1+}."""
        if self.periods is not None or self.dim == 0:
            return None
        n = self.shape[0]
        return SourceDomain(
            dim=0,
            shape=(2,),
            nodes=np.array([[0.0], [1.0]]),
            weights=np.array([1.0, 1.0]),
            orientation=self.orientation,
            node_signs=np.array([-1.0, 1.0]),
            parent_indices=np.array([0, n - 1]),
        )

    def smoothness_defect(self, values: Array) -> float:
        """Relative magnitude of the Nyquist-band spectral coefficients;
        a proxy for how well the grid resolves the sampled data.  The worst
        column counts, from one transform of all columns."""
        if self.periods is None:
            return 0.0
        c = np.asarray(values).reshape(self.shape + (-1,))
        c = np.abs(np.fft.fftn(c, axes=tuple(range(self.dim))))
        scale = np.maximum(c.reshape(self.n_nodes, -1).max(axis=0), 1e-30)
        # every Nyquist plane in one reduction, which a NaN coefficient poisons
        planes = np.concatenate([c[(slice(None),) * a + (n // 2,)].reshape(-1, c.shape[-1])
                                 for a, n in enumerate(self.shape)])
        return float((planes / scale).max(initial=0.0))


def torus(shape) -> SourceDomain:
    """Flat k-torus [0,2pi)^k on a tensor grid, k = len(shape), nodes in
    C order (the last axis varies fastest).  Its kind is "circle" for k = 1
    and "torus<k>" otherwise."""
    shape = tuple(int(n) for n in shape)
    k = len(shape)
    axes = [np.arange(n) * (TWO_PI / n) for n in shape]
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
    w = np.full(nodes.shape[0], math.prod(TWO_PI / n for n in shape))
    return SourceDomain(dim=k, shape=shape, nodes=nodes, weights=w,
                        periods=(TWO_PI,) * k)


def circle(n: int) -> SourceDomain:
    """Unit circle as the periodic chart [0,2pi) with n uniform nodes."""
    return torus((n,))


def torus2(n: int) -> SourceDomain:
    """Flat 2-torus [0,2pi)^2 on an n-by-n tensor grid; a non-square grid
    is torus((nx, ny))."""
    return torus((n, n))


# 4th-order end-corrected trapezoid (Gregory) weights
_GREGORY_EDGE = np.array([3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0])
# the one-sided 5-point closures at both ends need this many nodes
MIN_INTERVAL_NODES = 8


def interval(n: int) -> SourceDomain:
    """Unit interval [0,1] with n uniform nodes (n >= MIN_INTERVAL_NODES),
    4th-order differentiation and quadrature."""
    if n < MIN_INTERVAL_NODES:
        raise ValueError(f"interval domain needs at least {MIN_INTERVAL_NODES} nodes")
    h = 1.0 / (n - 1)
    x = np.linspace(0.0, 1.0, n)
    w = np.full(n, h)
    w[:3] = _GREGORY_EDGE * h
    w[-3:] = _GREGORY_EDGE[::-1] * h
    return SourceDomain(dim=1, shape=(n,), nodes=x[:, None], weights=w)


def make_domain(kind: str, nodes: int) -> SourceDomain:
    """The domain of a kind with about `nodes` nodes: the 2-torus takes the
    square grid of side round(sqrt(nodes))."""
    if kind == "circle":
        return circle(nodes)
    if kind == "torus2":
        return torus2(int(round(np.sqrt(nodes))))
    if kind == "interval":
        return interval(nodes)
    raise ValueError(f"unknown domain kind {kind!r}")


# ---------------------------------------------------------------------------
# spectral helpers

@functools.lru_cache(maxsize=32)
def _wavenumbers(n: int, length: float) -> Array:
    """Angular wavenumbers of an n-point grid of the given period (read-only,
    cached)."""
    k = np.fft.fftfreq(n, d=1.0 / n) * (TWO_PI / length)
    if n % 2 == 0:
        k[n // 2] = 0.0  # odd-symmetric derivative: drop the Nyquist mode
    k.flags.writeable = False
    return k


@functools.lru_cache(maxsize=64)
def _derivative_symbol(n: int, length: float, trailing: int) -> Array:
    """i k of an n-point grid of the given period, shaped to broadcast over
    `trailing` further axes (read-only, cached)."""
    ik = (1j * _wavenumbers(n, length)).reshape((n,) + (1,) * trailing)
    ik.flags.writeable = False
    return ik


def _spectral_derivative(values: Array, axis: int, length: float) -> Array:
    # a complex FFT would mix the real part's roundoff into a tiny imaginary part
    if np.iscomplexobj(values):
        return (_spectral_derivative(values.real, axis, length)
                + 1j * _spectral_derivative(values.imag, axis, length))
    vhat = np.fft.fft(values, axis=axis)
    vhat *= _derivative_symbol(values.shape[axis], length, values.ndim - axis - 1)
    return np.real(np.fft.ifft(vhat, axis=axis))


@functools.lru_cache(maxsize=32)
def _spectral_matrix(n: int, length: float) -> Array:
    """The FFT route applied to the unit vectors (read-only, cached)."""
    D = _spectral_derivative(np.eye(n), 0, length)
    D.flags.writeable = False
    return D


@functools.lru_cache(maxsize=16)
def _fd4_matrix(n: int, h: float) -> Array:
    """Dense 4th-order differentiation matrix with one-sided closures."""
    D = np.zeros((n, n))
    c = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    for i in range(2, n - 2):
        D[i, i - 2:i + 3] = c
    D[0, :5] = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    D[1, :5] = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
    D[n - 2, -5:] = -np.array([-3.0, -10.0, 18.0, -6.0, 1.0])[::-1] / 12.0
    D[n - 1, -5:] = -np.array([-25.0, 48.0, -36.0, 16.0, -3.0])[::-1] / 12.0
    D /= h
    D.flags.writeable = False
    return D


def _nyquist_basis(n: int, pts: Array) -> Array:
    """Evaluation matrix of the real trigonometric interpolant."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    E = np.exp(1j * np.outer(pts, k))
    if n % 2 == 0:
        E[:, n // 2] = np.cos((n / 2.0) * pts)  # symmetric Nyquist mode
    return E


def _trig_interp(flat: Array, shape: tuple, pts: Array) -> Array:
    """Tensor-product trigonometric interpolant of every column of flat
    (n_nodes, comps) at pts (P, k): the coefficients of all columns, laid
    out (n_0, comps, n_1, ...), meet the axis-0 basis in one matrix product;
    the other axes are then summed out one by one from the last.  Complex
    data goes one part at a time, as in _spectral_derivative."""
    if np.iscomplexobj(flat):
        return _trig_interp(flat.real, shape, pts) + 1j * _trig_interp(flat.imag, shape, pts)
    k, comps = len(shape), flat.shape[1]
    c = np.fft.fftn(flat.reshape(shape + (comps,)), axes=tuple(range(k)))
    c = c.transpose((0, k, *range(1, k))) / flat.shape[0]
    out = _nyquist_basis(shape[0], pts[:, 0]) @ c.reshape(shape[0], -1)
    out = out.reshape((len(pts), comps) + shape[1:])
    for a in reversed(range(1, k)):
        E = _nyquist_basis(shape[a], pts[:, a])
        out = np.sum(out * E.reshape((len(pts),) + (1,) * a + (shape[a],)), axis=-1)
    return np.real(out)


# ---------------------------------------------------------------------------
# node-sampled scalar fields

@dataclass(frozen=True)
class ScalarField:
    """A scalar field sampled on the nodes of a source domain."""

    dom: SourceDomain
    values: Array

    def __post_init__(self):
        if self.values.shape != (self.dom.n_nodes,):
            raise ValueError("ScalarField values must be one value per node")

    def d_components(self) -> Array:
        """Nodal components of the differential, shape (n_nodes, k)."""
        return self.dom.map_jacobian(self.values)

    def as_zero_form(self) -> Form:
        """Wrap as a degree-0 form; evaluation is restricted to grid nodes."""
        dom, vals = self.dom, self.values

        def ev(s, vs):
            return vals[dom.node_index(s)]

        return Form(0, dom.chart_dim, ev, name="nodal")

    def __sub__(self, other):
        if isinstance(other, ScalarField):
            return ScalarField(self.dom, self.values - other.values)
        return ScalarField(self.dom, self.values - float(other))


def nodal_vector_field(dom: SourceDomain, vectors: Array):
    """Node-sampled vector field on S as a callable usable in interior
    products; evaluation is restricted to grid nodes (KeyError off them)
    and looks up all rows with one node_index call."""
    vectors = np.asarray(vectors, dtype=float)

    def func(s):
        return vectors[dom.node_index(s)]

    return VectorField(func, dom.chart_dim, name="nodal", batched=True)


# ---------------------------------------------------------------------------
# the right inverse of d on every torus, and friends

def sample_one_form(dom: SourceDomain, beta) -> Array:
    """Nodal components (n_nodes, k) of a 1-form given as a Form or as a
    ready-made component array."""
    if isinstance(beta, np.ndarray):
        b = np.asarray(beta, dtype=float)
        if b.shape != (dom.n_nodes, dom.dim):
            raise ValueError("component array must be (n_nodes, dim)")
        return b
    if beta.degree != 1:
        raise DegreeError("expected a 1-form")
    basis = np.eye(dom.chart_dim)
    return np.column_stack([beta.evaluator(dom.nodes, [broadcast_rows(basis[a], dom.nodes)])
                            for a in range(dom.dim)])


def right_inverse_b(dom: SourceDomain, beta) -> ScalarField:
    """The zero-mean potential of a numerically exact 1-form on a periodic
    domain, via the spectral Poisson solve Δα = div(beta#):
    α̂ = -(i k · β̂) / |k|².

    Raises NotExactError unless every curl ∂_i β_j - ∂_j β_i (i < j) and
    period (mean of a component) is within EXACTNESS_TOL, which NaN is not;
    the zero-mean gauge is the fixed choice of right inverse and is part of
    the reported conventions, because momentum values depend on it.
    """
    if dom.periods is None:
        raise ValueError(f"right_inverse_b needs a periodic domain, not {dom.kind}")
    comps = sample_one_form(dom, beta)
    # the circle has no curl pair, so its curl is the leading 0.0
    curl = worst([0.0, *(np.abs(dom.differentiate(comps[:, j], axis=i)
                                - dom.differentiate(comps[:, i], axis=j))
                         for i in range(dom.dim) for j in range(i + 1, dom.dim))])
    periods = worst(abs(np.mean(comps[:, a])) for a in range(dom.dim))
    if not (curl <= EXACTNESS_TOL and periods <= EXACTNESS_TOL):
        raise NotExactError(
            f"1-form is not exact: curl residual {curl:.3e}, period residual "
            f"{periods:.3e} (tol {EXACTNESS_TOL:.1e})")
    ks = [_wavenumbers(n, TWO_PI).reshape((1,) * a + (n,) + (1,) * (dom.dim - a - 1))
          for a, n in enumerate(dom.shape)]
    terms = [1j * k * np.fft.fftn(comps[:, a].reshape(dom.shape)) for a, k in enumerate(ks)]
    # both sums start from the axis-0 term, so T^2 keeps the 2-D solve bit for bit
    div_hat = sum(terms[1:], terms[0])
    k2 = sum((k ** 2 for k in ks[1:]), ks[0] ** 2)
    # dead: the 2^k modes whose every wavenumber is 0 or Nyquist (zeroed)
    dead = k2 == 0.0
    k2 = np.where(dead, 1.0, k2)
    alpha_hat = -div_hat / k2
    alpha_hat[dead] = 0.0
    return ScalarField(dom, np.real(np.fft.ifftn(alpha_hat)).ravel())


def projection_P(dom: SourceDomain, alpha) -> ScalarField:
    """P = 1 - b∘d on scalar fields of a periodic domain: subtracting the
    zero-mean potential of d(alpha) leaves the constant mean-value field."""
    f = alpha if isinstance(alpha, ScalarField) else ScalarField(dom, np.asarray(alpha, dtype=float))
    pot = right_inverse_b(dom, f.d_components())
    return f - pot


def exact_divfree_field(dom: SourceDomain, alpha) -> Array:
    """Nodal vector field Z with i_Z(dx∧dy) = d(alpha) on a 2-dimensional
    domain: Z = (∂_y alpha, -∂_x alpha)."""
    if dom.dim != 2:
        raise ValueError(f"exact_divfree_field is defined in dimension 2, not on {dom.kind}")
    f = alpha if isinstance(alpha, ScalarField) else ScalarField(dom, np.asarray(alpha, dtype=float))
    da = f.d_components()
    return np.column_stack([da[:, 1], -da[:, 0]])


def warn_if_rough(dom: SourceDomain, values: Array) -> float:
    defect = dom.smoothness_defect(values)
    if not defect <= ROUGHNESS_THRESHOLD:
        warnings.warn(
            f"sampled data keeps {defect:.2e} relative energy at the Nyquist "
            f"band; the grid may be too coarse", SmoothnessWarning)
    return defect
