"""Smooth maps, diffeomorphisms and vector fields on flat charts.

Everything is an explicit callable plus optional analytic derivative data;
finite differences fill in whatever is missing.  Every map and field
evaluates points stacked as rows through `rows`, `jacobian_rows` and
`inverse_rows`, one route each.  Its callables take rows when it is built
with batched=True, as by every constructor here except `field_from_callable`,
and single points otherwise; a single point is row 0 of one row call.
Rows and values are at least float64, so complex rows stay complex; a
single point is a float row.  Instances are immutable and their callables
must be pure, so evaluation is safe to run concurrently.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Array = np.ndarray

DEFAULT_FD_STEP = 1e-4


class DimensionMismatch(ValueError):
    pass


def broadcast_rows(value, x: Array) -> Array:
    """A constant value, gradient or Hessian repeated for every point of x
    (N, m): shape (N,) + shape(value), as a read-only view."""
    value = np.asarray(value, dtype=float)
    return np.broadcast_to(value, x.shape[:-1] + value.shape)


def worst(values) -> float:
    """The worst of a record's cases (numbers or arrays): their maximum, NaN if any is NaN."""
    return float(np.max(np.hstack(list(values))))


def _fd_jacobian_rows(func: Callable, x: Array, step: float) -> Array:
    """Central-difference Jacobians (N, n, m) of a batched func at the rows
    of x (N, m); all 2m shifted copies of all N rows go through one call."""
    x = np.asarray(x)  # the shifts x ± e are at least float64
    n_rows, m = x.shape
    e = step * np.eye(m)[:, None, :]
    shifted = np.concatenate([x + e, x - e]).reshape(2 * m * n_rows, m)
    f = func(shifted).reshape(2, m, n_rows, -1)
    return np.moveaxis((f[0] - f[1]) / (2.0 * step), 0, -1)


def _row(x) -> Array:
    """A single point as the one row (1, m)."""
    return np.atleast_1d(np.asarray(x, dtype=float))[None]


def _floating(a) -> Array:
    """a as an array of at least float64: float64, or complex128 if complex."""
    a = np.asarray(a)  # float64 (char d) and complex128 (D) pass as they are
    return a if a.dtype.char in "dD" else a.astype(np.promote_types(a.dtype, np.float64))


def _rows(func: Callable, batched: bool, x) -> Array:
    """func at the rows of x, row by row unless batched, at least float64."""
    x = _floating(x)
    return _floating(func(x) if batched else [func(xi) for xi in x])


class _RowCalculus:
    """Row evaluation shared by maps and fields: `_func` names the callable;
    with `batched` the stored callables take points stacked as rows (N, m),
    otherwise single points.  A single point is row 0 of one `rows` call."""

    def __call__(self, x) -> Array:
        return self.rows(_row(x))[0]

    def rows(self, x) -> Array:
        """Values at the rows of x (N, m): shape (N, n), possibly a
        read-only view (a constant field broadcasts one vector)."""
        return _rows(self._func, self.batched, x)

    def jacobian(self, x) -> Array:
        return self.jacobian_rows(_row(x))[0]

    def jacobian_rows(self, x) -> Array:
        """Jacobians at the rows of x (N, m): shape (N, n, m); central
        differences of `rows` when no analytic Jacobian is attached."""
        if self.jacobian_func is not None:
            return _rows(self.jacobian_func, self.batched, x)
        return _fd_jacobian_rows(self.rows, x, DEFAULT_FD_STEP)


@dataclass(frozen=True)
class ChartMap(_RowCalculus):
    """A smooth map between flat charts: forward map, optional inverse,
    optional analytic Jacobian (central differences otherwise).  With
    batched=True, forward, jacobian_func and inverse take points stacked
    as rows (N, m) and return (N, n), (N, n, m) and (N, m)."""

    forward: Callable[[Array], Array]
    source_dim: int
    target_dim: int
    jacobian_func: Optional[Callable[[Array], Array]] = None
    inverse: Optional[Callable[[Array], Array]] = None
    name: str = ""
    batched: bool = False

    _func = property(lambda self: self.forward)

    def inverse_point(self, y) -> Array:
        return self.inverse_rows(_row(y))[0]

    def inverse_rows(self, y) -> Array:
        """Inverse images of the rows of y (N, n): shape (N, m)."""
        if self.inverse is None:
            raise ValueError(f"map {self.name!r} has no inverse")
        return _rows(self.inverse, self.batched, y)


def identity_map(dim: int) -> ChartMap:
    eye = np.eye(dim)
    return ChartMap(
        forward=lambda x: x,
        source_dim=dim,
        target_dim=dim,
        jacobian_func=lambda x: broadcast_rows(eye, x),
        inverse=lambda y: y,
        name="id",
        batched=True,
    )


def affine_map(A, b=None, name: str = "affine") -> ChartMap:
    """x -> A x + b, with exact Jacobian and exact inverse when A is square
    and invertible."""
    A = np.asarray(A, dtype=float)
    tdim, sdim = A.shape
    b = np.zeros(tdim) if b is None else np.asarray(b, dtype=float)
    inverse = None
    if tdim == sdim:
        try:
            Ainv = np.linalg.inv(A)
            inverse = lambda y: (y - b) @ Ainv.T  # noqa: E731
        except np.linalg.LinAlgError:
            inverse = None
    return ChartMap(
        forward=lambda x: x @ A.T + b,
        source_dim=sdim,
        target_dim=tdim,
        jacobian_func=lambda x: broadcast_rows(A, x),
        inverse=inverse,
        name=name,
        batched=True,
    )


def rotation3(axis, angle: float) -> ChartMap:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    R = np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)
    return affine_map(R, name=f"rot3({angle:g})")


@dataclass(frozen=True)
class VectorField(_RowCalculus):
    """A vector field on a flat chart, with optional analytic Jacobian (for
    brackets and the tangent-linear Jacobian of its RK4 flow).  With
    batched=True, func and jacobian_func take points stacked as rows (N, m)
    and return (N, m) and (N, m, m)."""

    func: Callable[[Array], Array]
    dim: int
    jacobian_func: Optional[Callable[[Array], Array]] = None
    name: str = ""
    batched: bool = False

    _func = property(lambda self: self.func)

    def bracket(self, other: "VectorField") -> "VectorField":
        """Jacobi-Lie bracket [X,Y](x) = DY(x) X(x) - DX(x) Y(x); its own
        Jacobian is the central difference of these rows."""
        if other.dim != self.dim:
            raise DimensionMismatch("bracket of fields on different charts")
        X, Y = self, other

        def func(x):
            return (np.einsum("nij,nj->ni", Y.jacobian_rows(x), X.rows(x))
                    - np.einsum("nij,nj->ni", X.jacobian_rows(x), Y.rows(x)))

        return VectorField(func, self.dim, name=f"[{X.name},{Y.name}]", batched=True)

    def flow(self, t: float, steps: int = 64) -> ChartMap:
        """Time-t flow map by `steps` RK4 steps, an integer >= 1, with the
        RK4 map's own tangent-linear Jacobian (see `_rk4_flow`); constant
        and affine fields flow the same way."""
        if not isinstance(steps, numbers.Integral) or isinstance(steps, bool) or steps < 1:
            raise ValueError(f"flow steps must be an integer >= 1, got {steps!r}")
        return _rk4_flow(self, t, steps)


def _rk4_flow(X: VectorField, t: float, steps: int) -> ChartMap:
    """The RK4 map of X over time t.  Its Jacobian is the tangent-linear
    derivative of the same discrete map, RK4 on J' = DX(x) J from J = I with
    DX from `X.jacobian_rows`; neither goes through the Cartan formula.
    The Jacobian integrates the state alongside J, so a caller that needs
    both, as `forms.pullback` does, steps the state twice."""
    h = t / steps

    def jacobian(x):
        eye = np.broadcast_to(np.eye(X.dim), x.shape + (X.dim,))
        return _rk4_steps(X, h, steps, x, eye)[1]

    return ChartMap(lambda x: _rk4_steps(X, h, steps, x)[0],
                    X.dim, X.dim, jacobian_func=jacobian,
                    name=f"flow({X.name},{t:g})", batched=True)


def _rk4_steps(X: VectorField, h, steps: int, *state) -> list:
    """`steps` RK4 steps of size h on state (x,) or (x, J), rows x (N, m)
    and J (N, m, m): x' = X(x) and, when J is given, J' = DX(x) J."""

    def rates(s):
        return [X.rows(s[0])] + [X.jacobian_rows(s[0]) @ J for J in s[1:]]

    for _ in range(steps):
        k1 = rates(state)
        k2 = rates([s + 0.5 * h * k for s, k in zip(state, k1)])
        k3 = rates([s + 0.5 * h * k for s, k in zip(state, k2)])
        k4 = rates([s + h * k for s, k in zip(state, k3)])
        state = [s + (h / 6.0) * (a + 2 * b + 2 * c + d)
                 for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
    return state


def constant_field(vec, name: str = "") -> VectorField:
    """X(x) = vec; its RK4 flow is the shift by t vec up to roundoff."""
    vec = np.asarray(vec, dtype=float)
    m = vec.size
    zero = np.zeros((m, m))
    return VectorField(
        func=lambda x: broadcast_rows(vec, x),
        dim=m,
        jacobian_func=lambda x: broadcast_rows(zero, x),
        name=name or "const",
        batched=True,
    )


def affine_field(A, c=None, name: str = "") -> VectorField:
    """X(x) = A x + c with its exact Jacobian A; each step h of its RK4 flow
    is the degree-4 Taylor polynomial of the exact step, off by O(h^5)."""
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    c = np.zeros(m) if c is None else np.asarray(c, dtype=float)
    return VectorField(
        func=lambda x: x @ A.T + c,
        dim=m,
        jacobian_func=lambda x: broadcast_rows(A, x),
        name=name or "affine",
        batched=True,
    )


def field_from_callable(func, dim: int, jacobian=None, name: str = "") -> VectorField:
    return VectorField(func=func, dim=dim, jacobian_func=jacobian, name=name)


def as_field(X, dim: int) -> VectorField:
    """Coerce a VectorField or a constant vector to a VectorField."""
    if isinstance(X, VectorField):
        if X.dim != dim:
            raise DimensionMismatch(f"field dim {X.dim} != chart dim {dim}")
        return X
    return constant_field(X)
