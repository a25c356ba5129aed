"""Smooth maps, diffeomorphisms and vector fields on flat charts.

Everything is an explicit callable plus optional analytic derivative data;
finite differences fill in whatever is missing.  Every map and field
evaluates points stacked as rows through `rows`, `jacobian_rows` and
`inverse_rows`.  Its callables take rows when it is built with batched=True,
as by every constructor here except `field_from_callable` and `as_field` on
a callable, and single points otherwise; calling it on a single point wraps
whichever it stores.  Instances are immutable and their callables must be
pure, so evaluation is safe to run concurrently.
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


def apply_rows(func: Callable[[Array], Array], x: Array) -> Array:
    """A per-point callable applied to every row of x."""
    return np.array([func(xi) for xi in x], dtype=float)


def _fd_jacobian_rows(func: Callable, x: Array, step: float) -> Array:
    """Central-difference Jacobians (N, n, m) of a batched func at the rows
    of x (N, m); all 2m shifted copies of all N rows go through one call."""
    x = np.asarray(x, dtype=float)
    n_rows, m = x.shape
    e = step * np.eye(m)[:, None, :]
    shifted = np.concatenate([x + e, x - e]).reshape(2 * m * n_rows, m)
    f = np.asarray(func(shifted), dtype=float).reshape(2, m, n_rows, -1)
    return np.moveaxis((f[0] - f[1]) / (2.0 * step), 0, -1)


def _point(func: Callable, batched: bool, x) -> Array:
    x = np.asarray(x, dtype=float)
    if batched:
        return np.asarray(func(np.atleast_1d(x)[None]), dtype=float)[0]
    return np.asarray(func(x), dtype=float)


def _rows(func: Callable, batched: bool, x) -> Array:
    x = np.asarray(x, dtype=float)
    return np.asarray(func(x), dtype=float) if batched else apply_rows(func, x)


class _RowCalculus:
    """Single-point and row evaluation shared by maps and fields: `_func`
    names the callable; with `batched` the stored callables take points
    stacked as rows (N, m), otherwise single points."""

    def __call__(self, x) -> Array:
        return _point(self._func, self.batched, x)

    def rows(self, x) -> Array:
        """Values at the rows of x (N, m): shape (N, n), possibly a
        read-only view (a constant field broadcasts one vector)."""
        return _rows(self._func, self.batched, x)

    def jacobian(self, x) -> Array:
        if self.jacobian_func is not None:
            return _point(self.jacobian_func, self.batched, x)
        return self.jacobian_rows(np.atleast_1d(np.asarray(x, dtype=float))[None])[0]

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
    as rows (N, m) and return (N, n), (N, n, m) and (N, m).  A map whose
    value is a by-product of its Jacobian can also attach
    value_and_jacobian_func, rows (N, m) to the pair of both."""

    forward: Callable[[Array], Array]
    source_dim: int
    target_dim: int
    jacobian_func: Optional[Callable[[Array], Array]] = None
    inverse: Optional[Callable[[Array], Array]] = None
    name: str = ""
    batched: bool = False
    value_and_jacobian_func: Optional[Callable[[Array], tuple]] = None

    _func = property(lambda self: self.forward)

    def value_and_jacobian_rows(self, x) -> tuple:
        """(rows(x), jacobian_rows(x)), in one pass when the map computes
        its value on the way to its Jacobian."""
        if self.value_and_jacobian_func is not None:
            return self.value_and_jacobian_func(x)
        return self.rows(x), self.jacobian_rows(x)

    def _inverse(self) -> Callable[[Array], Array]:
        if self.inverse is None:
            raise ValueError(f"map {self.name!r} has no inverse")
        return self.inverse

    def inverse_point(self, y) -> Array:
        return _point(self._inverse(), self.batched, y)

    def inverse_rows(self, y) -> Array:
        """Inverse images of the rows of y (N, n): shape (N, m)."""
        return _rows(self._inverse(), self.batched, y)


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


def rotation2(angle: float) -> ChartMap:
    c, s = np.cos(angle), np.sin(angle)
    return affine_map(np.array([[c, -s], [s, c]]), name=f"rot2({angle:g})")


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


def compose(outer: ChartMap, inner: ChartMap, name: str = "") -> ChartMap:
    if inner.target_dim != outer.source_dim:
        raise DimensionMismatch(
            f"cannot compose: inner target dim {inner.target_dim} != outer source dim {outer.source_dim}"
        )
    inverse = None
    if outer.inverse is not None and inner.inverse is not None:
        inverse = lambda y: inner.inverse_rows(outer.inverse_rows(y))  # noqa: E731

    def jac(x):
        y, J = inner.value_and_jacobian_rows(x)
        return np.einsum("nij,njk->nik", outer.jacobian_rows(y), J)

    return ChartMap(
        forward=lambda x: outer.rows(inner.rows(x)),
        source_dim=inner.source_dim,
        target_dim=outer.target_dim,
        jacobian_func=jac,
        inverse=inverse,
        name=name or f"{outer.name}∘{inner.name}",
        batched=True,
    )


@dataclass(frozen=True)
class VectorField(_RowCalculus):
    """A vector field on a flat chart, with optional analytic Jacobian
    (for brackets) and optional exact flow.  With batched=True, func and
    jacobian_func take points stacked as rows (N, m) and return (N, m) and
    (N, m, m)."""

    func: Callable[[Array], Array]
    dim: int
    jacobian_func: Optional[Callable[[Array], Array]] = None
    flow_func: Optional[Callable[[float], ChartMap]] = None
    name: str = ""
    batched: bool = False

    _func = property(lambda self: self.func)

    def bracket(self, other: "VectorField") -> "VectorField":
        """Jacobi-Lie bracket [X,Y](x) = DY(x) X(x) - DX(x) Y(x)."""
        if other.dim != self.dim:
            raise DimensionMismatch("bracket of fields on different charts")
        X, Y = self, other

        def func(x):
            return (np.einsum("nij,nj->ni", Y.jacobian_rows(x), X.rows(x))
                    - np.einsum("nij,nj->ni", X.jacobian_rows(x), Y.rows(x)))

        jac = None
        if X.jacobian_func is not None and Y.jacobian_func is not None:
            # second derivatives by differencing the analytic Jacobians
            def jac(x):
                return _fd_jacobian_rows(func, x, DEFAULT_FD_STEP)

        return VectorField(func, self.dim, jacobian_func=jac,
                           name=f"[{X.name},{Y.name}]", batched=True)

    def flow(self, t: float, steps: int = 64) -> ChartMap:
        """Time-t flow map; exact when flow_func is provided, RK4 otherwise,
        with the RK4 map's own tangent-linear Jacobian (see `_rk4_flow`).
        steps, the RK4 step count, must be an integer >= 1 either way."""
        if not isinstance(steps, numbers.Integral) or isinstance(steps, bool) or steps < 1:
            raise ValueError(f"flow steps must be an integer >= 1, got {steps!r}")
        if self.flow_func is not None:
            return self.flow_func(t)
        return _rk4_flow(self, t, steps)


def _rk4_flow(X: VectorField, t: float, steps: int) -> ChartMap:
    """The RK4 map of X over time t.  Its Jacobian is the tangent-linear
    derivative of the same discrete map, RK4 on J' = DX(x) J from J = I with
    DX from `X.jacobian_rows`; neither goes through the Cartan formula.
    `value_and_jacobian_rows` takes both from one stepping loop."""
    h = t / steps

    def value_and_jacobian(x):
        x = np.array(x, dtype=float)
        eye = np.broadcast_to(np.eye(X.dim), x.shape + (X.dim,))
        return tuple(_rk4_steps(X, h, steps, None, x, eye))

    return ChartMap(lambda x: _rk4_steps(X, h, steps, None, np.array(x, dtype=float))[0],
                    X.dim, X.dim, jacobian_func=lambda x: value_and_jacobian(x)[1],
                    name=f"flow({X.name},{t:g})", batched=True,
                    value_and_jacobian_func=value_and_jacobian)


def _rk4_sign_pair(X: VectorField, t: float, x: Array) -> tuple:
    """The one-step RK4 maps of X over +t and -t at the rows x (N, m), with
    their tangent-linear Jacobians, as 2N rows (the +t rows first) from one
    RK4 pass with the per-row step ±t.  The first stage, X and DX at x, is
    the same for both signs, so it is evaluated once on the N rows."""
    eye = np.broadcast_to(np.eye(X.dim), x.shape + (X.dim,))
    # the rates at (x, I) are X(x) and DX(x) I = DX(x)
    k1 = [np.concatenate([k, k]) for k in (X.rows(x), X.jacobian_rows(x))]
    h = np.repeat([t, -t], len(x))[:, None]
    return tuple(_rk4_steps(X, h, 1, k1, np.concatenate([x, x]), np.concatenate([eye, eye])))


def _rk4_steps(X: VectorField, h, steps: int, k1, *state) -> list:
    """RK4 steps of size h on state (x,) or (x, J), rows x (N, m) and J
    (N, m, m): x' = X(x) and, when J is given, J' = DX(x) J.  The step h is
    a scalar or a per-row column (N, 1).  k1 is the first stage of the first
    step when the caller already has it, else None."""

    def rates(s):
        return [X.rows(s[0])] + [X.jacobian_rows(s[0]) @ J for J in s[1:]]

    # h shaped to broadcast against each part of the state
    hs = [np.reshape(h, np.shape(h) + (1,) * (s.ndim - 2)) for s in state]
    for _ in range(steps):
        k1 = rates(state) if k1 is None else k1
        k2 = rates([s + 0.5 * dt * k for s, dt, k in zip(state, hs, k1)])
        k3 = rates([s + 0.5 * dt * k for s, dt, k in zip(state, hs, k2)])
        k4 = rates([s + dt * k for s, dt, k in zip(state, hs, k3)])
        state = [s + (dt / 6.0) * (a + 2 * b + 2 * c + d)
                 for s, dt, a, b, c, d in zip(state, hs, k1, k2, k3, k4)]
        k1 = None
    return state


def constant_field(vec, name: str = "") -> VectorField:
    vec = np.asarray(vec, dtype=float)
    m = vec.size
    zero = np.zeros((m, m))

    def flow(t):
        return affine_map(np.eye(m), t * vec, name=f"shift({t:g})")

    return VectorField(
        func=lambda x: broadcast_rows(vec, x),
        dim=m,
        jacobian_func=lambda x: broadcast_rows(zero, x),
        flow_func=flow,
        name=name or "const",
        batched=True,
    )


def affine_field(A, c=None, name: str = "") -> VectorField:
    """X(x) = A x + c, with the exact flow computed from the matrix
    exponential (`_expm`) of the augmented generator."""
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    c = np.zeros(m) if c is None else np.asarray(c, dtype=float)

    def flow(t):
        aug = np.zeros((m + 1, m + 1))
        aug[:m, :m] = A
        aug[:m, m] = c
        E = _expm(t * aug)
        return affine_map(E[:m, :m], E[:m, m], name=f"affine-flow({t:g})")

    return VectorField(
        func=lambda x: x @ A.T + c,
        dim=m,
        jacobian_func=lambda x: broadcast_rows(A, x),
        flow_func=flow,
        name=name or "affine",
        batched=True,
    )


# numerator coefficients of the [13/13] Pade approximant to exp, and the
# 1-norm up to which it is accurate to double precision (Higham 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(A) -> Array:
    """Matrix exponential by scaling and squaring with the [13/13] Pade
    approximant: N. J. Higham, "The scaling and squaring method for the
    matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26 (2005)."""
    A = np.asarray(A, dtype=float)
    norm = np.linalg.norm(A, 1)
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    A = A / 2.0 ** s
    b = _PADE13
    eye = np.eye(A.shape[0])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def field_from_callable(func, dim: int, jacobian=None, name: str = "") -> VectorField:
    return VectorField(func=func, dim=dim, jacobian_func=jacobian, name=name)


def as_field(X, dim: int) -> VectorField:
    """Coerce a VectorField, callable, or constant vector to a VectorField."""
    if isinstance(X, VectorField):
        if X.dim != dim:
            raise DimensionMismatch(f"field dim {X.dim} != chart dim {dim}")
        return X
    if callable(X):
        return VectorField(func=X, dim=dim)
    return constant_field(np.asarray(X, dtype=float))
