"""Exterior algebra and calculus for differential forms on flat charts.

A form of degree p on an m-dimensional chart is an evaluator taking N
points stacked as rows (N, m) and p tangent vectors stacked the same way to
N real numbers, optionally bundled with an analytic exterior derivative.
Scalar coefficient functions follow the same batched contract.  There is no
symbolic layer: wedge products, interior products, pullbacks and Lie
derivatives all compose evaluators, and the exterior derivative falls back
to central differences when no analytic derivative is attached.  A
chart-level sum goes through each form once: a wedge product stacks its
shuffle terms as row blocks, and a central difference stacks its shifted
points, so each factor or differenced form sees one evaluator call.  The
difference kernel, alternating_differences, takes any evaluator and points
of any trailing shape: mapspace.map_space_d runs the same formula on stacks
of maps.  Difference steps must be finite and positive.  A coefficient form
evaluates its trig_scalar coefficients from one stacked table: one sine per
evaluation, and one cosine per evaluation of its analytic d.  The flow
route of the Lie derivative is one complex step in time: one field call,
one Jacobian call and one form call per evaluation.  Calling a form or a
scalar function on a single point is a thin wrapper around the batched
evaluator.

Quadrature integration over a discretized source domain and fiber
integration over a product chart live here as well.

All types are immutable after construction and evaluators must be pure, so
every operation in this module is safe for concurrent evaluation.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .charts import (DEFAULT_FD_STEP, ChartMap, DimensionMismatch, VectorField,
                     _row, as_field, broadcast_rows, identity_map)

Array = np.ndarray


class DegreeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# permutation helpers

def _perm_sign(perm) -> int:
    """Sign of a permutation given as a tuple of distinct integers."""
    sign = 1
    n = len(perm)
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


@functools.lru_cache(maxsize=None)
def shuffles(p: int, q: int) -> tuple:
    """All (p,q)-shuffle splits of range(p+q) as (left, right, sign) tuples;
    built once per (p, q)."""
    idx = tuple(range(p + q))
    out = []
    for left in itertools.combinations(idx, p):
        right = tuple(i for i in idx if i not in left)
        out.append((left, right, _perm_sign(left + right)))
    return tuple(out)


def _minor_det(vectors: Sequence[Array], index: tuple):
    """Row-wise det of the submatrix picking components `index` of the
    vectors, each (N, m); 1.0 for the empty index."""
    p = len(index)
    if p == 0:
        return 1.0
    if p == 1:
        return vectors[0][:, index[0]]
    if p == 2:
        (a, b) = index
        v0, v1 = vectors
        return v0[:, a] * v1[:, b] - v0[:, b] * v1[:, a]
    if p == 3:
        (a, b, c) = index
        v0, v1, v2 = vectors
        return (
            v0[:, a] * (v1[:, b] * v2[:, c] - v1[:, c] * v2[:, b])
            - v0[:, b] * (v1[:, a] * v2[:, c] - v1[:, c] * v2[:, a])
            + v0[:, c] * (v1[:, a] * v2[:, b] - v1[:, b] * v2[:, a])
        )
    return np.linalg.det(np.stack([v[:, list(index)] for v in vectors], axis=1))


# ---------------------------------------------------------------------------
# scalar coefficient functions with analytic derivatives

@dataclass(frozen=True)
class ScalarFunc:
    """A scalar function on a chart with optional analytic gradient/Hessian.

    All three take points stacked as rows, x of shape (N, m), and return
    shapes (N,), (N, m) and (N, m, m); write coordinates as x[..., i].
    """

    value: Callable[[Array], Array]
    grad: Optional[Callable[[Array], Array]] = None
    hess: Optional[Callable[[Array], Array]] = None

    def __call__(self, x) -> float:
        """Value at a single point."""
        return float(self.value(_row(x))[0])


def scalar_const(c: float, dim: int) -> ScalarFunc:
    z = np.zeros(dim)
    zz = np.zeros((dim, dim))
    return ScalarFunc(lambda x: broadcast_rows(c, x), lambda x: broadcast_rows(z, x),
                      lambda x: broadcast_rows(zz, x))


def scalar_coordinate(i: int, dim: int) -> ScalarFunc:
    e = np.zeros(dim)
    e[i] = 1.0
    zz = np.zeros((dim, dim))
    return ScalarFunc(lambda x: x[..., i], lambda x: broadcast_rows(e, x),
                      lambda x: broadcast_rows(zz, x))


def scalar_sum(funcs: Sequence[ScalarFunc]) -> ScalarFunc:
    """The sum of funcs; a gradient or Hessian only if every summand has one."""
    funcs = list(funcs)

    def summed(part: str):
        parts = [getattr(f, part) for f in funcs]
        return None if any(g is None for g in parts) else lambda x: sum(g(x) for g in parts)

    return ScalarFunc(summed("value"), summed("grad"), summed("hess"))


@dataclass(frozen=True, eq=False)
class _TrigSum:
    """sum_r A[r] * sin(K[r] . x + P[r]) with its gradient and Hessian, kept
    with its modes K, amplitudes A and phases P so that coefficient_form can
    evaluate many such sums from one table."""

    K: Array
    A: Array
    P: Array

    def __call__(self, x):
        return np.sin(x @ self.K.T + self.P) @ self.A

    def grad(self, x):
        return (np.cos(x @ self.K.T + self.P) * self.A) @ self.K

    def hess(self, x):
        w = -self.A * np.sin(x @ self.K.T + self.P)
        return np.einsum("nr,ri,rj->nij", w, self.K, self.K)


def trig_scalar(dim: int, modes, amps, phases) -> ScalarFunc:
    """Sum of amps[r] * sin(modes[r] . x + phases[r]) with analytic
    gradient and Hessian; periodic on [0,2pi)^dim for integer modes."""
    s = _TrigSum(np.asarray(modes, dtype=float).reshape(-1, dim),
                 np.asarray(amps, dtype=float), np.asarray(phases, dtype=float))
    return ScalarFunc(s, s.grad, s.hess)


def _coefficient_table(funcs: Sequence[ScalarFunc]) -> tuple:
    """(values, grads): the values and the gradients of funcs at rows x, each
    a list in the order of funcs.  The functions that trig_scalar built
    whole share one table of phases x @ K.T + P, so one np.sin gives all
    their values and one np.cos all their gradients, column block by column
    block exactly as their own calls would.  Every other function (one that
    reuses a trig value with another gradient, say) keeps its own calls."""
    sums = [f.value if isinstance(f.value, _TrigSum) and f.grad == f.value.grad
            and f.hess == f.value.hess else None for f in funcs]
    # x @ K.T of a one-term sum is a matrix-vector product, whose bits differ
    # from a column of the stacked matrix product: it keeps its own product,
    # and its column joins the table after the stacked ones
    stacked = [t for t in sums if t is not None and len(t.K) != 1]
    single = [t for t in sums if t is not None and len(t.K) == 1]
    table = stacked + single
    ends = np.cumsum([0] + [len(t.K) for t in table])
    block = {id(t): slice(a, b) for t, a, b in zip(table, ends, ends[1:])}
    cols = [None if t is None else block[id(t)] for t in sums]
    if table:
        KT = np.concatenate([t.K for t in stacked]).T if stacked else None
        P = np.concatenate([np.broadcast_to(t.P, len(t.K)) for t in table])

    def phases(x):
        parts = ([x @ KT] if stacked else []) + [x @ t.K.T for t in single]
        return (parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)) + P

    def values(x):
        S = np.sin(phases(x)) if table else None
        return [f.value(x) if c is None else S[:, c] @ t.A
                for f, t, c in zip(funcs, sums, cols)]

    def grads(x):
        C = np.cos(phases(x)) if table else None
        return [np.asarray(f.grad(x)) if c is None else (C[:, c] * t.A) @ t.K
                for f, t, c in zip(funcs, sums, cols)]

    return values, grads


# ---------------------------------------------------------------------------
# the Form type and its calculus

@dataclass(frozen=True)
class Form:
    """A degree-p alternating multilinear field on an m-dimensional chart.

    evaluator(points, [v_1, ..., v_p]) -> values, with points and every v_i
    of shape (N, m) and values of shape (N,): row i of the result is the form
    at points[i] on the i-th rows of the vectors.  Antisymmetry and
    multilinearity in the tangent slots are the caller's obligation when
    constructing raw evaluators; every operation below preserves them.
    """

    degree: int
    ambient_dim: int
    evaluator: Callable[[Array, Sequence[Array]], Array]
    analytic_d: Optional["Form"] = None
    name: str = ""

    def __post_init__(self):
        if self.degree < 0:
            raise DegreeError("negative form degree")

    def __call__(self, point, *vectors) -> float:
        """Value at a single point on single vectors."""
        if len(vectors) != self.degree:
            raise DegreeError(
                f"form of degree {self.degree} evaluated on {len(vectors)} vectors"
            )
        return float(self.evaluator(_row(point), [_row(v) for v in vectors])[0])


def zero_form(dim: int, degree: int) -> Form:
    return Form(degree, dim, lambda x, vs: np.zeros(len(x)), name="0")


def constant_form(dim: int, value: float) -> Form:
    return Form(0, dim, lambda x, vs: np.full(len(x), value),
                analytic_d=zero_form(dim, 1), name=f"{value:g}")


def form_sum(*forms: Form) -> Form:
    degs = {f.degree for f in forms}
    dims = {f.ambient_dim for f in forms}
    if len(degs) != 1 or len(dims) != 1:
        raise DimensionMismatch("form_sum needs forms of equal degree and chart dim")
    fs = list(forms)

    def ev(x, vs):
        return sum(f.evaluator(x, vs) for f in fs)

    analytic = None
    if all(f.analytic_d is not None for f in fs):
        analytic = form_sum(*[f.analytic_d for f in fs])
    return Form(fs[0].degree, fs[0].ambient_dim, ev, analytic_d=analytic)


def form_scale(c: float, a: Form) -> Form:
    analytic = form_scale(c, a.analytic_d) if a.analytic_d is not None else None
    return Form(a.degree, a.ambient_dim, lambda x, vs: c * a.evaluator(x, vs),
                analytic_d=analytic, name=f"{c:g}*{a.name}")


def strip_analytic(a: Form) -> Form:
    """Copy of a form without its analytic derivative (forces the
    finite-difference path in exterior_derivative)."""
    return Form(a.degree, a.ambient_dim, a.evaluator, analytic_d=None, name=a.name)


def coefficient_form(dim: int, degree: int, coeffs: dict, name: str = "") -> Form:
    """Form sum_I c_I(x) dx^I from {increasing multi-index: ScalarFunc}.

    When every coefficient carries an analytic gradient, the exterior
    derivative sum_J (sum ±∂_j c_I) dx^J is attached analytically, with one
    gradient per coefficient and evaluation; derivatives of derivatives are
    the exact zero form.  The coefficients that trig_scalar built are
    evaluated from one table (_coefficient_table): one sine per evaluation
    of the form and one cosine per evaluation of its d.  Both keep the dtype
    of the points and vectors, so a complex point gives a complex value.
    """
    items = [(tuple(I), c) for I, c in sorted(coeffs.items())]
    for I, _ in items:
        if len(I) != degree or any(i >= dim for i in I) or list(I) != sorted(set(I)):
            raise DegreeError(f"bad multi-index {I} for degree {degree} on dim {dim}")

    values, grads = _coefficient_table([c for _, c in items])

    def ev(x, vs):
        total = np.zeros(len(x), np.result_type(x, *vs))
        for (I, _), value in zip(items, values(x)):
            total = total + value * _minor_det(vs, I)
        return total

    analytic = None
    if items and all(c.grad is not None for _, c in items):
        # dx^j ∧ dx^I = (-1)^(position of j in J) dx^J: J -> [(coefficient, j, sign)]
        by_J: dict = {}
        for r, (I, _) in enumerate(items):
            for j in range(dim):
                if j not in I:
                    J = tuple(sorted((j,) + I))
                    by_J.setdefault(J, []).append((r, j, (-1.0) ** J.index(j)))
        dterms = sorted(by_J.items())

        def dev(x, vs):
            g = grads(x)
            total = np.zeros(len(x), np.result_type(x, *vs))
            for J, parts in dterms:
                coeff = sum(sign * g[r][..., j] for r, j, sign in parts)
                total = total + coeff * _minor_det(vs, J)
            return total

        analytic = (Form(degree + 1, dim, dev, analytic_d=zero_form(dim, degree + 2),
                         name=f"d({name})") if dterms else zero_form(dim, degree + 1))
    return Form(degree, dim, ev, analytic_d=analytic, name=name)


def coordinate_form(indices, dim: int, coeff: float = 1.0, name: str = "") -> Form:
    """c * dx^{i_1} ∧ ... ∧ dx^{i_p} for an increasing index tuple."""
    I = tuple(indices)
    return coefficient_form(dim, len(I), {I: scalar_const(coeff, dim)}, name=name)


def volume_form(dim: int, scale: float = 1.0) -> Form:
    return coordinate_form(tuple(range(dim)), dim, scale, name="vol")


def wedge(a: Form, b: Form) -> Form:
    """Exterior product by the signed shuffle sum; graded commutative."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"wedge on charts of dim {a.ambient_dim} and {b.ambient_dim}")
    p, q = a.degree, b.degree
    splits = shuffles(p, q)

    def ev(x, vs):
        # every shuffle term is a block of rows: one call per factor
        xs = np.concatenate([x] * len(splits))
        va = a.evaluator(xs, [np.concatenate([vs[left[j]] for left, _, _ in splits])
                              for j in range(p)]).reshape(len(splits), len(x))
        vb = b.evaluator(xs, [np.concatenate([vs[right[j]] for _, right, _ in splits])
                              for j in range(q)]).reshape(len(splits), len(x))
        return sum((sign * va[s] * vb[s] for s, (_, _, sign) in enumerate(splits)),
                   np.zeros(len(x)))

    analytic = None
    if a.analytic_d is not None and b.analytic_d is not None:
        analytic = form_sum(wedge(a.analytic_d, b),
                            form_scale((-1.0) ** p, wedge(a, b.analytic_d)))
    return Form(p + q, a.ambient_dim, ev, analytic_d=analytic,
                name=f"{a.name}^{b.name}")


def interior(a: Form, X) -> Form:
    """Interior product i_X a; the contracted vector fills the first slot."""
    if a.degree == 0:
        raise DegreeError(
            "interior product of a degree-0 form is undefined; callers that "
            "need the zero-form convention must special-case it")
    Xf = as_field(X, a.ambient_dim)

    def ev(x, vs):
        return a.evaluator(x, [Xf.rows(x), *vs])

    return Form(a.degree - 1, a.ambient_dim, ev, name=f"i_{Xf.name}({a.name})")


def alternating_differences(evaluate: Callable[[Array, Sequence[Array]], Array],
                            x: Array, vectors: Sequence[Array], step: float) -> Array:
    """The coordinate formula for d by constant-extension central differences,

        sum_i (-1)^i D_{Y_i}[ evaluate(., Y_0..ŷ_i..Y_p) ](x),

    at the points x, each Y_i of x's shape.  The points are chart rows (N, m)
    or map stacks (B, n_nodes, m); evaluate takes them with their slots and
    returns one value per leading index.  All 2(p+1) shifts are stacked
    along the leading axis, row block (i, ±step), and go to evaluate in one
    call."""
    k = len(vectors)
    xs = np.concatenate([x + t * v for v in vectors for t in (step, -step)])
    rest = [np.concatenate([vectors[j + (j >= i)] for i in range(k) for _ in (0, 1)])
            for j in range(k - 1)]
    f = evaluate(xs, rest).reshape(k, 2, len(x))
    total = 0.0
    for i in range(k):
        total = total + (-1.0) ** i * (f[i, 0] - f[i, 1]) / (2.0 * step)
    return total


def exterior_derivative(a: Form, step: float = DEFAULT_FD_STEP) -> Form:
    """d a.  Returns the attached analytic derivative when present, else the
    coordinate formula of alternating_differences, all 2(p+1) shifts in one
    call to a."""
    check_t_step(step, "step")
    if a.analytic_d is not None:
        return a.analytic_d

    def ev(x, vs):
        return alternating_differences(a.evaluator, x, vs, step)

    return Form(a.degree + 1, a.ambient_dim, ev, name=f"d({a.name})")


def pullback(a: Form, phi: ChartMap) -> Form:
    """phi^* a: coefficients at phi(x), slots fed through the Jacobian."""
    if phi.target_dim != a.ambient_dim:
        raise DimensionMismatch(
            f"pullback: map into dim {phi.target_dim}, form on dim {a.ambient_dim}")

    def ev(x, vs):
        J = phi.jacobian_rows(x)
        return a.evaluator(phi.rows(x), [np.einsum("nij,nj->ni", J, v) for v in vs])

    return Form(a.degree, phi.source_dim, ev, name=f"{phi.name}*({a.name})")


def lie_derivative(a: Form, X, step: float = DEFAULT_FD_STEP) -> Form:
    """Cartan formula L_X = i_X d + d i_X; for functions, L_X h = dh(X) by
    central differences, even when h carries an analytic derivative."""
    check_t_step(step, "step")
    Xf = as_field(X, a.ambient_dim)
    if a.degree == 0:
        def ev(x, vs):
            return alternating_differences(a.evaluator, x, [Xf.rows(x)], step)
        return Form(0, a.ambient_dim, ev, name=f"L_{Xf.name}({a.name})")
    return form_sum(interior(exterior_derivative(a, step), Xf),
                    exterior_derivative(interior(a, Xf), step))


def check_t_step(step, name: str) -> None:
    """Reject a difference step, named `name`, that is not a finite positive
    number (a zero step would divide 0 by 0 and return NaN)."""
    if (not isinstance(step, numbers.Real) or isinstance(step, bool)
            or not np.isfinite(step) or step <= 0):
        raise ValueError(f"{name} must be a finite positive number, got {step!r}")


LIE_FLOW_STEP = 1e-30  # the imaginary time step h of lie_derivative_flow


def lie_derivative_flow(a: Form, X: VectorField) -> Form:
    """Independent flow route: d/dt (phi_t^X)^* a at t = 0 by a complex step
    in time (Squire & Trapp, SIAM Review 1998),

        L_X a(x; v_1..v_p) = Im a(x + ih X(x); v_1 + ih DX(x) v_1, ...) / h,

    h = LIE_FLOW_STEP.  At t = ih every flow map of X, exact or RK4 with any
    number of steps, is x + ih X(x) with Jacobian I + ih DX(x) to double
    precision, since the higher terms are O(h^2) relative; no step uses the
    Cartan formula, and nothing is subtracted, so the route is exact to
    roundoff.  X and DX are evaluated once on the real rows and a once on
    the N complex rows, so a must keep complex rows complex and be analytic
    in its points and vectors, as every form this module builds is."""
    if X.dim != a.ambient_dim:
        raise DimensionMismatch(
            f"lie_derivative_flow: field on dim {X.dim}, form on dim {a.ambient_dim}")
    h = LIE_FLOW_STEP

    def ev(x, vs):
        DX = X.jacobian_rows(x)
        moved = [v + 1j * h * np.einsum("nij,nj->ni", DX, v) for v in vs]
        return np.imag(a.evaluator(x + 1j * h * X.rows(x), moved)) / h

    return Form(a.degree, a.ambient_dim, ev, name=f"Lflow_{X.name}({a.name})")


# ---------------------------------------------------------------------------
# quadrature and fiber integration

def integrate(a: Form, dom) -> float:
    """Quadrature of a k-form over a k-dimensional source domain: the form
    is evaluated on the oriented coordinate frame at each node and summed
    with the signed quadrature weights."""
    if a.degree != dom.dim:
        raise DegreeError(
            f"integrate: form degree {a.degree} != domain dim {dom.dim}")
    frame = [broadcast_rows(e, dom.nodes) for e in np.eye(dom.chart_dim)[:dom.dim]]
    return float(dom.signed_weights @ a.evaluator(dom.nodes, frame))


def product_map(s_map: Optional[ChartMap], v_map: Optional[ChartMap],
                s_dim: int, v_dim: int) -> ChartMap:
    """(psi x phi) on a product chart, identity on whichever factor is None."""
    smap = s_map or identity_map(s_dim)
    vmap = v_map or identity_map(v_dim)

    def forward(z):
        return np.hstack([smap.rows(z[:, :s_dim]), vmap.rows(z[:, s_dim:])])

    def jac(z):
        J = np.zeros((len(z), smap.target_dim + vmap.target_dim, s_dim + v_dim))
        J[:, :smap.target_dim, :s_dim] = smap.jacobian_rows(z[:, :s_dim])
        J[:, smap.target_dim:, s_dim:] = vmap.jacobian_rows(z[:, s_dim:])
        return J

    return ChartMap(forward, s_dim + v_dim, smap.target_dim + vmap.target_dim,
                    jacobian_func=jac, name=f"{smap.name}x{vmap.name}", batched=True)


def vertical_field(X: VectorField, s_dim: int) -> VectorField:
    """The field 0_S x X on a product chart."""
    def func(z):
        return np.hstack([np.zeros((len(z), s_dim)), X.rows(z[:, s_dim:])])
    return VectorField(func, s_dim + X.dim, name=f"0x{X.name}", batched=True)


def fiber_integrate(w: Form, dom) -> Form:
    """Integrate an n-form on the product chart S x V, whose leading
    dom.chart_dim coordinates are those of S, over the k-dimensional S
    factor, producing an (n-k)-form on V.

    The integrand at a node feeds the V-insertion slots first and the
    oriented S frame last; putting the frame last is what makes insertion of
    vector fields commute with the fiber integral on odd-dimensional S.
    Over a 0-dimensional domain (a boundary point pair) the frame is empty
    and the node signs weight the sum.
    """
    k, n = dom.dim, w.degree
    cz, nn = dom.chart_dim, dom.n_nodes
    v_dim = w.ambient_dim - cz
    if v_dim < 0:
        raise DimensionMismatch(
            f"fiber integral of a form on dim {w.ambient_dim} over a chart of dim {cz}")
    if n < k:
        raise DegreeError(f"fiber integral of a degree-{n} form over a dim-{k} domain")
    frame = np.eye(w.ambient_dim)[:k]
    sw = dom.signed_weights

    def ev(x, vecs):
        # row r of the product chart is node r % nn above the point x[r // nn]
        rows = len(x) * nn
        points = np.hstack([np.tile(dom.nodes, (len(x), 1)), np.repeat(x, nn, axis=0)])
        ins = [np.hstack([np.zeros((rows, cz)), np.repeat(v, nn, axis=0)]) for v in vecs]
        fr = [np.broadcast_to(e, (rows, w.ambient_dim)) for e in frame]
        vals = w.evaluator(points, ins + fr)
        return vals.reshape(len(x), nn) @ sw

    return Form(n - k, v_dim, ev, name=f"fib({w.name})")


# ---------------------------------------------------------------------------
# sampling utilities for comparing evaluator-based forms

def _draw(rng: np.random.Generator, m: int, p: int):
    """One random point of the unit box [-1, 1]^m and p random vectors,
    drawn in that order."""
    return (rng.uniform(-1.0, 1.0, size=m),
            [rng.uniform(-1.0, 1.0, size=m) for _ in range(p)])


def _stack(samples: list, p: int, m: int) -> tuple:
    """Per-sample (point, vectors) draws as points (N, m) and slots (p, N, m)."""
    x = np.array([s[0] for s in samples]).reshape(len(samples), m)
    return x, np.array([s[1] for s in samples]).reshape(len(samples), p, m).swapaxes(0, 1)


def sample_difference(a: Form, b: Form, rng: np.random.Generator,
                      n_samples: int) -> float:
    """Max |a - b| over random points of the unit box and unit-scale tangent
    tuples."""
    if (a.degree, a.ambient_dim) != (b.degree, b.ambient_dim):
        raise DimensionMismatch("sample_difference needs matching degree and dim")
    m, p = a.ambient_dim, a.degree
    x, vs = _stack([_draw(rng, m, p) for _ in range(n_samples)], p, m)
    diff = a.evaluator(x, list(vs)) - b.evaluator(x, list(vs))
    return float(np.max(np.abs(diff), initial=0.0))


def antisymmetry_defect(a: Form, rng: np.random.Generator, n_samples: int) -> float:
    """Max violation of a swap sign flip over random slot pairs."""
    if a.degree < 2:
        return 0.0
    m, p = a.ambient_dim, a.degree
    samples, pairs = [], []
    for _ in range(n_samples):
        samples.append(_draw(rng, m, p))
        pairs.append(rng.choice(p, size=2, replace=False))
    x, vs = _stack(samples, p, m)
    (i, j), rows = np.reshape(pairs, (n_samples, 2)).T, np.arange(n_samples)
    swapped = vs.copy()
    swapped[i, rows], swapped[j, rows] = vs[j, rows], vs[i, rows]
    defect = a.evaluator(x, list(vs)) + a.evaluator(x, list(swapped))
    return float(np.max(np.abs(defect), initial=0.0))


def multilinearity_defect(a: Form, rng: np.random.Generator, n_samples: int) -> float:
    """Max violation of linearity in a random slot."""
    if a.degree == 0:
        return 0.0
    m, p = a.ambient_dim, a.degree
    samples, slot, u, c = [], [], [], []
    for _ in range(n_samples):
        samples.append(_draw(rng, m, p))
        slot.append(int(rng.integers(p)))
        u.append(rng.uniform(-1.0, 1.0, size=m))
        c.append(float(rng.uniform(-2.0, 2.0)))
    x, vs = _stack(samples, p, m)
    rows, c = np.arange(n_samples), np.array(c)
    combo, alt = vs.copy(), vs.copy()
    combo[slot, rows] += c[:, None] * np.array(u)
    alt[slot, rows] = u
    defect = a.evaluator(x, list(combo)) - (a.evaluator(x, list(vs))
                                            + c * a.evaluator(x, list(alt)))
    return float(np.max(np.abs(defect), initial=0.0))
