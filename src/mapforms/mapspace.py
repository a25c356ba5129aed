"""The discretized manifold of smooth maps F(S,M) and its calculus.

A map point is a node-indexed sample of f: S -> R^m; a tangent vector is a
node-indexed vector field along f.  Differential forms on F(S,M) are
evaluators on (map point, tangents) tuples.

The central constructions are the two routes to the pairing of a form on M
with a form on S:

* the pointwise route integrates the restricted pull-back of the contracted
  form wedged with the S-side form, using the spectrally computed tangent
  map of f;
* the fiber route builds the pulled-back product form on S x R^n along the
  span of the supplied tangents (constant extension) and feeds it to the
  generic fiber integration.  It is the definitional oracle the pointwise
  route is validated against.

Exterior calculus on F(S,M) uses constant-extension central differences,
which is well defined because the targets are flat charts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .charts import DEFAULT_FD_STEP, ChartMap, DimensionMismatch, VectorField, as_field
from .domains import ScalarField, SourceDomain, warn_if_rough
from .forms import (DegreeError, Form, broadcast_rows, constant_form,
                    fiber_integrate, product_form, shuffles, volume_form,
                    wedge)

Array = np.ndarray


class PeriodicTargetError(ValueError):
    """Raised by operations that need the affine structure of the target;
    torus-valued maps must be lifted to the covering chart first."""


@dataclass(frozen=True)
class MapPoint:
    """A discretized element of F(S,M): one target point per node."""

    dom: SourceDomain
    values: Array
    periodic_target: bool = False

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] != self.dom.n_nodes:
            raise ValueError("values must be (n_nodes, target_dim)")
        bad = np.flatnonzero(~np.isfinite(self.values).all(axis=1))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"values are not finite at node {i} "
                             f"(source point {self.dom.nodes[i]}): {self.values[i]}")

    @property
    def target_dim(self) -> int:
        return self.values.shape[1]

    def jacobian(self) -> Array:
        """Tangent map Tf at every node, shape (n_nodes, m, k)."""
        return self.dom.map_jacobian(self.values)

    def shifted(self, t: float, tangent: "MapTangent") -> "MapPoint":
        if self.periodic_target:
            raise PeriodicTargetError(
                "cannot translate a torus-valued map; lift it to the covering "
                "chart before applying map-space differentials")
        return replace(self, values=self.values + t * tangent.vectors)


@dataclass(frozen=True)
class MapTangent:
    """A vector field along a map point: one target vector per node."""

    base: MapPoint
    vectors: Array

    def __post_init__(self):
        if self.vectors.shape != self.base.values.shape:
            raise ValueError("tangent vectors must match the base node set")

    def rebased(self, f: MapPoint) -> "MapTangent":
        return MapTangent(f, self.vectors)


@dataclass(frozen=True)
class MapSpaceForm:
    """A differential n-form on F(S,M) as an evaluator plus a tag."""

    degree: int
    evaluator: Callable[[MapPoint, tuple], float]
    tag: str = ""

    def __call__(self, f: MapPoint, *tangents: MapTangent) -> float:
        if len(tangents) != self.degree:
            raise DegreeError(
                f"{self.tag or 'form'} of degree {self.degree} evaluated on "
                f"{len(tangents)} tangents")
        return float(self.evaluator(f, tuple(tangents)))


def map_from_function(dom: SourceDomain, func, target_dim: int,
                      periodic_target: bool = False,
                      check_smoothness: bool = True) -> MapPoint:
    vals = np.array([np.asarray(func(s), dtype=float) for s in dom.nodes])
    vals = vals.reshape(dom.n_nodes, target_dim)
    if check_smoothness:
        warn_if_rough(dom, vals)
    return MapPoint(dom, vals, periodic_target)


def zero_mapspace_form(degree: int, tag: str = "0") -> MapSpaceForm:
    return MapSpaceForm(degree, lambda f, ts: 0.0, tag=tag)


def mapspace_sum(*forms: MapSpaceForm) -> MapSpaceForm:
    degs = {w.degree for w in forms}
    if len(degs) != 1:
        raise DegreeError("mapspace_sum needs forms of equal degree")
    fs = list(forms)

    def ev(f, ts):
        return sum(w.evaluator(f, ts) for w in fs)

    return MapSpaceForm(fs[0].degree, ev, tag="+".join(w.tag for w in fs))


def mapspace_scale(c: float, w: MapSpaceForm) -> MapSpaceForm:
    return MapSpaceForm(w.degree, lambda f, ts: c * w.evaluator(f, ts),
                        tag=f"{c:g}*{w.tag}")


# ---------------------------------------------------------------------------
# the pairing, pointwise route

def _as_s_form(alpha, dom: SourceDomain) -> Form:
    if isinstance(alpha, ScalarField):
        if alpha.dom.n_nodes != dom.n_nodes or alpha.dom.kind != dom.kind:
            raise DimensionMismatch("nodal S-side form sampled on a different domain")
        return alpha.as_zero_form()
    if isinstance(alpha, (int, float)):
        return constant_form(dom.chart_dim, float(alpha))
    if isinstance(alpha, Form):
        if alpha.ambient_dim != dom.chart_dim:
            raise DimensionMismatch("S-side form lives on the wrong chart")
        return alpha
    raise TypeError(f"cannot interpret {type(alpha).__name__} as a form on S")


def _pairing_degree(omega: Form, alpha_f: Form, dom: SourceDomain) -> int:
    p, q, k = omega.degree, alpha_f.degree, dom.dim
    if q > k:
        raise DegreeError(f"S-side form of degree {q} on a dim-{k} domain")
    if p + q < k:
        raise DegreeError(f"pairing degree p+q-k = {p + q - k} is negative")
    return p + q - k


def _hat_density(omega: Form, alpha_f: Form, dom: SourceDomain):
    """The integrand of the pointwise route at every node, before the
    quadrature weights: density(f, [Y^1..Y^n as (n_nodes, m) arrays]) has
    shape (n_nodes,), and its value at a node sees only the tangent values
    at that node."""
    k, q = dom.dim, alpha_f.degree
    splits = shuffles(k - q, q)  # Tf columns fed to omega, frame fed to alpha
    frame = [broadcast_rows(e, dom.nodes) for e in np.eye(dom.chart_dim)]
    alpha_vals = [sign * alpha_f.evaluator(dom.nodes, [frame[b] for b in right])
                  for _, right, sign in splits]

    def density(f: MapPoint, tang) -> Array:
        if f.dom.kind != dom.kind or f.dom.n_nodes != dom.n_nodes:
            raise DimensionMismatch("map point lives on a different domain")
        if f.target_dim != omega.ambient_dim:
            raise DimensionMismatch("map target dim != form chart dim")
        Tf = f.jacobian()
        acc = np.zeros(dom.n_nodes)
        for (left, _, _), al in zip(splits, alpha_vals):
            cols = [Tf[:, :, a] for a in left]
            acc = acc + omega.evaluator(f.values, list(tang) + cols) * al
        return acc

    return density


def hat_pairing(omega: Form, alpha, dom: SourceDomain) -> MapSpaceForm:
    """The degree p+q-k form on F(S,M) induced by a p-form on M and a q-form
    on S, evaluated pointwise:

        (f; Y^1..Y^n) -> ∫_S f*( i_{Y^n}..i_{Y^1} (ω∘f) ) ∧ α .

    Tangent arguments fill the leading slots of ω in listed order; the
    remaining slots take the columns of the spectrally computed Tf.
    """
    alpha_f = _as_s_form(alpha, dom)
    n = _pairing_degree(omega, alpha_f, dom)
    density = _hat_density(omega, alpha_f, dom)
    sw = dom.signed_weights

    def ev(f: MapPoint, tangents) -> float:
        return float(sw @ density(f, [t.vectors for t in tangents]))

    return MapSpaceForm(n, ev, tag=f"hat({omega.name},{alpha_f.name})")


def hat_gram(omega: Form, alpha, dom: SourceDomain, f: MapPoint) -> Array:
    """Gram matrix at f of the degree-2 pairing hat_pairing(omega, alpha) on
    the nodal tangent basis, ordered node-major.  It is block diagonal: the
    block of node l is the weighted integrand at l on pairs of coordinate
    vectors, so m^2 batched integrand evaluations replace (n m)^2 pairings."""
    alpha_f = _as_s_form(alpha, dom)
    if _pairing_degree(omega, alpha_f, dom) != 2:
        raise DegreeError("a Gram matrix needs a pairing of degree 2")
    density = _hat_density(omega, alpha_f, dom)
    e = [broadcast_rows(row, f.values) for row in np.eye(f.target_dim)]
    blocks = np.array([[density(f, [ea, eb]) for eb in e] for ea in e])  # (m, m, n)
    n, m = f.values.shape
    idx = np.arange(n * m).reshape(n, m)
    G = np.zeros((n * m, n * m))
    G[idx[:, :, None], idx[:, None, :]] = np.moveaxis(blocks * dom.signed_weights, -1, 0)
    return G


# ---------------------------------------------------------------------------
# the pairing, fiber-integration route (definitional oracle)

def hat_pairing_fiber(omega: Form, alpha, dom: SourceDomain) -> MapSpaceForm:
    """Same pairing through its definition: pull ω back along the evaluation
    map of the affine slice f + sum t_j Y_j, wedge with the pulled-back
    S-side form on the product chart, fiber-integrate over S, and read the
    result off at t = 0 on the coordinate directions."""
    alpha_f = _as_s_form(alpha, dom)
    n = _pairing_degree(omega, alpha_f, dom)
    p, q = omega.degree, alpha_f.degree
    cz = dom.chart_dim

    def ev(f: MapPoint, tangents) -> float:
        if f.target_dim != omega.ambient_dim:
            raise DimensionMismatch("map target dim != form chart dim")
        # Tf with the tangents appended as columns: (n_nodes, m, k + n)
        J = np.concatenate([f.jacobian()] + [t.vectors[:, :, None] for t in tangents],
                           axis=2)
        chart_dim = cz + n

        def ev_pull(z, vs):
            # pullback of omega under ev(s,t) = f(s) + sum t_j Y_j(s) at t=0
            i = dom.node_index(z[:, :cz])
            return omega.evaluator(f.values[i],
                                   [np.einsum("rij,rj->ri", J[i], v) for v in vs])

        def pr_alpha(z, vs):
            return alpha_f.evaluator(z[:, :cz], [v[:, :cz] for v in vs])

        beta = wedge(Form(p, chart_dim, ev_pull), Form(q, chart_dim, pr_alpha))
        fib = fiber_integrate(product_form(cz, n, beta), dom)
        return float(fib.evaluator(np.zeros((1, n)), list(np.eye(n)[:, None, :]))[0])

    return MapSpaceForm(n, ev, tag=f"hatfib({omega.name},{alpha_f.name})")


def hat_map(omega: Form, dom: SourceDomain) -> MapSpaceForm:
    """Pairing with the constant function 1 (degree drops by dim S)."""
    return hat_pairing(omega, 1.0, dom)


def bar_map(omega: Form, dom: SourceDomain) -> MapSpaceForm:
    """Pairing with the normalized volume form of S (degree preserved)."""
    mu = volume_form(dom.chart_dim, 1.0 / dom.volume)
    w = hat_pairing(omega, mu, dom)
    return replace(w, tag=f"bar({omega.name})")


def bar_map_direct(omega: Form, dom: SourceDomain) -> MapSpaceForm:
    """Direct formula (f; Y^1..Y^p) -> ∫_S ω(Y^1..Y^p) μ with normalized μ;
    must agree with bar_map."""
    sw = dom.signed_weights / dom.volume

    def ev(f: MapPoint, tangents) -> float:
        return float(sw @ omega.evaluator(f.values, [t.vectors for t in tangents]))

    return MapSpaceForm(omega.degree, ev, tag=f"bardirect({omega.name})")


# ---------------------------------------------------------------------------
# group actions and their generators

def pushforward_action(phi: ChartMap, f: MapPoint) -> MapPoint:
    """(φ·f)(x) = φ(f(x)) nodewise."""
    return replace(f, values=phi.rows(f.values))


def pushforward_tangent(phi: ChartMap, Y: MapTangent) -> MapTangent:
    """Tangent map of the push-forward action: Jacobian of φ along f."""
    f = Y.base
    vals = np.einsum("nij,nj->ni", phi.jacobian_rows(f.values), Y.vectors)
    return MapTangent(pushforward_action(phi, f), vals)


def pullback_action(psi: ChartMap, f: MapPoint) -> MapPoint:
    """(ψ·f) = f∘ψ^{-1}, resampled at ψ^{-1}(nodes) by trigonometric
    interpolation on periodic domains (cubic splines on the interval)."""
    if psi.inverse is None:
        raise ValueError("the reparameterization needs an inverse")
    vals = f.dom.resample(f.values, psi.inverse_rows(f.dom.nodes))
    return replace(f, values=vals)


def pullback_tangent(psi: ChartMap, Y: MapTangent) -> MapTangent:
    moved = pullback_action(psi, replace(Y.base, values=Y.vectors))
    return MapTangent(pullback_action(psi, Y.base), moved.values)


def generator_M(X, f: MapPoint) -> MapTangent:
    """Infinitesimal push-forward action of a field on M: X∘f nodewise."""
    return MapTangent(f, as_field(X, f.target_dim).rows(f.values))


def generator_S(Z, f: MapPoint) -> MapTangent:
    """Infinitesimal reparameterization action of a field on S: -(Tf)Z."""
    Tf = f.jacobian()
    if isinstance(Z, np.ndarray) and Z.shape == (f.dom.n_nodes, f.dom.dim):
        zv = Z
    else:
        zv = as_field(Z, f.dom.chart_dim).rows(f.dom.nodes)[:, :f.dom.dim]
    vals = -np.einsum("imk,ik->im", Tf, zv)
    return MapTangent(f, vals)


# ---------------------------------------------------------------------------
# exterior calculus on F(S,M)

def map_space_d(W: MapSpaceForm, step: float = DEFAULT_FD_STEP) -> MapSpaceForm:
    """Exterior derivative on F(S,M) by constant-extension central
    differences (flat targets; no bracket terms):

        dW(Y_0..Y_n)(f) = sum_i (-1)^i D_{Y_i}[ W(Y_0..ŷ_i..Y_n) ](f).
    """
    n = W.degree

    def ev(f: MapPoint, tangents) -> float:
        total = 0.0
        for i in range(n + 1):
            rest = tangents[:i] + tangents[i + 1:]
            fp = f.shifted(step, tangents[i])
            fm = f.shifted(-step, tangents[i])
            wp = W.evaluator(fp, tuple(t.rebased(fp) for t in rest))
            wm = W.evaluator(fm, tuple(t.rebased(fm) for t in rest))
            total += (-1.0) ** i * (wp - wm) / (2.0 * step)
        return total

    return MapSpaceForm(n + 1, ev, tag=f"d({W.tag})")


def map_space_interior(W: MapSpaceForm, T) -> MapSpaceForm:
    """Insertion of a tangent field (a callable f -> MapTangent, e.g. a
    group generator) into the leading slot; on a 0-form this returns the
    zero form by convention."""
    if W.degree == 0:
        return zero_mapspace_form(0, tag=f"i_T({W.tag})")
    tfield = T if callable(T) else (lambda f: T.rebased(f))

    def ev(f: MapPoint, tangents) -> float:
        return W.evaluator(f, (tfield(f),) + tuple(tangents))

    return MapSpaceForm(W.degree - 1, ev, tag=f"i_T({W.tag})")


def map_space_lie(W: MapSpaceForm, T, step: float = DEFAULT_FD_STEP) -> MapSpaceForm:
    """Lie derivative along a tangent field via the Cartan formula."""
    dW = map_space_d(W, step)
    a = map_space_interior(dW, T)
    iW = map_space_interior(W, T)
    if W.degree == 0:
        return replace(a, tag=f"L_T({W.tag})")
    b = map_space_d(iW, step)
    return replace(mapspace_sum(a, b), tag=f"L_T({W.tag})")


def map_space_lie_flow(W: MapSpaceForm, transport, t_step: float = 1e-4) -> MapSpaceForm:
    """Flow route for the Lie derivative: transport(t) must return a pair
    (map action, tangent action) implementing the time-t flow on F(S,M)."""

    def ev(f: MapPoint, tangents) -> float:
        vals = []
        for t in (t_step, -t_step):
            act_f, act_t = transport(t)
            ft = act_f(f)
            ts = tuple(act_t(y, ft) for y in tangents)
            vals.append(W.evaluator(ft, ts))
        return (vals[0] - vals[1]) / (2.0 * t_step)

    return MapSpaceForm(W.degree, ev, tag=f"Lflow({W.tag})")


def pushforward_transport(X: VectorField, flow_steps: int = 64):
    """Transport data for the flow of the push-forward generator of X."""

    def transport(t):
        phi = X.flow(t, flow_steps)

        def act_f(f):
            return pushforward_action(phi, f)

        def act_t(y, ft):
            moved = pushforward_tangent(phi, y)
            return MapTangent(ft, moved.vectors)

        return act_f, act_t

    return transport


def reparam_transport(psi_of_t):
    """Transport data for a reparameterization flow; psi_of_t(t) must return
    the time-t diffeomorphism of S (e.g. a rigid shift)."""

    def transport(t):
        psi = psi_of_t(t)

        def act_f(f):
            return pullback_action(psi, f)

        def act_t(y, ft):
            moved = pullback_tangent(psi, y)
            return MapTangent(ft, moved.vectors)

        return act_f, act_t

    return transport


def action_pullback_M(W: MapSpaceForm, phi: ChartMap) -> MapSpaceForm:
    """Pullback of W under the push-forward action f -> φ∘f (φ need not be
    invertible: this also covers maps into a different target)."""

    def ev(f: MapPoint, tangents) -> float:
        ft = pushforward_action(phi, f)
        moved = tuple(MapTangent(ft, pushforward_tangent(phi, y).vectors)
                      for y in tangents)
        return W.evaluator(ft, moved)

    return MapSpaceForm(W.degree, ev, tag=f"push({phi.name})*{W.tag}")


def action_pullback_S(W: MapSpaceForm, psi: ChartMap) -> MapSpaceForm:
    """Pullback of W under the reparameterization action f -> f∘ψ^{-1}."""

    def ev(f: MapPoint, tangents) -> float:
        ft = pullback_action(psi, f)
        moved = tuple(MapTangent(ft, pullback_tangent(psi, y).vectors)
                      for y in tangents)
        return W.evaluator(ft, moved)

    return MapSpaceForm(W.degree, ev, tag=f"reparam({psi.name})*{W.tag}")


# ---------------------------------------------------------------------------
# boundary restriction

def restrict_boundary(f: MapPoint) -> MapPoint:
    """Restriction of a map on the interval to the signed endpoint pair."""
    bdom = f.dom.boundary()
    if bdom is None:
        raise ValueError("the domain has no boundary")
    return MapPoint(bdom, f.values[bdom.parent_indices], f.periodic_target)


def boundary_pullback(W_boundary: MapSpaceForm) -> MapSpaceForm:
    """Pullback along the restriction map F(S,M) -> F(∂S,M)."""

    def ev(f: MapPoint, tangents) -> float:
        fb = restrict_boundary(f)
        moved = tuple(MapTangent(fb, y.vectors[fb.dom.parent_indices])
                      for y in tangents)
        return W_boundary.evaluator(fb, moved)

    return MapSpaceForm(W_boundary.degree, ev, tag=f"r_bd*({W_boundary.tag})")
