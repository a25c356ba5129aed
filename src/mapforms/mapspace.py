"""The discretized manifold of smooth maps F(S,M) and its calculus.

A map point is a node-indexed sample of f: S -> R^m; a tangent vector is a
node-indexed vector field along f.  Differential forms on F(S,M) are
evaluators on stacks of map points with one tangent array per slot, so that
the shifted maps of a finite difference are evaluated together.  Every
map-space quantity is such a form: pairings, group-action pull-backs, the
derivatives d, i and L, and the momenta of mechanics (0-forms).

The central constructions are the two routes to the pairing of a form on M
with a form on S:

* the pointwise route integrates the restricted pull-back of the contracted
  form wedged with the S-side form, using the spectrally computed tangent
  map of f;
* the fiber route builds the pulled-back product form on S x R^n along the
  span of the supplied tangents (constant extension) and feeds it to the
  generic fiber integration.  It is the definitional oracle the pointwise
  route is validated against.

Targets are flat charts: a torus-valued map must be lifted to its covering
chart first.  So exterior calculus on F(S,M) is the chart formula of
forms.alternating_differences, with constant-extension central differences
of whole maps.  The Lie derivative has a second, flow route: the central
difference in t of the forms pulled back by the time-t action.  The
momenta of mechanics are bar_map_direct of 0-forms.  Only the fiber-route
oracle evaluates a stack map by map.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .charts import DEFAULT_FD_STEP, ChartMap, DimensionMismatch, as_field
from .domains import ScalarField, SourceDomain, warn_if_rough
from .forms import (DegreeError, Form, alternating_differences, broadcast_rows,
                    check_t_step, constant_form, fiber_integrate, shuffles,
                    volume_form, wedge)

Array = np.ndarray


@dataclass(frozen=True)
class MapPoint:
    """A discretized element of F(S,M): one target point per node."""

    dom: SourceDomain
    values: Array

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


@dataclass(frozen=True)
class MapStack:
    """B maps on one domain, values (B, n_nodes, m): the argument of every
    map-space form evaluator.  Stacks are built from validated map points
    and their shifts, so they carry no finiteness check of their own."""

    dom: SourceDomain
    values: Array

    def __post_init__(self):
        if self.values.ndim != 3 or self.values.shape[1] != self.dom.n_nodes:
            raise ValueError("stack values must be (B, n_nodes, target_dim)")

    @classmethod
    def of(cls, f: MapPoint) -> "MapStack":
        """The stack of the single map f."""
        return cls(f.dom, f.values[None])

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @property
    def target_dim(self) -> int:
        return self.values.shape[2]

    def point(self, b: int) -> MapPoint:
        return MapPoint(self.dom, self.values[b])

    def jacobian(self) -> Array:
        """Tangent maps of every map of the stack, shape (B, n_nodes, m, k)."""
        return self.dom.map_jacobian(self.values)

    def as_rows(self, arr: Array) -> Array:
        """A stacked nodal array (B, n_nodes, ...) as rows (B * n_nodes, ...)."""
        return arr.reshape((-1,) + arr.shape[2:])

    def from_rows(self, arr: Array) -> Array:
        """Rows (B * n_nodes, ...) back to a stacked array (B, n_nodes, ...)."""
        return arr.reshape((self.size, self.dom.n_nodes) + arr.shape[1:])


@dataclass(frozen=True)
class MapTangent:
    """A vector field along a map point: one target vector per node.  A
    tangent based at a MapStack holds one field per map, (B, n_nodes, m)."""

    base: MapPoint
    vectors: Array

    def __post_init__(self):
        if self.vectors.shape != self.base.values.shape:
            raise ValueError("tangent vectors must match the base node set")

    def rebased(self, f: MapPoint) -> "MapTangent":
        return MapTangent(f, self.vectors)


@dataclass(frozen=True)
class MapSpaceForm:
    """A differential n-form on F(S,M) as an evaluator plus a tag.

    evaluator(F, tangents) takes a MapStack F of B maps and n tangent
    arrays, each (B, n_nodes, m) with row b along map b, and returns the B
    values (B,).  Calling the form on one map point and its tangents
    evaluates a stack of one."""

    degree: int
    evaluator: Callable[[MapStack, tuple], Array]
    tag: str = ""

    def __call__(self, f: MapPoint, *tangents: MapTangent) -> float:
        if len(tangents) != self.degree:
            raise DegreeError(
                f"{self.tag or 'form'} of degree {self.degree} evaluated on "
                f"{len(tangents)} tangents")
        ts = tuple(t.vectors[None] for t in tangents)
        return float(self.evaluator(MapStack.of(f), ts)[0])


def map_from_function(dom: SourceDomain, func, target_dim: int) -> MapPoint:
    """The map point of a row function, one call func(dom.nodes) -> (n_nodes, m)."""
    vals = np.asarray(func(dom.nodes), dtype=float).reshape(dom.n_nodes, target_dim)
    warn_if_rough(dom, vals)
    return MapPoint(dom, vals)


def zero_mapspace_form(degree: int, tag: str) -> MapSpaceForm:
    return MapSpaceForm(degree, lambda F, ts: np.zeros(F.size), tag=tag)


def mapspace_sum(*forms: MapSpaceForm) -> MapSpaceForm:
    degs = {w.degree for w in forms}
    if len(degs) != 1:
        raise DegreeError("mapspace_sum needs forms of equal degree")
    fs = list(forms)

    def ev(F, ts):
        return sum(w.evaluator(F, ts) for w in fs)

    return MapSpaceForm(fs[0].degree, ev, tag="+".join(w.tag for w in fs))


def mapspace_scale(c: float, w: MapSpaceForm) -> MapSpaceForm:
    return MapSpaceForm(w.degree, lambda F, ts: c * w.evaluator(F, ts),
                        tag=f"{c:g}*{w.tag}")


# ---------------------------------------------------------------------------
# the pairing, pointwise route

def check_grid(data, dom: SourceDomain) -> None:
    """Raise DimensionMismatch unless data (a map stack, map point or nodal
    field) is sampled on the grid of dom: the same structure and shape, not
    just the same node count."""
    if (data.dom.periods, data.dom.dim, data.dom.shape) != (dom.periods, dom.dim, dom.shape):
        raise DimensionMismatch(f"data sampled on the {data.dom.kind} grid {data.dom.shape}, "
                                f"not on {dom.kind} {dom.shape}")


def _as_s_form(alpha, dom: SourceDomain) -> Form:
    if isinstance(alpha, ScalarField):
        check_grid(alpha, dom)
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
    """The integrand of the pointwise route at every node of every map of a
    stack, before the quadrature weights: density(F, [Y^1..Y^n as
    (B, n_nodes, m) arrays]) has shape (B, n_nodes), and its value at a node
    sees only that map's tangent values at that node.  Tf of the whole stack
    comes from one differentiation, and the shuffle terms sharing all but
    their last Tf column fold into one ω call on all B * n_nodes rows, since
    Σ_s sign_s α_s ω(.., ∂_{j_s} f) = ω(.., Σ_s sign_s α_s ∂_{j_s} f): one
    call for k <= 2, two for (k, q) = (3, 1)."""
    k, q = dom.dim, alpha_f.degree
    frame = [broadcast_rows(e, dom.nodes) for e in np.eye(dom.chart_dim)]
    groups = {}  # shared Tf columns -> [(last column, sign * α at the nodes)]
    for left, right, sign in shuffles(k - q, q):  # Tf columns to ω, frame to α
        al = sign * alpha_f.evaluator(dom.nodes, [frame[b] for b in right])
        groups.setdefault(left[:-1], []).append((left[-1:], al))

    def density(F: MapStack, tang) -> Array:
        check_grid(F, dom)
        if F.target_dim != omega.ambient_dim:
            raise DimensionMismatch("map target dim != form chart dim")
        x, ys = F.as_rows(F.values), [F.as_rows(t) for t in tang]
        if q == k:
            (_, al), = groups[()]
            return F.from_rows(omega.evaluator(x, ys)) * al
        Tf = F.jacobian()
        acc = 0.0
        for shared, terms in groups.items():
            last = sum(Tf[..., j] * al[:, None] for (j,), al in terms)
            cols = [F.as_rows(Tf[..., a]) for a in shared] + [F.as_rows(last)]
            acc = acc + omega.evaluator(x, ys + cols)
        return F.from_rows(acc)

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

    def ev(F: MapStack, tangents) -> Array:
        return np.array([sw @ d for d in density(F, tangents)])

    return MapSpaceForm(n, ev, tag=f"hat({omega.name},{alpha_f.name})")


def hat_gram(omega: Form, alpha, dom: SourceDomain, f: MapPoint) -> Array:
    """Gram matrix at f of the degree-2 pairing hat_pairing(omega, alpha) on
    the nodal tangent basis, ordered node-major.  It is block diagonal: the
    block of node l is the weighted integrand at l on pairs of coordinate
    vectors, so one integrand evaluation on the m^2 pairs, stacked, replaces
    (n m)^2 pairings."""
    alpha_f = _as_s_form(alpha, dom)
    if _pairing_degree(omega, alpha_f, dom) != 2:
        raise DegreeError("a Gram matrix needs a pairing of degree 2")
    density = _hat_density(omega, alpha_f, dom)
    n, m = f.values.shape
    F = MapStack(f.dom, np.broadcast_to(f.values, (m * m, n, m)))
    e = np.broadcast_to(np.eye(m)[:, None, :], (m, n, m))
    ea, eb = np.repeat(e, m, axis=0), np.tile(e, (m, 1, 1))  # pair (a, b) at a * m + b
    blocks = density(F, [ea, eb]).reshape(m, m, n)
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
    result off at t = 0 on the coordinate directions.  The oracle builds
    its product form per map, so a stack is evaluated map by map."""
    alpha_f = _as_s_form(alpha, dom)
    n = _pairing_degree(omega, alpha_f, dom)
    p, q = omega.degree, alpha_f.degree
    cz = dom.chart_dim

    def value(f: MapPoint, vectors) -> float:
        # Tf with the tangents appended as columns: (n_nodes, m, k + n)
        J = np.concatenate([f.jacobian()] + [v[:, :, None] for v in vectors], axis=2)
        chart_dim = cz + n

        def ev_pull(z, vs):
            # pullback of omega under ev(s,t) = f(s) + sum t_j Y_j(s) at t=0
            i = dom.node_index(z[:, :cz])
            return omega.evaluator(f.values[i],
                                   [np.einsum("rij,rj->ri", J[i], v) for v in vs])

        def pr_alpha(z, vs):
            return alpha_f.evaluator(z[:, :cz], [v[:, :cz] for v in vs])

        beta = wedge(Form(p, chart_dim, ev_pull), Form(q, chart_dim, pr_alpha))
        fib = fiber_integrate(beta, dom)
        return fib.evaluator(np.zeros((1, n)), list(np.eye(n)[:, None, :]))[0]

    def ev(F: MapStack, tangents) -> Array:
        check_grid(F, dom)
        if F.target_dim != omega.ambient_dim:
            raise DimensionMismatch("map target dim != form chart dim")
        return np.array([value(F.point(b), [t[b] for t in tangents])
                         for b in range(F.size)])

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
    must agree with bar_map.  On a 0-form ω = h this is the average of h
    along the map, the momenta of mechanics."""
    sw = dom.signed_weights / dom.volume

    def ev(F: MapStack, tangents) -> Array:
        check_grid(F, dom)
        if F.target_dim != omega.ambient_dim:
            raise DimensionMismatch("map target dim != form chart dim")
        vals = F.from_rows(omega.evaluator(F.as_rows(F.values),
                                           [F.as_rows(t) for t in tangents]))
        return np.array([sw @ v for v in vals])

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
    interpolation; only periodic domains resample."""
    vals = f.dom.resample(f.values, psi.inverse_rows(f.dom.nodes))
    return replace(f, values=vals)


def generator_M(X, f) -> MapTangent:
    """Infinitesimal push-forward action of a field on M: X∘f nodewise.  f
    is a map point or a MapStack; the tangent is based at f."""
    vals = as_field(X, f.target_dim).rows(f.values.reshape(-1, f.target_dim))
    return MapTangent(f, np.reshape(vals, f.values.shape))


def generator_S(Z, f) -> MapTangent:
    """Infinitesimal reparameterization action of a field on S: -(Tf)Z.  f
    is a map point or a MapStack; the tangent is based at f."""
    Tf = f.jacobian()
    if isinstance(Z, np.ndarray) and Z.shape == (f.dom.n_nodes, f.dom.dim):
        zv = Z
    else:
        zv = as_field(Z, f.dom.chart_dim).rows(f.dom.nodes)[:, :f.dom.dim]
    vals = -np.einsum("...imk,ik->...im", Tf, zv)
    return MapTangent(f, vals)


# ---------------------------------------------------------------------------
# exterior calculus on F(S,M)

def map_space_d(W: MapSpaceForm, step: float = DEFAULT_FD_STEP) -> MapSpaceForm:
    """Exterior derivative on F(S,M) by constant-extension central
    differences (flat targets; no bracket terms):

        dW(Y_0..Y_n)(f) = sum_i (-1)^i D_{Y_i}[ W(Y_0..ŷ_i..Y_n) ](f),

    the chart formula of forms.alternating_differences with the maps of a
    stack as points: all 2(n+1) shifts of every map go to W in one call.
    """
    check_t_step(step, "step")

    def ev(F: MapStack, tangents) -> Array:
        return alternating_differences(
            lambda vals, rest: W.evaluator(replace(F, values=vals), tuple(rest)),
            F.values, tangents, step)

    return MapSpaceForm(W.degree + 1, ev, tag=f"d({W.tag})")


def map_space_interior(W: MapSpaceForm, T) -> MapSpaceForm:
    """Insertion of a tangent field into the leading slot: T is a callable
    taking a MapStack to a MapTangent along it (e.g. a group generator).
    On a 0-form this returns the zero form by convention."""
    if W.degree == 0:
        return zero_mapspace_form(0, f"i_T({W.tag})")

    def ev(F: MapStack, tangents) -> Array:
        return W.evaluator(F, (T(F).vectors,) + tuple(tangents))

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


MAP_SPACE_FLOW_STEP = 1e-4  # the time step t of map_space_lie_flow


def map_space_lie_flow(pulled_back) -> MapSpaceForm:
    """Flow route for the Lie derivative: the central difference at t =
    MAP_SPACE_FLOW_STEP of pulled_back(t), the form pulled back by the
    time-t flow of an action, e.g. lambda t: action_pullback_M(W,
    X.flow(t, 1)) for the push-forward generator of X, one RK4 step per
    sign (an O(t^4) error, below the O(t^2) of the quotient), or lambda t:
    action_pullback_S(W, psi_t) for a reparameterization flow psi_t.  No
    step uses the Cartan formula (the counterpart of lie_derivative_flow)."""
    t = MAP_SPACE_FLOW_STEP
    fwd, bwd = pulled_back(t), pulled_back(-t)

    def ev(F: MapStack, tangents) -> Array:
        return (fwd.evaluator(F, tangents) - bwd.evaluator(F, tangents)) / (2.0 * t)

    return MapSpaceForm(fwd.degree, ev, tag=f"Lflow({fwd.tag})")


def action_pullback_M(W: MapSpaceForm, phi: ChartMap) -> MapSpaceForm:
    """Pullback of W under the push-forward action f -> φ∘f (φ need not be
    invertible: this also covers maps into a different target).  φ and its
    Jacobian are evaluated once on the rows of the whole stack."""

    def ev(F: MapStack, tangents) -> Array:
        x = F.as_rows(F.values)
        y, J = phi.rows(x), phi.jacobian_rows(x)
        moved = tuple(F.from_rows(np.einsum("nij,nj->ni", J, F.as_rows(t)))
                      for t in tangents)
        return W.evaluator(replace(F, values=F.from_rows(y)), moved)

    return MapSpaceForm(W.degree, ev, tag=f"push({phi.name})*{W.tag}")


def action_pullback_S(W: MapSpaceForm, psi: ChartMap) -> MapSpaceForm:
    """Pullback of W under the reparameterization action f -> f∘ψ^{-1}; the
    maps and tangents of a stack are resampled one by one at the same
    points ψ^{-1}(nodes)."""

    def ev(F: MapStack, tangents) -> Array:
        pts = psi.inverse_rows(F.dom.nodes)

        def moved(arr):
            return np.stack([F.dom.resample(a, pts) for a in arr])

        return W.evaluator(replace(F, values=moved(F.values)),
                           tuple(moved(t) for t in tangents))

    return MapSpaceForm(W.degree, ev, tag=f"reparam({psi.name})*{W.tag}")


# ---------------------------------------------------------------------------
# boundary restriction

def boundary_pullback(W_boundary: MapSpaceForm) -> MapSpaceForm:
    """Pullback along the restriction map F(S,M) -> F(∂S,M)."""

    def ev(F: MapStack, tangents) -> Array:
        bdom = F.dom.boundary()
        if bdom is None:
            raise ValueError("the domain has no boundary")
        idx = bdom.parent_indices
        return W_boundary.evaluator(MapStack(bdom, F.values[:, idx]),
                                    tuple(t[:, idx] for t in tangents))

    return MapSpaceForm(W_boundary.degree, ev, tag=f"r_bd*({W_boundary.tag})")
