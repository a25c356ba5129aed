"""Momentum maps and their non-equivariance cocycles on the map space.

A hamiltonian action on F(S,M) is one HamiltonianAction: the symplectic
pairing omega_bar induced by a symplectic form on M and a normalized volume
form on S, and three callables on algebra elements, the generator
f -> xi_F(f), the momentum 0-form <J, xi> and the bracket.  The momentum
identity i_{xi_F} omega_bar = d<J, xi>, the defining cocycle
<J(f), [xi, eta]> - omega_bar(xi_F, eta_F)(f) and the cyclic Jacobi sum are
written once, against any action.  Three actions are built:

* lifted_action: a finite-dimensional group acting on M with a known
  momentum map, lifted by averaging along the map (coefficient vectors);
* diffham_action: hamiltonian diffeomorphisms of M, with Hamiltonians
  normalized to vanish at a fixed base point (HamiltonianPairs);
* diffex_action: exact volume preserving diffeomorphisms of S (stream
  functions on the 2-torus), with potentials fixed by the zero-mean right
  inverse of d.

Their closed-form cocycles cocycle_lifted_base, cocycle_diffham and
cocycle_diffex are the other side of each dual-route check.  Sign
conventions: hamiltonian fields satisfy i_{X_h} ω = dh, and each action's
bracket, the one place that fixes it, is the opposite of the Jacobi-Lie
bracket of the generators (the usual left-action convention).

The chapter also holds the volume-integral cocycle on divergence-free
fields, the twist-closedness check for open-string boundary data, and the
commuting-action demonstration.  Each map-space quantity here is a
pairing of mapspace (bar_map_direct, hat_pairing) or a pull-back of one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .catalog import random_map, random_stream, random_tangent, rigid_shift_2d
from .charts import (DEFAULT_FD_STEP, ChartMap, VectorField, affine_field,
                     affine_map, constant_field)
from .domains import (ScalarField, SourceDomain, exact_divfree_field,
                      projection_P, right_inverse_b)
from .forms import (DegreeError, Form, ScalarFunc, broadcast_rows,
                    exterior_derivative, integrate, pullback,
                    sample_difference, scalar_coordinate, volume_form)
from .mapspace import (MapPoint, MapSpaceForm, MapStack, MapTangent,
                       action_pullback_M, bar_map, bar_map_direct,
                       boundary_pullback, generator_M, generator_S, hat_pairing,
                       hat_map, map_space_d, pullback_action, pushforward_action)

# Gauss-Legendre points of the line integral in hamiltonian_of
HAMILTONIAN_QUAD_POINTS = 24
# HamiltonianSystem.validate: the catalog residual bound and the points drawn per pair
CATALOG_TOL = 1e-8
CATALOG_SAMPLES = 12
# twist check: the i*H = dB and boundary-data gates, and the closedness tolerance
TWIST_GATE_TOL = 1e-8
TWIST_TOL = 1e-5

Array = np.ndarray


# ---------------------------------------------------------------------------
# hamiltonian systems on a flat symplectic chart

@dataclass(frozen=True)
class HamiltonianPair:
    """A cataloged hamiltonian function (normalized at the base point) and
    its field, with analytic derivatives for trustworthy brackets."""

    name: str
    h: ScalarFunc
    field: VectorField


@dataclass(frozen=True)
class HamiltonianSystem:
    """A constant-coefficient symplectic chart R^{2n} with a base point and
    a catalog of hamiltonian pairs satisfying i_{X_h} omega = dh."""

    omega: Form
    omega_matrix: Array
    base_point: Array
    catalog: tuple

    @property
    def dim(self) -> int:
        return self.base_point.size

    def pair(self, name: str) -> HamiltonianPair:
        for p in self.catalog:
            if p.name == name:
                return p
        raise KeyError(f"no hamiltonian pair named {name!r}")

    def validate(self, rng: np.random.Generator) -> None:
        """Raise unless i_{X_h} omega = dh holds over the catalog and the
        coefficient matrix is nondegenerate."""
        if abs(np.linalg.det(self.omega_matrix)) < 1e-12:
            raise ValueError("symplectic coefficient matrix is singular")
        worst = 0.0
        for p in self.catalog:
            # one (x, v) pair per sample, drawn x first
            x, v = np.moveaxis(rng.uniform(-1.0, 1.0, (CATALOG_SAMPLES, 2, self.dim)), 1, 0)
            lhs = self.omega.evaluator(x, [p.field.rows(x), v])
            rhs = np.einsum("ni,ni->n", p.h.grad(x), v)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))), abs(p.h(self.base_point)))
        if worst > CATALOG_TOL:
            raise ValueError(f"catalog residual {worst:.3e} exceeds {CATALOG_TOL:.1e}")


def hamiltonian_field_r2(h: ScalarFunc, name: str) -> HamiltonianPair:
    """On (R^2, dx∧dy), i_{X_h}(dx∧dy) = dh gives X_h = (∂_y h, -∂_x h)."""

    def func(x):
        g = h.grad(x)
        return np.stack([g[:, 1], -g[:, 0]], axis=-1)

    jac = None
    if h.hess is not None:
        def jac(x):
            H = h.hess(x)
            return np.stack([H[:, 1], -H[:, 0]], axis=1)

    return HamiltonianPair(name, h, VectorField(func, 2, jacobian_func=jac,
                                                name=f"X_{name}", batched=True))


def canonical_r2() -> HamiltonianSystem:
    """(R^2, dx∧dy) with base point 0 and a polynomial/trig catalog."""
    omega = volume_form(2)
    pairs = [
        hamiltonian_field_r2(scalar_coordinate(0, 2), "x"),
        hamiltonian_field_r2(scalar_coordinate(1, 2), "y"),
        hamiltonian_field_r2(ScalarFunc(
            lambda x: x[..., 0] * x[..., 1],
            lambda x: np.stack([x[..., 1], x[..., 0]], axis=-1),
            lambda x: broadcast_rows([[0.0, 1.0], [1.0, 0.0]], x)), "xy"),
        hamiltonian_field_r2(ScalarFunc(
            lambda x: 0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2),
            lambda x: np.array(x, dtype=float), lambda x: broadcast_rows(np.eye(2), x)),
            "r2/2"),
        hamiltonian_field_r2(ScalarFunc(
            lambda x: np.sin(x[..., 0]),
            lambda x: np.stack([np.cos(x[..., 0]), 0.0 * x[..., 1]], axis=-1),
            lambda x: -np.sin(x[..., 0, None, None]) * [[1.0, 0.0], [0.0, 0.0]]), "sin_x"),
    ]
    return HamiltonianSystem(omega, np.array([[0.0, 1.0], [-1.0, 0.0]]),
                             np.zeros(2), tuple(pairs))


@functools.lru_cache(maxsize=None)
def _line_rule() -> tuple:
    """The Gauss-Legendre rule of hamiltonian_of on [0, 1], (nodes, weights),
    computed on first use and kept."""
    nodes, weights = np.polynomial.legendre.leggauss(HAMILTONIAN_QUAD_POINTS)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def hamiltonian_of(sys: HamiltonianSystem, X: VectorField) -> Callable[[Array], Array]:
    """Normalized Hamiltonian of a field by line integration from the base
    point: h(x) = ∫_0^1 omega(X(γ(t)), γ'(t)) dt along the straight segment.
    Independent of the catalog; used as the bracket-side oracle.  Batched
    like ScalarFunc.value: points (N, dim) give values (N,)."""
    t, w = _line_rule()
    x0 = sys.base_point

    def h(x):
        seg = x - x0
        # every quadrature point of every segment, quadrature-major
        y = (x0 + t[:, None, None] * seg).reshape(-1, x0.size)
        segs = np.tile(seg, (len(t), 1))
        vals = sys.omega.evaluator(y, [X.rows(y), segs]).reshape(len(t), len(seg))
        return w @ vals

    return h


def opposite_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """The Lie algebra bracket used in the cocycle pairings: the opposite of
    the Jacobi-Lie bracket of the generators."""
    b = X.bracket(Y)
    return VectorField(lambda x: -b.rows(x), X.dim,
                       jacobian_func=(lambda x: -b.jacobian_rows(x)),
                       name=f"op[{X.name},{Y.name}]", batched=True)


# ---------------------------------------------------------------------------
# hamiltonian actions on F(S,M)

@dataclass(frozen=True)
class HamiltonianAction:
    """A hamiltonian action of a Lie algebra on F(S,M) with its symplectic
    form omega_bar.  generator(xi) takes a map point or a MapStack f to the
    tangent xi_F(f), momentum(xi) is the 0-form <J, xi>, and bracket(xi,
    eta) is the algebra bracket.  What an element is belongs to the
    action."""

    omega_bar: MapSpaceForm
    generator: Callable[[object], Callable]
    momentum: Callable[[object], MapSpaceForm]
    bracket: Callable[[object, object], object]


def momentum_identity_residual(action: HamiltonianAction, xi, f: MapPoint,
                               Y: MapTangent) -> Callable[[float], float]:
    """|omega_bar(xi_F(f), Y) - d<J, xi>(Y)(f)| as a function of the FD step
    of the differential on F(S,M): the defining property of a momentum
    map.  The left-hand side does not depend on the step and is evaluated
    once."""
    J = action.momentum(xi)
    lhs = action.omega_bar(f, action.generator(xi)(f), Y)
    return lambda step: abs(lhs - map_space_d(J, step)(f, Y))


def cocycle_defining(action: HamiltonianAction, xi, eta) -> MapSpaceForm:
    """The defining difference <J(f), [xi, eta]> - omega_bar(xi_F, eta_F)(f)
    as a 0-form on F(S,M), with the bracket, its momentum and both
    generators built once; it does not depend on f."""
    J = action.momentum(action.bracket(xi, eta))
    gen_xi, gen_eta = action.generator(xi), action.generator(eta)

    def ev(F: MapStack, tangents) -> Array:
        return J.evaluator(F, ()) - action.omega_bar.evaluator(
            F, (gen_xi(F).vectors, gen_eta(F).vectors))

    return MapSpaceForm(0, ev, tag="cocycle")


def cocycle_jacobi_sum(action: HamiltonianAction, sigma: Callable, u, v, w) -> float:
    """sigma([u,v],w) + sigma([v,w],u) + sigma([w,u],v) with the action's
    bracket: zero when sigma is a Lie algebra 2-cocycle."""
    return sum(sigma(action.bracket(a, b), c) for a, b, c in ((u, v, w), (v, w, u), (w, u, v)))


def _averaged(h: ScalarFunc, dim: int, dom: SourceDomain) -> MapSpaceForm:
    """The 0-form f -> ∫_S (h∘f) μ with the normalized volume μ."""
    return bar_map_direct(Form(0, dim, lambda x, vs: h.value(x)), dom)


# ---------------------------------------------------------------------------
# lifted action of a finite-dimensional group

@dataclass(frozen=True)
class LiftedGAction:
    """Generators of a hamiltonian G-action on M with momentum components
    and structure constants: bracket(e_i, e_j) = sum_k structure[i,j,k] e_k.
    Algebra elements are coefficient vectors on this basis."""

    names: tuple
    generators: tuple          # VectorField per basis element
    momenta: tuple             # ScalarFunc per basis element
    structure: Array           # (g, g, g) structure constants

    def bracket(self, u: Array, v: Array) -> Array:
        """[u, v] = sum_ijk u_i v_j structure[i,j,k] e_k."""
        return np.einsum("i,j,ijk->k", u, v, self.structure)

    def field(self, c: Array) -> VectorField:
        """The field of the element c on M: sum_k c_k X_k."""
        gens = self.generators
        return VectorField(lambda x: sum(ck * X.rows(x) for ck, X in zip(c, gens)),
                           gens[0].dim, batched=True)


def se2_action() -> LiftedGAction:
    """Rotations and translations of the plane with the standard momenta
    for dx∧dy; the translation pair carries the nonvanishing cocycle."""
    zero2 = np.zeros((2, 2))
    rot = affine_field([[0.0, -1.0], [1.0, 0.0]], name="rot")
    tx = constant_field([1.0, 0.0], name="tx")
    ty = constant_field([0.0, 1.0], name="ty")
    J_rot = ScalarFunc(lambda x: -0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2),
                       lambda x: -x, lambda x: broadcast_rows(-np.eye(2), x))
    J_tx = scalar_coordinate(1, 2)
    J_ty = ScalarFunc(lambda x: -x[..., 0], lambda x: broadcast_rows([-1.0, 0.0], x),
                      lambda x: broadcast_rows(zero2, x))
    # [rot,tx] = ty, [rot,ty] = -tx, [tx,ty] = 0 (left-action convention)
    C = np.zeros((3, 3, 3))
    C[0, 1, 2], C[1, 0, 2] = 1.0, -1.0
    C[0, 2, 1], C[2, 0, 1] = -1.0, 1.0
    return LiftedGAction(("rot", "tx", "ty"), (rot, tx, ty),
                         (J_rot, J_tx, J_ty), C)


def momentum_lifted(group: LiftedGAction, dom: SourceDomain, c: Array) -> MapSpaceForm:
    """The 0-form <Jbar, c>: the base momenta averaged along the map with
    the normalized volume, so a constant map returns the base momentum
    exactly, and combined with the coefficients c.  Only the momenta of
    nonzero coefficients are evaluated, so a basis vector costs one
    average."""
    terms = [(ck, _averaged(J, group.generators[0].dim, dom))
             for ck, J in zip(c, group.momenta) if ck != 0.0]

    def ev(F: MapStack, ts) -> Array:
        return sum((ck * J.evaluator(F, ts) for ck, J in terms), np.zeros(F.size))

    return MapSpaceForm(0, ev, tag="J_lifted")


def lifted_action(group: LiftedGAction, sys: HamiltonianSystem,
                  dom: SourceDomain) -> HamiltonianAction:
    """The action of group on M pushed forward to F(S,M), with the averaged
    momenta; the bracket is the structure constants'."""
    return HamiltonianAction(bar_map(sys.omega, dom),
                             lambda c: functools.partial(generator_M, group.field(c)),
                             lambda c: momentum_lifted(group, dom, c), group.bracket)


def cocycle_lifted_base(group: LiftedGAction, sys: HamiltonianSystem,
                        u: Array, v: Array) -> float:
    """The base cocycle sigma(u, v) = <J, [u, v]> - omega(u_M, v_M) at the
    base point of M."""
    x = sys.base_point
    term1 = float(group.bracket(u, v) @ [J(x) for J in group.momenta])
    return term1 - sys.omega(x, group.field(u)(x), group.field(v)(x))


# ---------------------------------------------------------------------------
# hamiltonian diffeomorphisms of M

def momentum_diffham(sys: HamiltonianSystem, dom: SourceDomain,
                     pair: HamiltonianPair) -> MapSpaceForm:
    """The 0-form <J, X_h>: f -> ∫_S (h∘f) μ with normalized μ and
    h(base point) = 0."""
    if abs(pair.h(sys.base_point)) > 1e-10:
        raise ValueError(f"hamiltonian {pair.name!r} not normalized at the base point")
    return _averaged(pair.h, sys.dim, dom)


def diffham_action(sys: HamiltonianSystem, dom: SourceDomain) -> HamiltonianAction:
    """Hamiltonian diffeomorphisms of M pushed forward to F(S,M).  The
    bracket of two pairs is the opposite_bracket field with its Hamiltonian
    recovered by line integration, independent of the catalog."""

    def bracket(p: HamiltonianPair, q: HamiltonianPair) -> HamiltonianPair:
        b = opposite_bracket(p.field, q.field)
        return HamiltonianPair(f"[{p.name},{q.name}]", ScalarFunc(hamiltonian_of(sys, b)), b)

    return HamiltonianAction(bar_map(sys.omega, dom),
                             lambda p: functools.partial(generator_M, p.field),
                             lambda p: momentum_diffham(sys, dom, p), bracket)


def cocycle_diffham(sys: HamiltonianSystem, X: HamiltonianPair,
                    Y: HamiltonianPair) -> float:
    """sigma(X,Y) = -omega(X,Y)(base point)."""
    x0 = sys.base_point
    return -sys.omega(x0, X.field(x0), Y.field(x0))


# ---------------------------------------------------------------------------
# exact volume preserving diffeomorphisms of S (2-torus stream functions)

@dataclass(frozen=True)
class ExactTwoForm:
    """An exact 2-form on R^m; building it from a primitive is the
    exactness gate."""

    form: Form


def exact_two_form(potential: Form) -> ExactTwoForm:
    if potential.degree != 1:
        raise DegreeError("the primitive of an exact 2-form must be a 1-form")
    if potential.analytic_d is None:
        raise ValueError("the primitive needs an analytic differential")
    return ExactTwoForm(potential.analytic_d)


def stream_generator(dom: SourceDomain, alpha: ScalarField):
    """The infinitesimal reparameterization generator of the divergence-free
    field of a stream function, for the normalized volume on S."""
    return functools.partial(generator_S, dom.volume * exact_divfree_field(dom, alpha))


def pullback_coefficient(f, omega: Form) -> Array:
    """Nodal coefficient of f*omega on the 2-torus (against dx∧dy): shape
    (n_nodes,) for a map point, (B, n_nodes) for a MapStack: the direct
    route of diffex_routes."""
    Tf, m = f.jacobian(), f.target_dim
    vals = omega.evaluator(f.values.reshape(-1, m),
                           [Tf[..., 0].reshape(-1, m), Tf[..., 1].reshape(-1, m)])
    return vals.reshape(f.values.shape[:-1])


def diffex_routes(omega: ExactTwoForm, dom: SourceDomain, alpha: ScalarField):
    """Both routes to <J(f), X_alpha> = ∫_S f*omega ∧ b(d alpha) for every
    map of a stack, with the zero-mean potential solved once: the generic
    pairing machinery and the direct nodal quadrature."""
    potential = right_inverse_b(dom, alpha.d_components())
    pairing = hat_pairing(omega.form, potential, dom)
    sw = dom.signed_weights

    def routes(F: MapStack) -> tuple:
        coeff = pullback_coefficient(F, omega.form)
        direct = [float(np.sum(sw * c * potential.values)) for c in coeff]
        return pairing.evaluator(F, ()), np.array(direct)

    return routes


def momentum_diffex(omega: ExactTwoForm, dom: SourceDomain,
                    alpha: ScalarField) -> MapSpaceForm:
    """The 0-form <J, X_alpha> on F(S,M), with the zero-mean potential:
    the pairing route of diffex_routes, whose direct nodal quadrature the
    momentum-diffex-value record compares with it."""
    potential = right_inverse_b(dom, alpha.d_components())
    return replace(hat_pairing(omega.form, potential, dom), tag="J_diffex")


def stream_bracket(dom: SourceDomain, a1: ScalarField, a2: ScalarField) -> ScalarField:
    """Stream function of the algebra bracket of the two generators (the
    opposite Jacobi-Lie convention): the volume of S times the Poisson
    bracket ∂_x a1 ∂_y a2 - ∂_y a1 ∂_x a2, in the zero-mean gauge of
    random_stream and right_inverse_b."""
    d1, d2 = a1.d_components(), a2.d_components()
    vals = dom.volume * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    return ScalarField(dom, vals - vals.mean())


def diffex_action(omega: ExactTwoForm, dom: SourceDomain) -> HamiltonianAction:
    """Exact volume preserving diffeomorphisms of S = T^2 acting on F(S,M)
    by reparameterization, elements given by their stream functions."""
    return HamiltonianAction(bar_map(omega.form, dom),
                             lambda alpha: stream_generator(dom, alpha),
                             lambda alpha: momentum_diffex(omega, dom, alpha),
                             lambda a1, a2: stream_bracket(dom, a1, a2))


def cocycle_diffex(omega: ExactTwoForm, dom: SourceDomain, a1: ScalarField,
                   a2: ScalarField) -> MapSpaceForm:
    """sigma(X_{a1}, X_{a2}) = ∫_S f*omega ∧ P(i_{X_1} i_{X_2} mu) as a
    0-form on F(S,M): the pairing of momentum_diffex with the doubly
    contracted volume projected by P in place of b(d alpha).  P picks out
    the constant part and is taken once; the value depends only on the
    homotopy class of f."""
    # i_{X_1} i_{X_2} mu = mu(X_2, X_1) for the normalized volume
    V = dom.volume
    Z1, Z2 = V * exact_divfree_field(dom, a1), V * exact_divfree_field(dom, a2)
    Pg = projection_P(dom, (Z2[:, 0] * Z1[:, 1] - Z2[:, 1] * Z1[:, 0]) / V)
    return replace(hat_pairing(omega.form, Pg, dom), tag="sigma_diffex")


# ---------------------------------------------------------------------------
# volume-integral cocycle on divergence-free fields of a closed surface

def lichnerowicz(dom_M: SourceDomain, eta: Form, X: VectorField,
                 Y: VectorField, nu: Form) -> float:
    """∫_M eta(X,Y) nu over a meshed closed surface; bilinear and
    antisymmetric in the fields."""
    if eta.degree != 2 or nu.degree != dom_M.dim:
        raise DegreeError("need a 2-form and a volume form on the meshed surface")

    def ev(x, vs):
        return eta.evaluator(x, [X.rows(x), Y.rows(x)]) * nu.evaluator(x, vs)

    return integrate(Form(nu.degree, nu.ambient_dim, ev), dom_M)


# ---------------------------------------------------------------------------
# open-string boundary data: twist closedness

@dataclass(frozen=True)
class AffineSubspace:
    """An affine subspace of R^m with an orthonormal direction basis."""

    origin: Array
    basis: Array  # (m, d), orthonormal columns

    @property
    def ambient_dim(self) -> int:
        return self.origin.size

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def inclusion(self) -> ChartMap:
        return affine_map(self.basis, self.origin, name="incl")

    def project_vector(self, v: Array) -> Array:
        return self.basis @ (self.basis.T @ np.asarray(v, dtype=float))

    def distance(self, x: Array) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.linalg.norm(x - self.origin - self.project_vector(x - self.origin)))


def affine_subspace(origin, basis) -> AffineSubspace:
    origin = np.asarray(origin, dtype=float)
    B = np.asarray(basis, dtype=float)
    Q, _ = np.linalg.qr(B)
    return AffineSubspace(origin, Q)


@dataclass(frozen=True)
class BraneReport:
    applicable: bool
    reason: str
    gate_residual: float
    closedness_residual: float
    passed: bool


def twist_two_form(H: Form, B: Form, D: AffineSubspace,
                   dom: SourceDomain) -> MapSpaceForm:
    """The closed 2-form candidate: the transgressed closed (p+2)-form minus
    the transgression of the potential over the signed endpoint pair,
    pulled back along the restriction to the boundary and along the
    coordinates of D, y -> (y - origin) @ basis."""
    coords = ChartMap(lambda y: (y - D.origin) @ D.basis, D.ambient_dim, D.dim,
                      jacobian_func=lambda y: broadcast_rows(D.basis.T, y),
                      name="coords", batched=True)
    hat_H = hat_map(H, dom)
    hat_B = boundary_pullback(action_pullback_M(hat_map(B, dom.boundary()), coords))

    def ev(F, ts):
        return hat_H.evaluator(F, ts) - hat_B.evaluator(F, ts)

    return MapSpaceForm(hat_H.degree, ev, tag="twist")


def constrained_random_data(dom: SourceDomain, D: AffineSubspace,
                            rng: np.random.Generator, n_tangents: int):
    """A map with endpoints in D and tangents tangent to D at the endpoints."""
    m, amp = D.ambient_dim, 0.6
    f0 = random_map(dom, m, rng, amp=amp)
    vals = f0.values.copy()
    ends = dom.boundary().parent_indices
    x = dom.nodes[:, 0]
    for i in ends:
        target = D.origin + D.project_vector(vals[i] - D.origin)
        shift = target - vals[i]
        bump = (1.0 - x) if i == 0 else x
        vals += np.outer(bump, shift)
    f = MapPoint(dom, vals)
    tangents = []
    for _ in range(n_tangents):
        t0 = random_tangent(f, rng, amp=amp)
        tv = t0.vectors.copy()
        # blend the endpoint projections in linearly so the field stays smooth
        for i in ends:
            delta = D.project_vector(tv[i]) - tv[i]
            bump = (1.0 - x) if i == 0 else x
            tv += np.outer(bump, delta)
        tangents.append(MapTangent(f, tv))
    return f, tangents


def boundary_data_gate(D: AffineSubspace, f: MapPoint, tangents) -> tuple:
    """(defect, reason) of open-string boundary data: the largest distance
    of an endpoint of f from D or of a tangent there from its projection
    onto D, and why the data are refused, "" when the defect is within
    TWIST_GATE_TOL."""
    defect = 0.0
    for i in f.dom.boundary().parent_indices:
        defect = max(defect, D.distance(f.values[i]))
        for t in tangents:
            defect = max(defect, float(np.linalg.norm(
                t.vectors[i] - D.project_vector(t.vectors[i]))))
    if defect > TWIST_GATE_TOL:
        return defect, f"boundary data leaves the subspace by {defect:.3e}"
    return defect, ""


def brane_twist_check(H: Form, B: Form, D: AffineSubspace, dom: SourceDomain,
                      rng: np.random.Generator, n_trials: int = 3) -> BraneReport:
    """Closedness of the twist candidate on maps sending the boundary into D.

    Gates first: the potential must match the restricted closed form
    (i*H = dB on D), and the generated data must pass boundary_data_gate.
    A violated gate makes the check inapplicable, not passed."""
    if dom.boundary() is None:
        raise ValueError(f"the open-string check needs a source with boundary, not {dom.kind}")
    # gate 1: i*H = dB on the subspace
    iH = pullback(H, D.inclusion())
    dB = B.analytic_d
    if dB is None:
        dB = exterior_derivative(B, step=1e-5)
    gate = sample_difference(iH, dB, rng, n_samples=20)
    if gate > TWIST_GATE_TOL:
        return BraneReport(False, f"i*H - dB residual {gate:.3e} exceeds "
                           f"{TWIST_GATE_TOL:.1e}", gate, 0.0, False)
    dW = map_space_d(twist_two_form(H, B, D, dom))
    worst = 0.0
    for _ in range(n_trials):
        g, ts = constrained_random_data(dom, D, rng, 3)
        _, reason = boundary_data_gate(D, g, ts)
        if reason:
            return BraneReport(False, reason, gate, 0.0, False)
        worst = max(worst, abs(dW(g, *ts)))
    return BraneReport(True, "", gate, worst, worst < TWIST_TOL)


# ---------------------------------------------------------------------------
# the two commuting actions

def dual_pair_report(sys: HamiltonianSystem, omega_exact: ExactTwoForm,
                     dom: SourceDomain, rng: np.random.Generator,
                     n_trials: int = 3) -> dict:
    """Residuals of the two commuting hamiltonian actions on F(T^2, R^2),
    the nodewise commutation check, and the momenta and cocycle along a
    homotopy of maps."""
    report: dict = {}
    ham, ex = diffham_action(sys, dom), diffex_action(omega_exact, dom)

    # commuting actions: rigid reparameterization vs affine target map
    f = random_map(dom, 2, rng, amp=0.8)
    nx, ny = dom.shape
    psi = rigid_shift_2d(2.0 * np.pi * 3 / nx, 2.0 * np.pi * 5 / ny)
    A = rng.uniform(-1.0, 1.0, (2, 2)) + np.eye(2)
    phi = affine_map(A, rng.uniform(-1.0, 1.0, 2))
    one = pushforward_action(phi, pullback_action(psi, f))
    two = pullback_action(psi, pushforward_action(phi, f))
    report["commutation_error"] = float(np.max(np.abs(one.values - two.values)))

    # hamiltonian identity residuals on both legs
    worst_ham = worst_ex = 0.0
    for _ in range(n_trials):
        g = random_map(dom, 2, rng, amp=0.8)
        Y = random_tangent(g, rng)
        pair = sys.catalog[int(rng.integers(len(sys.catalog)))]
        worst_ham = max(worst_ham, momentum_identity_residual(ham, pair, g, Y)(DEFAULT_FD_STEP))
        alpha = random_stream(dom, rng, max_mode=2)
        worst_ex = max(worst_ex, momentum_identity_residual(ex, alpha, g, Y)(DEFAULT_FD_STEP))
    report["diffham_residual"] = worst_ham
    report["diffex_residual"] = worst_ex

    # along an explicit homotopy the momenta move but the cocycle does not
    a1 = random_stream(dom, rng, max_mode=2)
    a2 = random_stream(dom, rng, max_mode=2)
    base = random_map(dom, 2, rng, amp=0.8)
    bump = random_map(dom, 2, rng, amp=0.5)
    J_ham = [ham.momentum(p) for p in sys.catalog]
    J_ex = ex.momentum(a1)
    sigma = cocycle_diffex(omega_exact, dom, a1, a2)
    path, cvals = [], []
    for t in np.linspace(0.0, 1.0, 5):
        ft = MapPoint(dom, base.values + t * bump.values)
        cvals.append(sigma(ft))
        path.append({
            "t": float(t),
            "momentum_diffham": [J(ft) for J in J_ham],
            "momentum_diffex": J_ex(ft),
            "cocycle_diffex": cvals[-1],
        })
    report["diffex_cocycle_spread"] = float(np.max(cvals) - np.min(cvals))
    report["homotopy_path"] = path
    return report
