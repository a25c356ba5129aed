"""Identity suites: every structural identity of the calculus as a
measured residual with a tolerance and, where finite differencing limits
the accuracy, an observed refinement order.

Each suite function takes a SuiteConfig and returns a list of TestRecords
in a fixed order; all randomness is drawn from a generator seeded by the
config, so reports are reproducible byte for byte.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import catalog as cat
from . import grassmannian as gr
from . import mechanics as me
from .charts import affine_map, constant_field, rotation3
from .domains import ScalarField, circle, interval, nodal_vector_field, torus2
from .forms import (broadcast_rows, exterior_derivative, fiber_integrate,
                    form_scale, form_sum, interior, product_form, pullback,
                    sample_difference, scalar_const, scalar_coordinate,
                    scalar_sum, coefficient_form, coordinate_form,
                    vertical_field, volume_form, product_map,
                    lie_derivative, trig_scalar)
from .mapspace import (MapPoint, MapTangent, action_pullback_M,
                       action_pullback_S, bar_map, bar_map_direct,
                       boundary_pullback, generator_M, generator_S,
                       hat_gram, hat_map, hat_pairing, hat_pairing_fiber,
                       map_space_d, map_space_interior, map_space_lie,
                       map_space_lie_flow, mapspace_scale, mapspace_sum,
                       pushforward_tangent, pushforward_transport,
                       reparam_transport)
from .report import TestRecord, fit_order

IDENTITY_TOL = 1e-6
ORDER_TARGET = 1.9


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 7
    nodes: int = 48            # circle nodes
    torus_side: int = 24
    interval_nodes: int = 65
    fd_step: float = 1e-4
    trials: int = 3
    order_steps: tuple = (4e-3, 2e-3, 1e-3, 5e-4)

    def __post_init__(self):
        """Reject bad input as a usage error before any identity runs."""
        def integral(value):
            return isinstance(value, numbers.Integral) and not isinstance(value, bool)

        def positive(value):
            return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                    and bool(np.isfinite(value)) and value > 0)

        if not integral(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name in ("nodes", "torus_side", "interval_nodes", "trials"):
            value = getattr(self, name)
            if not integral(value) or value <= 0:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not positive(self.fd_step):
            raise ValueError(f"fd_step must be a positive number, got {self.fd_step!r}")
        if (not isinstance(self.order_steps, tuple) or not self.order_steps
                or not all(positive(h) for h in self.order_steps)):
            raise ValueError("order_steps must be a non-empty list of positive "
                             f"numbers, got {self.order_steps!r}")

    def domains(self) -> dict:
        return {
            "circle": circle(self.nodes),
            "torus2": torus2(self.torus_side),
            "interval": interval(self.interval_nodes),
        }


def _record(test_id, statement, residual, tol, config, mesh, order=None,
            order_target=None, order_note="", detail="") -> TestRecord:
    passed = residual < tol
    if order is not None and order_target is not None:
        passed = passed and order >= order_target
    return TestRecord(test_id=test_id, statement=statement,
                      residual=float(residual), tolerance=float(tol),
                      passed=bool(passed), seed=config.seed, mesh=mesh,
                      order=order, order_target=order_target,
                      order_note=order_note, detail=detail)


def _scaled(value, *references) -> float:
    scale = max([1.0] + [abs(r) for r in references])
    return abs(value) / scale


def _relative(a, b) -> float:
    """Signed a - b relative to max(1, |a|, |b|)."""
    return (a - b) / max(1.0, abs(a), abs(b))


def _floor_subtracted_order(residual, steps):
    """Order fitted to |r(h) - r(2e-5)| for a signed residual r of fixed
    data: the tiny reference step removes an error floor that does not depend
    on h (quadrature or differentiation mismatch of the sampled data)."""
    floor = residual(2e-5)
    return fit_order(steps, [abs(residual(h) - floor) for h in steps])


# ---------------------------------------------------------------------------
# random case helpers

def _hat_case(dom, m, p, q, rng, amp=0.8):
    om = cat.random_form(m, p, rng, amp=amp)
    al = cat.random_form(dom.chart_dim, q, rng, amp=amp, integer_modes=True) \
        if q else cat.random_form(dom.chart_dim, 0, rng, amp=amp, integer_modes=True)
    f = cat.random_map(dom, m, rng, amp=amp)
    n = p + q - dom.dim
    ts = [cat.random_tangent(f, rng, amp=amp) for _ in range(n)]
    return om, al, f, ts


def two_route_residual(dom, m, p, q, rng, amp=0.8) -> float:
    """Relative disagreement of the pointwise and fiber-integration routes
    on one random case."""
    om, al, f, ts = _hat_case(dom, m, p, q, rng, amp)
    v1 = hat_pairing(om, al, dom)(f, *ts)
    v2 = hat_pairing_fiber(om, al, dom)(f, *ts)
    return abs(v1 - v2) / max(1.0, abs(v1), abs(v2))


TWO_ROUTE_SIGNATURES = {
    "circle": (3, [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1)]),
    "torus2": (4, [(2, 0), (3, 0), (1, 2), (2, 1), (2, 2)]),
    "interval": (3, [(1, 0), (2, 0), (2, 1)]),
}


_KIND_SALT = {"circle": 101, "torus2": 102, "interval": 103}


def two_route_sweep(kind: str, cases: int, config: SuiteConfig):
    """Worst relative two-route disagreement over `cases` random cases."""
    rng = np.random.default_rng([config.seed, _KIND_SALT[kind]])
    if kind == "torus2":
        dom = torus2(16)
    elif kind == "circle":
        dom = circle(min(config.nodes, 64))
    else:
        dom = interval(min(config.interval_nodes, 65))
    m, sigs = TWO_ROUTE_SIGNATURES[kind]
    worst = 0.0
    for i in range(cases):
        p, q = sigs[i % len(sigs)]
        worst = max(worst, two_route_residual(dom, m, p, q, rng))
    return worst, dom


# ---------------------------------------------------------------------------
# hat calculus

def _derivation_residual(dom, m, p, q, rng, fd_step) -> float:
    """Signed relative residual of the derivation identity on one random case."""
    om, al, f, ts = _hat_case(dom, m, p, q, rng)
    n = p + q - dom.dim
    W = hat_pairing(om, al, dom)
    lhs = map_space_d(W, fd_step)
    terms = [hat_pairing(exterior_derivative(om), al, dom)]
    if q < dom.dim:  # d(alpha) vanishes identically only at top degree
        terms.append(mapspace_scale((-1.0) ** p,
                                    hat_pairing(om, exterior_derivative(al), dom)))
    rhs = mapspace_sum(*terms) if len(terms) > 1 else terms[0]
    extra = cat.random_tangent(f, rng)
    args = ts + [extra]
    return _relative(lhs(f, *args), rhs(f, *args))


def run_hat_calculus(config: SuiteConfig):
    doms = config.domains()
    records = []
    rng = np.random.default_rng([config.seed, 1])

    # two-route agreement, spot level
    for kind, (m, sigs) in TWO_ROUTE_SIGNATURES.items():
        dom = doms[kind] if kind != "torus2" else torus2(16)
        worst = max(two_route_residual(dom, m, p, q, rng) for p, q in sigs)
        records.append(_record(
            f"two-route-{kind}",
            "(w.a)^ pointwise route = fiber-integration route",
            worst, IDENTITY_TOL, config, {"domain": kind, "nodes": dom.n_nodes},
            order_note="floor"))

    # derivation identity with refinement order in the FD step
    for kind, m, p, q in [("circle", 3, 2, 0), ("circle", 3, 1, 1),
                          ("torus2", 4, 2, 1)]:
        dom = doms[kind]
        worst = max(abs(_derivation_residual(dom, m, p, q, np.random.default_rng(
            [config.seed, 2, i]), config.fd_step)) for i in range(config.trials))
        order, note = _floor_subtracted_order(
            lambda h: _derivation_residual(dom, m, p, q,
                                           np.random.default_rng([config.seed, 3]), h),
            config.order_steps)
        records.append(_record(
            f"derivation-{kind}-p{p}q{q}",
            "d(w.a)^ = (dw.a)^ + (-1)^p (w.da)^",
            worst, IDENTITY_TOL, config,
            {"domain": kind, "nodes": dom.n_nodes, "fd_step": config.fd_step},
            order=order, order_target=ORDER_TARGET, order_note=note))

    # push-forward action identity, affine (exact) and nonlinear target map
    dom = doms["circle"]
    rngA = np.random.default_rng([config.seed, 4])
    om, al, f, ts = _hat_case(dom, 3, 2, 0, rngA)
    phi = rotation3([0.3, 1.0, 0.2], 0.7)
    W = hat_pairing(om, al, dom)
    d_aff = abs(action_pullback_M(W, phi)(f, *ts)
                - hat_pairing(pullback(om, phi), al, dom)(f, *ts))
    records.append(_record(
        "action-pushforward-affine",
        "phibar*(w.a)^ = (phi*w.a)^  (affine phi, exact nodewise)",
        d_aff, 1e-10, config, {"domain": "circle", "nodes": dom.n_nodes},
        order_note="floor"))

    eta_map = cat.ChartMap(
        lambda u: np.array([u[0], u[1], np.sin(u[0]) * u[1]]), 2, 3,
        jacobian_func=lambda u: np.array(
            [[1.0, 0.0], [0.0, 1.0], [np.cos(u[0]) * u[1], np.sin(u[0])]]),
        name="graph")
    om3 = cat.random_form(3, 2, rngA)
    f2 = cat.random_map(dom, 2, rngA, amp=0.8)
    t2 = [cat.random_tangent(f2, rngA)]
    Wn = hat_pairing(om3, al, dom)
    d_nat = abs(action_pullback_M(Wn, eta_map)(f2, *t2)
                - hat_pairing(pullback(om3, eta_map), al, dom)(f2, *t2))
    records.append(_record(
        "action-pushforward-naturality",
        "etabar*(w.a)^ = (eta*w.a)^ for any smooth eta: M1 -> M2",
        d_nat, IDENTITY_TOL, config, {"domain": "circle", "nodes": dom.n_nodes},
        order_note="floor"))

    # infinitesimal version with refinement order
    def lie_residual(h):
        rngL = np.random.default_rng([config.seed, 5])
        omL, alL, fL, tsL = _hat_case(dom, 3, 2, 0, rngL)
        X = cat.random_affine_field(3, rngL, amp=0.6)
        WL = hat_pairing(omL, alL, dom)
        lhs = map_space_lie(WL, lambda g: generator_M(X, g), h)
        rhs = hat_pairing(lie_derivative(omL, X, h), alL, dom)
        return _relative(lhs(fL, *tsL), rhs(fL, *tsL))

    worstL = abs(lie_residual(config.fd_step))
    order, note = _floor_subtracted_order(lie_residual, config.order_steps)
    records.append(_record(
        "action-lie-M",
        "L_{Xbar}(w.a)^ = (L_X w.a)^",
        worstL, IDENTITY_TOL, config,
        {"domain": "circle", "nodes": dom.n_nodes, "fd_step": config.fd_step},
        order=order, order_target=ORDER_TARGET, order_note=note))

    # insertion of generators
    rngI = np.random.default_rng([config.seed, 6])
    omI, alI, fI, _ = _hat_case(dom, 3, 2, 1, rngI)
    X = cat.random_affine_field(3, rngI, amp=0.8)
    WI = hat_pairing(omI, alI, dom)
    lhs = map_space_interior(WI, lambda g: generator_M(X, g))
    rhs = hat_pairing(interior(omI, X), alI, dom)
    yI = cat.random_tangent(fI, rngI)
    a, b = lhs(fI, yI), rhs(fI, yI)
    records.append(_record(
        "insert-generator-M",
        "i_{Xbar}(w.a)^ = (i_X w.a)^",
        _scaled(a - b, a, b), 1e-10, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    Z = constant_field(np.array([0.4]), name="0.4 d/ds")
    lhsZ = map_space_interior(WI, lambda g: generator_S(Z, g))
    rhsZ = mapspace_scale((-1.0) ** omI.degree,
                          hat_pairing(omI, interior(alI, Z), dom))
    a, b = lhsZ(fI, yI), rhsZ(fI, yI)
    records.append(_record(
        "insert-generator-S",
        "i_{Zhat}(w.a)^ = (-1)^p (w.i_Z a)^",
        _scaled(a - b, a, b), 1e-10, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    # reparameterization action: rigid shift (exact) and a warp
    rngS = np.random.default_rng([config.seed, 7])
    omS, alS, fS, _ = _hat_case(dom, 3, 2, 1, rngS)
    WS = hat_pairing(omS, alS, dom)
    yS = [cat.random_tangent(fS, rngS) for _ in range(2)]
    shift = cat.rigid_shift(0.37)
    a = action_pullback_S(WS, shift)(fS, *yS)
    b = hat_pairing(omS, pullback(alS, shift), dom)(fS, *yS)
    records.append(_record(
        "action-reparam-rigid",
        "psihat*(w.a)^ = (w.psi*a)^  (rigid shift, interpolation exact)",
        _scaled(a - b, a, b), 1e-9, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    warp = cat.circle_warp(0.3)
    a = action_pullback_S(WS, warp)(fS, *yS)
    b = hat_pairing(omS, pullback(alS, warp), dom)(fS, *yS)
    records.append(_record(
        "action-reparam-warp",
        "psihat*(w.a)^ = (w.psi*a)^  (orientation-preserving warp)",
        _scaled(a - b, a, b), IDENTITY_TOL, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    # infinitesimal reparameterization
    def lieS_residual(h):
        rngZ = np.random.default_rng([config.seed, 8])
        omZ, alZ, fZ, _ = _hat_case(dom, 3, 2, 1, rngZ)
        WZ = hat_pairing(omZ, alZ, dom)
        tz = [cat.random_tangent(fZ, rngZ) for _ in range(2)]
        Zf = cat.random_scalar(1, rngZ, amp=0.5)
        Zfield = cat.VectorField(lambda s: Zf.value(s)[:, None], 1, batched=True)
        lhs = map_space_lie(WZ, lambda g: generator_S(Zfield, g), h)
        rhs = hat_pairing(omZ, lie_derivative(alZ, Zfield, h), dom)
        return _relative(lhs(fZ, *tz), rhs(fZ, *tz))

    worstZ = abs(lieS_residual(config.fd_step))
    order, note = _floor_subtracted_order(lieS_residual, config.order_steps)
    records.append(_record(
        "action-lie-S",
        "L_{Zhat}(w.a)^ = (w.L_Z a)^",
        worstZ, IDENTITY_TOL, config,
        {"domain": "circle", "nodes": dom.n_nodes, "fd_step": config.fd_step},
        order=order, order_target=ORDER_TARGET, order_note=note))

    # dual-route Lie derivative: Cartan vs transported flow difference
    rngF = np.random.default_rng([config.seed, 9])
    omF, alF, fF, tsF = _hat_case(dom, 3, 2, 0, rngF)
    XF = cat.random_affine_field(3, rngF, amp=0.6)
    WF = hat_pairing(omF, alF, dom)
    cartan = map_space_lie(WF, lambda g: generator_M(XF, g), config.fd_step)
    flow = map_space_lie_flow(WF, pushforward_transport(XF), 1e-4)
    a, b = cartan(fF, *tsF), flow(fF, *tsF)
    records.append(_record(
        "lie-dual-route-M",
        "Cartan formula = flow finite difference (push-forward generator)",
        _scaled(a - b, a, b), 1e-5, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="fd"))

    shift_flow = reparam_transport(lambda t: cat.rigid_shift(0.4 * t))
    Zc = constant_field(np.array([0.4]))
    cartanZ = map_space_lie(WF, lambda g: generator_S(Zc, g), config.fd_step)
    flowZ = map_space_lie_flow(WF, shift_flow, 1e-4)
    a, b = cartanZ(fF, *tsF), flowZ(fF, *tsF)
    records.append(_record(
        "lie-dual-route-S",
        "Cartan formula = flow finite difference (rigid reparameterization)",
        _scaled(a - b, a, b), 1e-5, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="fd"))

    # exact w, closed a, p+q = k: the induced function vanishes
    rngV = np.random.default_rng([config.seed, 10])
    worstV = 0.0
    for _ in range(20):
        h_pot = cat.random_form(3, 0, rngV)
        loop = cat.random_loop(dom, 3, rngV)
        val = hat_pairing(h_pot.analytic_d, float(rngV.uniform(-1.0, 1.0)), dom)(loop)
        worstV = max(worstV, abs(val))
    records.append(_record(
        "exact-closed-vanishing",
        "(w.a)^ = 0 for exact w, closed a, p+q = dim S",
        worstV, 1e-10, config, {"domain": "circle", "nodes": dom.n_nodes},
        order_note="floor"))

    # flat-model d∘d = 0 on F(S,M)
    rngD = np.random.default_rng([config.seed, 11])
    omD, alD, fD, _ = _hat_case(dom, 3, 2, 1, rngD)
    WD = hat_pairing(omD, alD, dom)
    ddW = map_space_d(map_space_d(WD, config.fd_step), config.fd_step)
    tsD = [cat.random_tangent(fD, rngD) for _ in range(4)]
    records.append(_record(
        "map-space-dd",
        "d(dW) = 0 on F(S,M) (constant extensions)",
        abs(ddW(fD, *tsD)), 1e-3, config,
        {"domain": "circle", "nodes": dom.n_nodes, "fd_step": config.fd_step},
        order_note="fd"))
    return records


# ---------------------------------------------------------------------------
# bar calculus

def run_bar_calculus(config: SuiteConfig):
    records = []
    dom = circle(config.nodes)
    rng = np.random.default_rng([config.seed, 20])
    om = cat.random_form(2, 2, rng, amp=0.8)
    f = cat.random_map(dom, 2, rng, amp=0.8)
    ts = [cat.random_tangent(f, rng) for _ in range(2)]

    W = bar_map(om, dom)
    a, b = W(f, *ts), bar_map_direct(om, dom)(f, *ts)
    records.append(_record(
        "bar-direct-agreement",
        "(w.mu)^ = integral of w(Y...) against normalized mu",
        _scaled(a - b, a, b), 1e-10, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    phi = affine_map(np.array([[1.0, 0.4], [0.0, 1.0]]),
                     np.array([0.2, -0.1]), name="shear")
    a = action_pullback_M(W, phi)(f, *ts)
    b = bar_map(pullback(om, phi), dom)(f, *ts)
    records.append(_record(
        "bar-pullback",
        "phibar* wbar = (phi*w)bar",
        _scaled(a - b, a, b), 1e-10, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    X = cat.random_affine_field(2, rng, amp=0.6)
    lhs = map_space_lie(W, lambda g: generator_M(X, g), config.fd_step)
    rhs = bar_map(lie_derivative(om, X, config.fd_step), dom)
    a, b = lhs(f, *ts), rhs(f, *ts)
    records.append(_record(
        "bar-lie",
        "L_{Xbar} wbar = (L_X w)bar",
        _scaled(a - b, a, b), IDENTITY_TOL, config,
        {"domain": "circle", "nodes": dom.n_nodes, "fd_step": config.fd_step},
        order_note="fd"))

    lhs = map_space_interior(W, lambda g: generator_M(X, g))
    rhs = bar_map(interior(om, X), dom)
    y = cat.random_tangent(f, rng)
    a, b = lhs(f, y), rhs(f, y)
    records.append(_record(
        "bar-insert",
        "i_{Xbar} wbar = (i_X w)bar",
        _scaled(a - b, a, b), 1e-10, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    dW = map_space_d(W, config.fd_step)
    rhs = bar_map(exterior_derivative(om), dom)
    ts3 = [cat.random_tangent(f, rng) for _ in range(3)]
    a, b = dW(f, *ts3), rhs(f, *ts3)
    records.append(_record(
        "bar-d",
        "d wbar = (dw)bar",
        _scaled(a - b, a, b), IDENTITY_TOL, config,
        {"domain": "circle", "nodes": dom.n_nodes, "fd_step": config.fd_step},
        order_note="fd"))

    # symplectic coefficient form: closedness and the weights-x-coefficients
    # Gram matrix of the nodal tangent basis (nonsingular)
    sys = me.canonical_r2()
    ob = bar_map(sys.omega, dom)
    dob = map_space_d(ob, config.fd_step)
    a = abs(dob(f, *ts3))
    records.append(_record(
        "bar-symplectic-closed",
        "d(omega bar) = 0 for symplectic omega",
        a, IDENTITY_TOL, config,
        {"domain": "circle", "nodes": dom.n_nodes, "fd_step": config.fd_step},
        order_note="fd"))

    small = circle(8)
    n = small.n_nodes
    G = hat_gram(sys.omega, volume_form(small.chart_dim, 1.0 / small.volume), small,
                 MapPoint(small, np.zeros((n, 2))))
    expected = np.kron(np.diag(small.weights / small.volume),
                       np.array([[0.0, 1.0], [-1.0, 0.0]]))
    defect = float(np.max(np.abs(G - expected)))
    sing = float(np.min(np.abs(np.linalg.eigvals(G))))
    records.append(_record(
        "bar-gram-nondegenerate",
        "Gram of omega bar on the nodal basis = weights x symplectic matrix, nonsingular",
        defect, 1e-12, config, {"domain": "circle", "nodes": n},
        order_note="floor", detail=f"min |eigenvalue| {sing:.3e}"))
    return records


# ---------------------------------------------------------------------------
# induced forms on embedded submanifolds

def run_tilda_calculus(config: SuiteConfig):
    records = []
    dom = circle(128)
    rng = np.random.default_rng([config.seed, 30])
    nu = volume_form(3)
    circ = gr.embed(cat.unit_circle_map(dom, 3))
    ez = cat.named_field("e_z")
    rad = cat.named_field("radial")

    val = gr.tilda_eval(nu, circ, [ez, rad])
    records.append(_record(
        "mw-circle-value",
        "volume pairing at the unit circle on (e_z, radial) = 2*pi",
        abs(val - 2.0 * np.pi), 1e-8, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    records.append(_record(
        "mw-odd-symmetry",
        "volume pairing at the unit circle on (e_z, e_x) = 0",
        abs(gr.tilda_eval(nu, circ, [ez, cat.named_field("e_x")])), 1e-10,
        config, {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    Z = np.sin(3.0 * dom.nodes[:, :1]) + 0.3
    tang = gr.tangential_tangent(circ, Z)
    pert = MapTangent(circ.rep, generator_M(rad, circ.rep).vectors + tang.vectors)
    records.append(_record(
        "tilda-horizontality",
        "adding a tangential field to a slot leaves the value unchanged",
        abs(gr.tilda_eval(nu, circ, [ez, pert]) - val), 1e-8, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    W = hat_map(nu, dom)
    dW = map_space_d(W, config.fd_step)
    ts = [cat.random_tangent(circ.rep, rng) for _ in range(3)]
    records.append(_record(
        "mw-closedness",
        "d of the loop-space volume pairing vanishes",
        abs(dW(circ.rep, *ts)), IDENTITY_TOL, config,
        {"domain": "circle", "nodes": dom.n_nodes, "fd_step": config.fd_step},
        order_note="fd"))

    # ambient actions through representatives
    rot = rotation3([0.2, 0.5, 1.0], 0.9)
    circ_rot = gr.diffM_action_on_N(rot, circ)
    moved = [pushforward_tangent(rot, generator_M(s, circ.rep)) for s in (ez, rad)]
    records.append(_record(
        "tilda-rotation-invariance",
        "rotations preserve the volume pairing",
        abs(gr.tilda_eval(nu, circ_rot, moved) - val), 1e-8, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    shear = affine_map(np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0],
                                 [0.0, 0.0, 1.0]]), name="shear")
    circ_sh = gr.diffM_action_on_N(shear, circ)
    moved = [pushforward_tangent(shear, generator_M(s, circ.rep)) for s in (ez, rad)]
    records.append(_record(
        "tilda-shear-invariance",
        "volume-preserving linear maps preserve the volume pairing",
        abs(gr.tilda_eval(nu, circ_sh, moved) - val), 1e-8, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    A = np.diag([1.3, 0.8, 1.1])
    lin = affine_map(A, name="scale")
    circ_sc = gr.diffM_action_on_N(lin, circ)
    moved = [pushforward_tangent(lin, generator_M(s, circ.rep)) for s in (ez, rad)]
    got = gr.tilda_eval(nu, circ_sc, moved)
    records.append(_record(
        "tilda-linear-scaling",
        "a linear map scales the volume pairing by its determinant",
        abs(got - np.linalg.det(A) * val), 1e-8, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    # invariance under the reparameterization action
    om3 = cat.random_form(3, 2, rng, amp=0.8)
    hatW = hat_map(om3, dom)
    f = cat.random_loop(dom, 3, rng)
    y = cat.random_tangent(f, rng)
    shiftW = action_pullback_S(hatW, cat.rigid_shift(0.61))
    a, b = shiftW(f, y), hatW(f, y)
    records.append(_record(
        "hat-basic-invariance",
        "psihat* w^ = w^ for orientation-preserving psi",
        _scaled(a - b, a, b), 1e-9, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    Zf = cat.random_scalar(1, rng, amp=0.5)
    Zfield = cat.VectorField(lambda s: Zf.value(s)[:, None], 1, batched=True)
    ins = map_space_interior(hatW, lambda g: generator_S(Zfield, g))
    records.append(_record(
        "hat-basic-horizontal",
        "i_{Zhat} w^ = 0 (vertical insertions vanish)",
        abs(ins(f)), 1e-10, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    # bundle-relation consistency between the two code paths
    X1 = cat.random_affine_field(3, rng, amp=0.6)
    a = hatW(circ.rep, generator_M(X1, circ.rep))
    b = gr.tilda_eval(om3, circ, [X1])
    records.append(_record(
        "bundle-relation",
        "hat value on restricted global fields = submanifold pairing",
        abs(a - b), 1e-12, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    # orientation reversal flips the sign
    circ_rev = gr.embed(MapPoint(dom.with_orientation(-1), circ.rep.values))
    records.append(_record(
        "tilda-orientation-flip",
        "reversing the source orientation flips the pairing sign",
        abs(gr.tilda_eval(nu, circ_rev, [ez, rad]) + val), 1e-10, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    # kernel of the pairing at a small loop = tangential directions
    small = circle(12)
    circ_s = gr.embed(cat.unit_circle_map(small, 3))
    G = gr.mw_gram_matrix(nu, circ_s)
    _, sv, Vt = np.linalg.svd(G)
    nkernel = int(np.sum(sv < 1e-10 * sv[0]))
    Tf_s = circ_s.rep.jacobian()
    tangentials = np.array([np.concatenate([Tf_s[i, :, 0] if i == j else np.zeros(3)
                                            for j in range(small.n_nodes)])
                            for i in range(small.n_nodes)])
    kernel_basis = Vt[len(sv) - nkernel:]
    defect = 0.0
    for vec in kernel_basis:
        coeffs = np.linalg.lstsq(tangentials.T, vec, rcond=None)[0]
        defect = max(defect, float(np.linalg.norm(tangentials.T @ coeffs - vec)))
    records.append(_record(
        "mw-kernel-rank",
        "kernel of the nodal Gram matrix = tangential directions only",
        defect if nkernel == small.n_nodes else 1.0, 1e-8, config,
        {"domain": "circle", "nodes": small.n_nodes},
        order_note="floor",
        detail=f"kernel dim {nkernel} of expected {small.n_nodes}"))
    return records


# ---------------------------------------------------------------------------
# fiber integration rules

def run_fiber_rules(config: SuiteConfig):
    records = []
    rng = np.random.default_rng([config.seed, 40])
    dom = circle(config.nodes)

    def rand_product(s_dim, v_dim, degree, rngx, per=None):
        import itertools as it
        coeffs = {}
        for I in it.combinations(range(s_dim + v_dim), degree):
            K = rngx.uniform(-1.0, 1.0, size=(2, s_dim + v_dim))
            if per:
                for a in per:
                    K[:, a] = rngx.integers(-2, 3, size=2)
            coeffs[I] = trig_scalar(s_dim + v_dim, K, rngx.uniform(-1, 1, 2),
                                    rngx.uniform(0, 2 * np.pi, 2))
        return product_form(s_dim, v_dim,
                            coefficient_form(s_dim + v_dim, degree, coeffs))

    # rule 1: pullback through the fiber integral
    w = rand_product(1, 2, 2, rng, per=[0])
    A = rng.uniform(-1.0, 1.0, (2, 2))
    g = cat.ChartMap(lambda u: A @ u + 0.3 * np.array([np.sin(u[1]), u[0] ** 2]),
                     2, 2, jacobian_func=lambda u: A + 0.3 * np.array(
                         [[0.0, np.cos(u[1])], [2.0 * u[0], 0.0]]))
    lhs = pullback(fiber_integrate(w, dom), g)
    rhs = fiber_integrate(product_form(1, 2, pullback(
        w.chart_form, product_map(None, g, 1, 2))), dom)
    records.append(_record(
        "fiber-rule-pullback",
        "g* (S-integral of w) = S-integral of (1 x g)* w",
        sample_difference(lhs, rhs, rng, 10), IDENTITY_TOL, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    # rule 2: invariance under orientation-preserving reparameterization
    warp = cat.circle_warp(0.3)
    w2 = rand_product(1, 2, 2, rng, per=[0])
    lhs = fiber_integrate(product_form(1, 2, pullback(
        w2.chart_form, product_map(warp, None, 1, 2))), dom)
    rhs = fiber_integrate(w2, dom)
    records.append(_record(
        "fiber-rule-reparam",
        "S-integral of (psi x 1)* w = S-integral of w,  psi orientation preserving",
        sample_difference(lhs, rhs, rng, 10), IDENTITY_TOL, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    # rule 3: insertion of target fields
    X = cat.random_affine_field(2, rng)
    w3 = rand_product(1, 2, 3, rng, per=[0])
    lhs = interior(fiber_integrate(w3, dom), X)
    rhs = fiber_integrate(product_form(1, 2, interior(
        w3.chart_form, vertical_field(X, 1))), dom)
    records.append(_record(
        "fiber-rule-insertion",
        "i_X (S-integral of w) = S-integral of i_{0 x X} w",
        sample_difference(lhs, rhs, rng, 10), 1e-12, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    # rule 3 on the torus (even-dimensional S)
    domT = torus2(12)
    w3t = rand_product(2, 2, 3, rng, per=[0, 1])
    lhs = interior(fiber_integrate(w3t, domT), X)
    rhs = fiber_integrate(product_form(2, 2, interior(
        w3t.chart_form, vertical_field(X, 2))), domT)
    records.append(_record(
        "fiber-rule-insertion-torus",
        "i_X (S-integral of w) = S-integral of i_{0 x X} w  (dim S = 2)",
        sample_difference(lhs, rhs, rng, 8), 1e-12, config,
        {"domain": "torus2", "nodes": domT.n_nodes}, order_note="floor"))

    # rule 4 on the interval, with the exact boundary sign
    iv = interval(config.interval_nodes)
    bdom = iv.boundary()
    for n4 in (1, 2):
        beta = rand_product(1, 2, n4, rng)
        dfib = exterior_derivative(fiber_integrate(beta, iv), step=1e-5)
        fibd = fiber_integrate(product_form(
            1, 2, exterior_derivative(beta.chart_form)), iv)
        lhs = form_sum(dfib, form_scale(-1.0, fibd))
        sign = (-1.0) ** (n4 - 1)
        rhs = form_scale(sign, fiber_integrate(beta, bdom))
        res = sample_difference(lhs, rhs, rng, 8)
        flipped = sample_difference(lhs, form_scale(-sign, fiber_integrate(
            beta, bdom)), rng, 8)
        records.append(_record(
            f"fiber-rule-boundary-n{n4}",
            "d (S-integral) - S-integral of d = (-1)^(n-k) boundary integral",
            res, IDENTITY_TOL, config,
            {"domain": "interval", "nodes": iv.n_nodes},
            order_note="fd",
            detail=f"flipped-sign residual {flipped:.3e}"))
        records.append(_record(
            f"fiber-rule-boundary-sign-n{n4}",
            "the boundary term enters with (-1)^(n-k), not the opposite sign",
            0.0 if flipped > 1e-3 else 1.0, 1e-12, config,
            {"domain": "interval", "nodes": iv.n_nodes},
            order_note="floor",
            detail=f"flipped-sign residual {flipped:.3e} must be O(1)"))
    return records


# ---------------------------------------------------------------------------
# boundary identity on the interval

def run_boundary(config: SuiteConfig):
    records = []
    iv = interval(config.interval_nodes)
    bdom = iv.boundary()

    def identity_residual(om, a_scalar, f, ts, h, drop_boundary=False):
        """Signed relative residual of the boundary derivation identity."""
        al = coefficient_form(1, 0, {(): a_scalar})
        lhs = map_space_d(hat_pairing(om, al, iv), h)
        terms = [hat_pairing(exterior_derivative(om), al, iv),
                 mapspace_scale((-1.0) ** om.degree,
                                hat_pairing(om, exterior_derivative(al), iv))]
        if not drop_boundary:
            terms.append(mapspace_scale((-1.0) ** (om.degree - 1),
                                        boundary_pullback(hat_pairing(om, al, bdom))))
        return _relative(lhs(f, *ts), mapspace_sum(*terms)(f, *ts))

    def boundary_residual(p, rngx, h):
        om = cat.random_form(3, p, rngx, amp=0.8)
        a_scalar = cat.random_scalar(1, rngx, integer_modes=False)
        f = cat.random_map(iv, 3, rngx, amp=0.8)
        ts = [cat.random_tangent(f, rngx, amp=0.8) for _ in range(p)]
        return identity_residual(om, a_scalar, f, ts, h)

    # the quadrature mismatch of the end-corrected weights is h-independent
    ladder_steps = tuple(4.0 * h for h in config.order_steps)
    for p in (1, 2):
        worst = max(abs(boundary_residual(p, np.random.default_rng(
            [config.seed, 50, p, i]), config.fd_step)) for i in range(config.trials))
        order, note = _floor_subtracted_order(
            lambda h: boundary_residual(p, np.random.default_rng([config.seed, 51, p]), h),
            ladder_steps)
        records.append(_record(
            f"boundary-derivation-p{p}",
            "d(w.a)^ = (dw.a)^ + (-1)^p (w.da)^ + (-1)^(p+q-k) r_bd*(w.a|bd)^",
            worst, IDENTITY_TOL, config,
            {"domain": "interval", "nodes": iv.n_nodes, "fd_step": config.fd_step},
            order=order, order_target=ORDER_TARGET, order_note=note))

    # designed witness: w = dx, a(s) = 1 + s and the constant tangent e_x
    # satisfy the identity exactly with the endpoint term a(1) - a(0) = 1,
    # so dropping that term leaves a relative residual of 1
    rng = np.random.default_rng([config.seed, 52])
    dx = coordinate_form((0,), 3)
    one_plus_s = scalar_sum([scalar_const(1.0, 1), scalar_coordinate(0, 1)])
    f = cat.random_map(iv, 3, rng, amp=0.8)
    ex = [MapTangent(f, np.tile([1.0, 0.0, 0.0], (iv.n_nodes, 1)))]
    witness = abs(identity_residual(dx, one_plus_s, f, ex, config.fd_step,
                                    drop_boundary=True))
    endpoint = boundary_pullback(hat_pairing(
        dx, coefficient_form(1, 0, {(): one_plus_s}), bdom))(f, *ex)
    records.append(_record(
        "boundary-witness",
        "without the boundary term the defect is O(1) (sign sensitivity)",
        0.0 if witness > 1e-2 else 1.0, 1e-12, config,
        {"domain": "interval", "nodes": iv.n_nodes},
        order_note="floor", detail=f"residual without boundary term {witness:.3e}, "
                                   f"endpoint term {endpoint:.3e}"))

    # q = 1 on the interval: both correction terms vanish
    rng = np.random.default_rng([config.seed, 53])
    om = cat.random_form(3, 2, rng, amp=0.8)
    al = cat.random_form(1, 1, rng, amp=0.8)
    W = hat_pairing(om, al, iv)
    lhs = map_space_d(W, config.fd_step)
    rhs = hat_pairing(exterior_derivative(om), al, iv)
    f = cat.random_map(iv, 3, rng, amp=0.8)
    ts = [cat.random_tangent(f, rng) for _ in range(3)]
    a, b = lhs(f, *ts), rhs(f, *ts)
    records.append(_record(
        "boundary-top-degree",
        "d(w.a)^ = (dw.a)^ when a has top degree on the interval",
        _scaled(a - b, a, b), IDENTITY_TOL, config,
        {"domain": "interval", "nodes": iv.n_nodes, "fd_step": config.fd_step},
        order_note="fd"))
    return records


# ---------------------------------------------------------------------------
# momentum maps

def run_momentum(config: SuiteConfig):
    records = []
    rng = np.random.default_rng([config.seed, 60])
    sys = me.canonical_r2()
    sys.validate(rng)
    dom = circle(config.nodes)
    ob = bar_map(sys.omega, dom)

    # lifted finite-dimensional action
    act = me.se2_action()

    def lifted_residual(h):
        rngl = np.random.default_rng([config.seed, 61])
        worst = 0.0
        for a in range(act.dim_g):
            g = cat.random_map(dom, 2, rngl, amp=0.8)
            Y = cat.random_tangent(g, rngl)
            worst = max(worst, me.hamiltonian_identity_residual(
                ob, lambda mp, a=a: generator_M(act.generators[a], mp),
                lambda mp, a=a: me.momentum_lifted(act, dom, mp)[a], g, Y, h))
        return worst

    worst = lifted_residual(config.fd_step)
    ladder = [lifted_residual(h) for h in config.order_steps]
    order, note = fit_order(config.order_steps, ladder)
    records.append(_record(
        "momentum-lifted-identity",
        "i_{gen} omega bar = d<Jbar, xi> for the lifted finite-dim action",
        worst, IDENTITY_TOL, config,
        {"domain": "circle", "nodes": dom.n_nodes, "fd_step": config.fd_step},
        order=order, order_target=ORDER_TARGET, order_note=note))

    circle_map = cat.unit_circle_map(dom, 2)
    J = me.momentum_lifted(act, dom, circle_map)
    records.append(_record(
        "momentum-lifted-values",
        "averaged momenta of the unit circle: (-1/2, 0, 0) for (rot, tx, ty)",
        float(np.max(np.abs(J - np.array([-0.5, 0.0, 0.0])))), 1e-10, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    const_map = MapPoint(dom, np.tile([0.3, -0.7], (dom.n_nodes, 1)))
    Jc = me.momentum_lifted(act, dom, const_map)
    expect = np.array([m(np.array([0.3, -0.7])) for m in act.momenta])
    records.append(_record(
        "momentum-lifted-constant-map",
        "a constant map returns the base momentum exactly (normalized mu)",
        float(np.max(np.abs(Jc - expect))), 1e-12, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    # hamiltonian diffeomorphisms of M
    def diffham_residual(h):
        rngh = np.random.default_rng([config.seed, 62])
        worst = 0.0
        for p in sys.catalog[:3]:
            g = cat.random_map(dom, 2, rngh, amp=0.8)
            Y = cat.random_tangent(g, rngh)
            worst = max(worst, me.hamiltonian_identity_residual(
                ob, lambda mp, p=p: generator_M(p.field, mp),
                lambda mp, p=p: me.momentum_diffham(sys, dom, mp, p), g, Y, h))
        return worst

    worst = diffham_residual(config.fd_step)
    ladder = [diffham_residual(h) for h in config.order_steps]
    order, note = fit_order(config.order_steps, ladder)
    records.append(_record(
        "momentum-diffham-identity",
        "i_{Xbar_h} omega bar = d(h bar) with h normalized at the base point",
        worst, IDENTITY_TOL, config,
        {"domain": "circle", "nodes": dom.n_nodes, "fd_step": config.fd_step},
        order=order, order_target=ORDER_TARGET, order_note=note))

    records.append(_record(
        "momentum-diffham-circle-value",
        "<J(unit circle), X_x> = mean of cos = 0",
        abs(me.momentum_diffham(sys, dom, circle_map, sys.pair("x"))), 1e-12,
        config, {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    # exact volume preserving diffeomorphisms of S = T^2
    domt = torus2(config.torus_side)
    om_ex = me.exact_two_form(coefficient_form(
        4, 1, {(2,): cat.scalar_coordinate(0, 4)}, name="u1 du3"))
    # a potential with varying coefficients, so the identity is FD-limited
    om_curved = me.exact_two_form(coefficient_form(
        4, 1,
        {(2,): cat.scalar_coordinate(0, 4),
         (1,): trig_scalar(4, [[1.0, 0.0, 0.0, 0.7]], [0.4], [0.2])},
        name="curved potential"))

    f4 = cat.torus_graph_map(domt)
    alpha = ScalarField(domt, np.sin(domt.nodes[:, 0]) * np.sin(domt.nodes[:, 1]))
    x, y = domt.nodes[:, 0], domt.nodes[:, 1]
    oracle = float(np.sum(domt.weights * np.sin(x) ** 2 * np.sin(y) ** 2))
    r1, r2 = me.momentum_diffex(om_ex, domt, f4, alpha, return_routes=True)
    records.append(_record(
        "momentum-diffex-value",
        "<J(f), X_alpha> = direct quadrature of the pulled-back integrand",
        max(abs(r1 - oracle), abs(r2 - oracle), abs(r1 - r2)), 1e-9, config,
        {"domain": "torus2", "nodes": domt.n_nodes},
        order_note="floor", detail=f"value {r1:.12f}, oracle {oracle:.12f}"))

    def diffex_residual(h):
        rngx = np.random.default_rng([config.seed, 63])
        g = cat.random_map(domt, 4, rngx, amp=0.7)
        Y = cat.random_tangent(g, rngx)
        a = cat.random_stream(domt, rngx, max_mode=2)
        return me.diffex_identity_residual(om_curved, domt, g, a, Y, h)

    worst = diffex_residual(config.fd_step)
    ladder = [diffex_residual(h) for h in config.order_steps]
    order, note = fit_order(config.order_steps, ladder)
    records.append(_record(
        "momentum-diffex-identity",
        "d<J, X_alpha> = i_{gen(alpha)} omega bar on F(T^2, R^4)",
        worst, IDENTITY_TOL, config,
        {"domain": "torus2", "nodes": domt.n_nodes, "fd_step": config.fd_step},
        order=order, order_target=ORDER_TARGET, order_note=note))

    records.append(_record(
        "momentum-diffex-trivial",
        "constant alpha or constant f give zero momentum",
        max(abs(me.momentum_diffex(om_ex, domt, f4,
                                   ScalarField(domt, np.zeros(domt.n_nodes)))),
            abs(me.momentum_diffex(om_ex, domt, MapPoint(
                domt, np.tile([0.2, 0.4, -0.1, 0.3], (domt.n_nodes, 1))), alpha))),
        1e-12, config, {"domain": "torus2", "nodes": domt.n_nodes},
        order_note="floor"))
    return records


# ---------------------------------------------------------------------------
# cocycles

def run_cocycles(config: SuiteConfig):
    records = []
    rng = np.random.default_rng([config.seed, 70])
    sys = me.canonical_r2()
    dom = circle(config.nodes)

    sx, sy, sxy = sys.pair("x"), sys.pair("y"), sys.pair("xy")
    ssin, sr2 = sys.pair("sin_x"), sys.pair("r2/2")

    vals = [me.cocycle_diffham_defining(sys, dom, cat.random_map(
        dom, 2, rng, amp=0.7), sx, sy) for _ in range(6)]
    records.append(_record(
        "cocycle-diffham-dual-route",
        "<J(f),[X,Y]op> - omega bar(Xbar,Ybar)(f) = -omega(X,Y)(x0)",
        max(abs(v - me.cocycle_diffham(sys, sx, sy)) for v in vals), IDENTITY_TOL,
        config, {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor",
        detail=f"sigma(x,y) = {me.cocycle_diffham(sys, sx, sy)!r}"))

    records.append(_record(
        "cocycle-diffham-f-independence",
        "the defining difference does not depend on the map",
        max(vals) - min(vals), 1e-8, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    pairs = [sx, sy, sxy, ssin, sr2]
    anti = max(abs(me.cocycle_diffham(sys, a, b) + me.cocycle_diffham(sys, b, a))
               for a in pairs for b in pairs)
    records.append(_record(
        "cocycle-diffham-antisymmetry",
        "sigma(X,Y) = -sigma(Y,X) and sigma(X,X) = 0",
        anti, 1e-12, config, {"domain": "circle", "nodes": dom.n_nodes},
        order_note="floor"))

    # cyclic 2-cocycle identity with analytic brackets
    def sigma_op(Xp, Yp):
        b = me.opposite_bracket(Xp.field, Yp.field)
        hb = me.hamiltonian_of(sys, b)
        return me.HamiltonianPair("b", cat.ScalarFunc(hb, None), b)

    worst = 0.0
    for (a, b, c) in [(sx, sy, sxy), (sxy, ssin, sr2), (sx, sxy, sr2)]:
        total = 0.0
        for (u, v, w) in [(a, b, c), (b, c, a), (c, a, b)]:
            br = sigma_op(u, v)
            total += me.cocycle_diffham(sys, br, w)
        worst = max(worst, abs(total))
    records.append(_record(
        "cocycle-diffham-jacobi",
        "sum over cyclic permutations of sigma([X,Y],Z) = 0",
        worst, IDENTITY_TOL, config, {"domain": "circle", "nodes": dom.n_nodes},
        order_note="floor"))

    # lifted action cocycle: value and f-independence
    act = me.se2_action()
    base = me.cocycle_lifted_base(act, sys, 1, 2)
    spread = [me.cocycle_lifted(act, sys, dom, cat.random_map(
        dom, 2, rng, amp=0.7), 1, 2) for _ in range(4)]
    records.append(_record(
        "cocycle-lifted-translations",
        "<Jbar,[tx,ty]> - omega bar(tx,ty) = -omega(tx,ty) = -1, f-independent",
        max(abs(v - base) for v in spread) + abs(base + 1.0), 1e-10, config,
        {"domain": "circle", "nodes": dom.n_nodes}, order_note="floor"))

    jac = 0.0
    for (i, j, k) in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        total = 0.0
        for (a, b, c) in [(i, j, k), (j, k, i), (k, i, j)]:
            coeffs = act.structure[a, b]
            total += sum(coeffs[l] * me.cocycle_lifted_base(act, sys, l, c)
                         for l in range(act.dim_g))
        jac = max(jac, abs(total))
    records.append(_record(
        "cocycle-lifted-jacobi",
        "cyclic sum of sigma([e_i,e_j],e_k) = 0 via structure constants",
        jac, 1e-12, config, {"domain": "circle", "nodes": dom.n_nodes},
        order_note="floor"))

    # S-side cocycle on the torus
    domt = torus2(config.torus_side)
    theta = coefficient_form(4, 1, {(2,): cat.scalar_coordinate(0, 4)})
    om_ex = me.exact_two_form(theta)
    a1 = cat.random_stream(domt, rng, max_mode=2)
    a2 = cat.random_stream(domt, rng, max_mode=2)
    worst = 0.0
    for _ in range(config.trials):
        g = cat.random_map(domt, 4, rng, amp=0.7)
        s_form = me.cocycle_diffex(om_ex, domt, g, a1, a2)
        s_def = me.cocycle_diffex_defining(om_ex, domt, g, a1, a2)
        worst = max(worst, abs(s_form - s_def))
    records.append(_record(
        "cocycle-diffex-dual-route",
        "<J(f),[X,Y]> - omega bar = integral of f*omega against P(i i mu)",
        worst, IDENTITY_TOL, config,
        {"domain": "torus2", "nodes": domt.n_nodes}, order_note="floor"))

    base_map = cat.random_map(domt, 4, rng, amp=0.7)
    bump = cat.random_map(domt, 4, rng, amp=0.5)
    vals = [me.cocycle_diffex(om_ex, domt, MapPoint(
        domt, base_map.values + t * bump.values), a1, a2)
        for t in np.linspace(0.0, 1.0, 5)]
    records.append(_record(
        "cocycle-diffex-homotopy",
        "the value is constant along an explicit homotopy of maps",
        max(vals) - min(vals), IDENTITY_TOL, config,
        {"domain": "torus2", "nodes": domt.n_nodes}, order_note="floor"))

    a3 = cat.random_stream(domt, rng, max_mode=2)
    jacx = 0.0
    total = 0.0
    for (u, v, w) in [(a1, a2, a3), (a2, a3, a1), (a3, a1, a2)]:
        br = me.stream_bracket(domt, u, v)
        br = ScalarField(domt, br.values - br.values.mean())
        total += me.cocycle_diffex(om_ex, domt, base_map, br, w)
    records.append(_record(
        "cocycle-diffex-jacobi",
        "cyclic sum of sigma([X,Y],Z) = 0 on stream functions",
        abs(total), IDENTITY_TOL, config,
        {"domain": "torus2", "nodes": domt.n_nodes}, order_note="floor"))

    # volume-integral cocycle on the meshed surface
    eta = cat.coordinate_form((0, 1), 2, 2.5)
    nu_n = volume_form(2, 1.0 / domt.volume)
    ex = constant_field([1.0, 0.0])
    ey = constant_field([0.0, 1.0])
    v1 = me.lichnerowicz(domt, eta, ex, ey, nu_n)
    v2 = me.lichnerowicz(domt, eta, ey, ex, nu_n)
    v3 = me.lichnerowicz(domt, eta, ex, ex, nu_n)
    records.append(_record(
        "lichnerowicz-values",
        "volume-integral cocycle: constant data gives the coefficient; antisymmetric",
        max(abs(v1 - 2.5), abs(v2 + 2.5), abs(v3)), 1e-10, config,
        {"domain": "torus2", "nodes": domt.n_nodes}, order_note="floor"))

    X1 = nodal_vector_field(domt, me.exact_divfree_field(domt, a1))
    X2 = nodal_vector_field(domt, me.exact_divfree_field(domt, a2))
    eta_r = cat.random_form(2, 2, rng, integer_modes=True)
    lvals = (me.lichnerowicz(domt, eta_r, X1, X2, nu_n),
             me.lichnerowicz(domt, eta_r, X2, X1, nu_n))
    records.append(_record(
        "lichnerowicz-antisymmetry",
        "the cocycle is antisymmetric on divergence-free fields",
        abs(lvals[0] + lvals[1]), 1e-10, config,
        {"domain": "torus2", "nodes": domt.n_nodes}, order_note="floor"))
    return records


# ---------------------------------------------------------------------------
# open-string boundary data

def brane_catalog(config: SuiteConfig):
    iv = interval(config.interval_nodes)
    D3 = me.affine_subspace([0.0, 0.0, 0.0],
                            np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    B3 = coefficient_form(2, 2, {(0, 1): trig_scalar(
        2, [[0.7, 0.3], [0.2, -0.5]], [0.8, 0.5], [0.1, 1.2])}, name="closed B")
    B0 = coefficient_form(2, 2, {(0, 1): scalar_const(0.0, 2)}, name="0")
    H4 = coefficient_form(4, 3, {(0, 1, 2): cat.scalar_coordinate(2, 4)},
                          name="z dx^dy^dz")
    D4 = me.affine_subspace(np.zeros(4), np.eye(4)[:, :3])
    xz = cat.ScalarFunc(lambda u: u[..., 0] * u[..., 2],
                        lambda u: np.stack([u[..., 2], 0.0 * u[..., 1], u[..., 0]], axis=-1),
                        lambda u: broadcast_rows([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0],
                                                  [1.0, 0.0, 0.0]], u))
    B4 = coefficient_form(3, 2, {(1, 2): xz}, name="xz dy^dz")
    B4bad = coefficient_form(3, 2, {(1, 2): scalar_const(0.0, 3)}, name="0")
    return iv, [
        ("plane-closed-B", volume_form(3), B3, D3, True),
        ("plane-zero-B", volume_form(3), B0, D3, True),
        ("r4-sourced-B", H4, B4, D4, True),
        ("r4-inconsistent", H4, B4bad, D4, False),
    ]


def run_branes(config: SuiteConfig):
    records = []
    iv, cases = brane_catalog(config)
    for idx, (name, H, B, D, should_apply) in enumerate(cases):
        rng = np.random.default_rng([config.seed, 80, idx])
        rep = me.brane_twist_check(H, B, D, iv, rng, n_trials=2,
                                   fd_step=config.fd_step)
        if should_apply:
            records.append(_record(
                f"brane-{name}",
                "d( H^ - bd*(B^bd) ) = 0 on maps with boundary in D",
                rep.closedness_residual if rep.applicable else 1.0, 1e-5, config,
                {"domain": "interval", "nodes": iv.n_nodes,
                 "fd_step": config.fd_step},
                order_note="fd",
                detail=f"gate residual {rep.gate_residual:.3e}"))
        else:
            records.append(_record(
                f"brane-{name}",
                "an inconsistent (H, B) pair is rejected, not passed",
                0.0 if (not rep.applicable and not rep.passed) else 1.0,
                1e-12, config,
                {"domain": "interval", "nodes": iv.n_nodes},
                order_note="floor", detail=rep.reason))

    # boundary-tangency violation must render the check inapplicable
    rng = np.random.default_rng([config.seed, 81])
    name, H, B, D, _ = cases[0]
    g, ts = me.constrained_random_data(iv, D, rng, 3)
    bad = [MapTangent(g, ts[0].vectors + np.array([0.0, 0.0, 0.5]))] + ts[1:]
    rep = me.brane_twist_check(H, B, D, iv, rng, f=g, tangent_sets=[bad],
                               n_trials=1, fd_step=config.fd_step)
    records.append(_record(
        "brane-tangency-gate",
        "boundary data off the subspace is reported inapplicable",
        0.0 if (not rep.applicable and not rep.passed) else 1.0, 1e-12, config,
        {"domain": "interval", "nodes": iv.n_nodes}, order_note="floor",
        detail=rep.reason))
    return records


SUITES = {
    "hat-calculus": run_hat_calculus,
    "bar-calculus": run_bar_calculus,
    "tilda-calculus": run_tilda_calculus,
    "fiber-rules": run_fiber_rules,
    "boundary": run_boundary,
    "momentum": run_momentum,
    "cocycles": run_cocycles,
    "branes": run_branes,
}


def run_suite(name: str, config: SuiteConfig):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    return SUITES[name](config)
