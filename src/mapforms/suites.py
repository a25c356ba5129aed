"""Identity suites: every structural identity of the calculus as a
measured residual with a tolerance and, where finite differencing limits
the accuracy, an observed refinement order.

Each suite function takes a SuiteConfig and returns a list of TestRecords
in a fixed order; all randomness is drawn from a generator seeded by the
config, so reports are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import catalog as cat
from . import grassmannian as gr
from . import mechanics as me
from .charts import DEFAULT_FD_STEP, affine_map, constant_field, rotation3, worst
from .domains import (ScalarField, circle, interval, make_domain,
                      nodal_vector_field, torus2)
from .forms import (broadcast_rows, exterior_derivative, fiber_integrate,
                    form_scale, form_sum, interior, pullback,
                    sample_difference, scalar_const, scalar_coordinate,
                    scalar_sum, coefficient_form, coordinate_form,
                    vertical_field, volume_form, product_map,
                    lie_derivative, trig_scalar)
from .mapspace import (MapPoint, MapStack, MapTangent, action_pullback_M,
                       action_pullback_S, bar_map, bar_map_direct,
                       boundary_pullback, generator_M, generator_S,
                       hat_gram, hat_map, hat_pairing, hat_pairing_fiber,
                       map_space_d, map_space_interior, map_space_lie,
                       map_space_lie_flow, mapspace_scale, mapspace_sum,
                       pushforward_tangent)
from .report import CONVENTIONS, TestRecord, fit_order

IDENTITY_TOL = 1e-6
ORDER_TARGET = 1.9
# random cases per ladder record, and the FD steps its order is fitted on
TRIALS = 3
ORDER_STEPS = (4e-3, 2e-3, 1e-3, 5e-4)
# the smallest grids on which all eight suites pass at seeds 0-23, each
# measured with the other grids at their defaults (ladders in the README)
GRID_MINIMUMS = {"nodes": 26, "torus_side": 24, "interval_nodes": 43}


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 7
    nodes: int = 48            # circle nodes
    torus_side: int = 24
    interval_nodes: int = 65

    def __post_init__(self):
        """Reject bad input as a usage error before any identity runs."""
        def integral(value):
            return isinstance(value, numbers.Integral) and not isinstance(value, bool)

        if not integral(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name in ("nodes", "torus_side", "interval_nodes"):
            value = getattr(self, name)
            if not integral(value) or value <= 0:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        for name, least in GRID_MINIMUMS.items():
            if getattr(self, name) < least:
                raise ValueError(
                    f"{name} must be at least {least} for the identities to resolve "
                    f"at their tolerances, got {getattr(self, name)}")

    def environment(self) -> dict:
        """The report's record of the grids and the seed, with the FD step,
        the trial count and the conventions in force."""
        return {"nodes": self.nodes, "torus_side": self.torus_side,
                "interval_nodes": self.interval_nodes, "fd_step": DEFAULT_FD_STEP,
                "seed": self.seed, "trials": TRIALS, "conventions": dict(CONVENTIONS)}

    def domains(self) -> dict:
        return {
            "circle": circle(self.nodes),
            "torus2": torus2(self.torus_side),
            "interval": interval(self.interval_nodes),
        }


class _Records(list):
    """The records of one suite run; every record carries the config's seed
    and a mesh dict derived from its source domain."""

    def __init__(self, config: SuiteConfig):
        super().__init__()
        self.config = config

    def add(self, test_id, statement, residual, tol, dom, fd=False, fit=None,
            order_note="floor", detail=""):
        """Append a record; `fd` adds the FD step to the mesh, and `fit` is
        the (order, note) of a refinement ladder with target ORDER_TARGET."""
        mesh = {"domain": dom.kind, "nodes": dom.n_nodes}
        if fd:
            mesh["fd_step"] = DEFAULT_FD_STEP
        order = order_target = None
        if fit is not None:
            (order, order_note), order_target = fit, ORDER_TARGET
        passed = residual < tol and (order is None or order >= order_target)
        self.append(TestRecord(test_id=test_id, statement=statement,
                               residual=float(residual), tolerance=float(tol),
                               passed=bool(passed), seed=self.config.seed,
                               mesh=mesh, order=order, order_target=order_target,
                               order_note=order_note, detail=detail))

    def gap(self, test_id, statement, lhs, rhs, at, tol, dom, **kw):
        """Append |_gap(lhs, rhs, *at)| at the map and tangents `at`."""
        self.add(test_id, statement, abs(_gap(lhs, rhs, *at)), tol, dom, **kw)

    def gate(self, test_id, statement, ok, dom, detail):
        """Append a 0/1 gate: residual 0 when `ok`, else 1, against 1e-12."""
        self.add(test_id, statement, 0.0 if ok else 1.0, 1e-12, dom, detail=f"gate: {detail}")

    def ladder(self, test_id, statement, dom, residual, trial_keys, ladder_key,
               steps=ORDER_STEPS):
        """Record an FD-limited identity given residual(rng), which draws one
        case from rng and returns its signed residual as a function of the
        step h: the worst |r(DEFAULT_FD_STEP)| over the draws seeded by
        [seed, *key] for each trial key, and the order fitted to
        |r(h) - r(2e-5)| over `steps` on the draw [seed, *ladder_key].  Each
        distinct key is drawn once, so a ladder key that is also a trial key
        reuses that trial's case.  The tiny reference step removes an error
        floor that does not depend on h (quadrature or differentiation
        mismatch of the sampled data)."""
        seed = self.config.seed
        cases = {key: residual(np.random.default_rng([seed, *key]))
                 for key in dict.fromkeys([*trial_keys, ladder_key])}
        at = cases[ladder_key]
        floor = at(2e-5)
        self.add(test_id, statement,
                 worst(abs(cases[key](DEFAULT_FD_STEP)) for key in trial_keys),
                 IDENTITY_TOL, dom, fd=True,
                 fit=fit_order(steps, [abs(at(h) - floor) for h in steps]))


def _relative(a: float, b: float) -> float:
    """Signed a - b relative to max(1, |a|, |b|)."""
    return (a - b) / max(1.0, abs(a), abs(b))


def _gap(lhs, rhs, f, *ts) -> float:
    """Signed lhs - rhs at (f, ts), relative to max(1, |lhs|, |rhs|)."""
    return _relative(lhs(f, *ts), rhs(f, *ts))


# ---------------------------------------------------------------------------
# random case helpers

def _hat_case(dom, m, p, q, rng):
    amp = 0.8
    om = cat.random_form(m, p, rng, amp=amp)
    al = cat.random_form(dom.chart_dim, q, rng, amp=amp, integer_modes=True)
    f = cat.random_map(dom, m, rng, amp=amp)
    n = p + q - dom.dim
    ts = [cat.random_tangent(f, rng, amp=amp) for _ in range(n)]
    return om, al, f, ts


def two_route_residual(dom, m, p, q, rng) -> float:
    """Relative disagreement of the pointwise and fiber-integration routes
    on one random case."""
    om, al, f, ts = _hat_case(dom, m, p, q, rng)
    return abs(_gap(hat_pairing(om, al, dom), hat_pairing_fiber(om, al, dom), f, *ts))


TWO_ROUTE_SIGNATURES = {
    "circle": (3, [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1)]),
    "torus2": (4, [(2, 0), (3, 0), (1, 2), (2, 1), (2, 2)]),
    "interval": (3, [(1, 0), (2, 0), (2, 1)]),
}

# (kind, m, p, q) of the derivation-* ladders; `converge` runs a kind's first
DERIVATION_CASES = [("circle", 3, 2, 0), ("circle", 3, 1, 1), ("torus2", 4, 2, 1)]


_KIND_SALT = {"circle": 101, "torus2": 102, "interval": 103}


def two_route_sweep(kind: str, cases: int, config: SuiteConfig):
    """Worst relative two-route disagreement over `cases` random cases."""
    rng = np.random.default_rng([config.seed, _KIND_SALT[kind]])
    dom = make_domain(kind, {"circle": min(config.nodes, 64), "torus2": 256,
                             "interval": min(config.interval_nodes, 65)}[kind])
    m, sigs = TWO_ROUTE_SIGNATURES[kind]
    return worst(two_route_residual(dom, m, *sigs[i % len(sigs)], rng)
                 for i in range(cases)), dom


# ---------------------------------------------------------------------------
# hat calculus

def derivation_terms(om, al, dom) -> list:
    """The right-hand side of the derivation identity, one form per term:
    (dw.a)^, then (-1)^p (w.da)^ unless a has top degree, then, when S has
    a boundary, (-1)^(p+q-k) r_bd*(w.a|bd)^."""
    p, q, k = om.degree, al.degree, dom.dim
    terms = [hat_pairing(exterior_derivative(om), al, dom)]
    if q < k:  # d(alpha) vanishes identically only at top degree
        terms.append(mapspace_scale((-1.0) ** p,
                                    hat_pairing(om, exterior_derivative(al), dom)))
        bdom = dom.boundary()
        if bdom is not None:
            terms.append(mapspace_scale((-1.0) ** (p + q - k),
                                        boundary_pullback(hat_pairing(om, al, bdom))))
    return terms


def derivation_identity(om, al, dom, f, ts, terms):
    """Signed relative residual of d(w.a)^ = sum of `terms` at (f, ts) as a
    function of the FD step h; the right-hand side is evaluated once."""
    rhs = mapspace_sum(*terms)(f, *ts)
    W = hat_pairing(om, al, dom)
    return lambda h: _relative(map_space_d(W, h)(f, *ts), rhs)


def derivation_residual(dom, m, p, q, rng):
    """derivation_identity with every term, on one random case drawn from
    rng."""
    om, al, f, ts = _hat_case(dom, m, p, q, rng)
    ts = [*ts, cat.random_tangent(f, rng)]
    return derivation_identity(om, al, dom, f, ts, derivation_terms(om, al, dom))


def run_hat_calculus(config: SuiteConfig):
    doms = config.domains()
    records = _Records(config)
    rng = np.random.default_rng([config.seed, 1])

    # two-route agreement, spot level
    for kind, (m, sigs) in TWO_ROUTE_SIGNATURES.items():
        dom = doms[kind] if kind != "torus2" else torus2(16)
        records.add(f"two-route-{kind}",
                    "(w.a)^ pointwise route = fiber-integration route",
                    worst(two_route_residual(dom, m, p, q, rng) for p, q in sigs),
                    IDENTITY_TOL, dom)

    # derivation identity with refinement order in the FD step
    for kind, m, p, q in DERIVATION_CASES:
        dom = doms[kind]
        records.ladder(f"derivation-{kind}-p{p}q{q}",
                       "d(w.a)^ = (dw.a)^ + (-1)^p (w.da)^", dom,
                       lambda rngx: derivation_residual(dom, m, p, q, rngx),
                       [(2, i) for i in range(TRIALS)], (3,))

    # push-forward action identity, affine (exact) and nonlinear target map
    dom = doms["circle"]
    rngA = np.random.default_rng([config.seed, 4])
    om, al, f, ts = _hat_case(dom, 3, 2, 0, rngA)
    eta_map = cat.ChartMap(
        lambda u: np.column_stack([u, np.sin(u[:, 0]) * u[:, 1]]), 2, 3,
        jacobian_func=lambda u: np.concatenate([broadcast_rows(np.eye(2), u), np.column_stack(
            [np.cos(u[:, 0]) * u[:, 1], np.sin(u[:, 0])])[:, None]], axis=1),
        name="graph", batched=True)
    om3 = cat.random_form(3, 2, rngA)
    f2 = cat.random_map(dom, 2, rngA, amp=0.8)
    t2 = [cat.random_tangent(f2, rngA)]
    for test_id, statement, omX, phi, fX, tX, tol in [
            ("action-pushforward-affine",
             "phibar*(w.a)^ = (phi*w.a)^  (affine phi, exact nodewise)",
             om, rotation3([0.3, 1.0, 0.2], 0.7), f, ts, 1e-10),
            ("action-pushforward-naturality",
             "etabar*(w.a)^ = (eta*w.a)^ for any smooth eta: M1 -> M2",
             om3, eta_map, f2, t2, IDENTITY_TOL)]:
        W = hat_pairing(omX, al, dom)
        records.add(test_id, statement,
                    abs(action_pullback_M(W, phi)(fX, *tX)
                        - hat_pairing(pullback(omX, phi), al, dom)(fX, *tX)), tol, dom)

    # infinitesimal version with refinement order
    def lie_residual(rngL):
        omL, alL, fL, tsL = _hat_case(dom, 3, 2, 0, rngL)
        X = cat.random_affine_field(3, rngL, amp=0.6)
        WL = hat_pairing(omL, alL, dom)
        return lambda h: _gap(map_space_lie(WL, lambda g: generator_M(X, g), h),
                              hat_pairing(lie_derivative(omL, X, h), alL, dom), fL, *tsL)

    records.ladder("action-lie-M", "L_{Xbar}(w.a)^ = (L_X w.a)^", dom,
                   lie_residual, [(5,)], (5,))

    # insertion of generators
    rngI = np.random.default_rng([config.seed, 6])
    omI, alI, fI, _ = _hat_case(dom, 3, 2, 1, rngI)
    X = cat.random_affine_field(3, rngI, amp=0.8)
    WI = hat_pairing(omI, alI, dom)
    yI = cat.random_tangent(fI, rngI)
    records.gap("insert-generator-M", "i_{Xbar}(w.a)^ = (i_X w.a)^",
                map_space_interior(WI, lambda g: generator_M(X, g)),
                hat_pairing(interior(omI, X), alI, dom), (fI, yI), 1e-10, dom)

    Z = constant_field(np.array([0.4]), name="0.4 d/ds")
    records.gap("insert-generator-S", "i_{Zhat}(w.a)^ = (-1)^p (w.i_Z a)^",
                map_space_interior(WI, lambda g: generator_S(Z, g)),
                mapspace_scale((-1.0) ** omI.degree, hat_pairing(omI, interior(alI, Z), dom)),
                (fI, yI), 1e-10, dom)

    # reparameterization action: rigid shift (exact) and a warp
    rngS = np.random.default_rng([config.seed, 7])
    omS, alS, fS, _ = _hat_case(dom, 3, 2, 1, rngS)
    WS = hat_pairing(omS, alS, dom)
    yS = [cat.random_tangent(fS, rngS) for _ in range(2)]
    for test_id, psi, label, tol in [
            ("action-reparam-rigid", cat.rigid_shift(0.37),
             "rigid shift, interpolation exact", 1e-9),
            ("action-reparam-warp", cat.circle_warp(),
             "orientation-preserving warp", IDENTITY_TOL)]:
        records.gap(test_id, f"psihat*(w.a)^ = (w.psi*a)^  ({label})",
                    action_pullback_S(WS, psi), hat_pairing(omS, pullback(alS, psi), dom),
                    (fS, *yS), tol, dom)

    # infinitesimal reparameterization
    def lieS_residual(rngZ):
        omZ, alZ, fZ, _ = _hat_case(dom, 3, 2, 1, rngZ)
        WZ = hat_pairing(omZ, alZ, dom)
        tz = [cat.random_tangent(fZ, rngZ) for _ in range(2)]
        Zf = cat.random_scalar(1, rngZ, amp=0.5)
        Zfield = cat.VectorField(lambda s: Zf.value(s)[:, None], 1, batched=True)
        return lambda h: _gap(map_space_lie(WZ, lambda g: generator_S(Zfield, g), h),
                              hat_pairing(omZ, lie_derivative(alZ, Zfield, h), dom),
                              fZ, *tz)

    records.ladder("action-lie-S", "L_{Zhat}(w.a)^ = (w.L_Z a)^", dom,
                   lieS_residual, [(8,)], (8,))

    # dual-route Lie derivative: Cartan vs transported flow difference
    rngF = np.random.default_rng([config.seed, 9])
    omF, alF, fF, tsF = _hat_case(dom, 3, 2, 0, rngF)
    XF = cat.random_affine_field(3, rngF, amp=0.6)
    WF = hat_pairing(omF, alF, dom)
    Zc = constant_field(np.array([0.4]))
    for test_id, generator, pulled_back, label in [
            ("lie-dual-route-M", lambda g: generator_M(XF, g),
             lambda t: action_pullback_M(WF, XF.flow(t, 1)), "push-forward generator"),
            ("lie-dual-route-S", lambda g: generator_S(Zc, g),
             lambda t: action_pullback_S(WF, cat.rigid_shift(0.4 * t)),
             "rigid reparameterization")]:
        records.gap(test_id, f"Cartan formula = flow finite difference ({label})",
                    map_space_lie(WF, generator), map_space_lie_flow(pulled_back),
                    (fF, *tsF), 1e-5, dom, order_note="fd")

    # exact w, closed a, p+q = k: the induced function vanishes
    rngV = np.random.default_rng([config.seed, 10])
    cases = [(cat.random_form(3, 0, rngV), cat.random_loop(dom, 3, rngV),
              float(rngV.uniform(-1.0, 1.0))) for _ in range(20)]
    records.add("exact-closed-vanishing", "(w.a)^ = 0 for exact w, closed a, p+q = dim S",
                worst(abs(hat_pairing(h_pot.analytic_d, c, dom)(loop))
                      for h_pot, loop, c in cases), 1e-10, dom)

    # flat-model d∘d = 0 on F(S,M)
    rngD = np.random.default_rng([config.seed, 11])
    omD, alD, fD, _ = _hat_case(dom, 3, 2, 1, rngD)
    WD = hat_pairing(omD, alD, dom)
    ddW = map_space_d(map_space_d(WD))
    tsD = [cat.random_tangent(fD, rngD) for _ in range(4)]
    records.add("map-space-dd", "d(dW) = 0 on F(S,M) (constant extensions)",
                abs(ddW(fD, *tsD)), 1e-3, dom, fd=True, order_note="fd")
    return records


# ---------------------------------------------------------------------------
# bar calculus

def run_bar_calculus(config: SuiteConfig):
    records = _Records(config)
    dom = circle(config.nodes)
    rng = np.random.default_rng([config.seed, 20])
    om = cat.random_form(2, 2, rng, amp=0.8)
    f = cat.random_map(dom, 2, rng, amp=0.8)
    ts = [cat.random_tangent(f, rng) for _ in range(2)]

    W = bar_map(om, dom)
    records.gap("bar-direct-agreement", "(w.mu)^ = integral of w(Y...) against normalized mu",
                W, bar_map_direct(om, dom), (f, *ts), 1e-10, dom)

    phi = affine_map(np.array([[1.0, 0.4], [0.0, 1.0]]),
                     np.array([0.2, -0.1]), name="shear")
    records.gap("bar-pullback", "phibar* wbar = (phi*w)bar", action_pullback_M(W, phi),
                bar_map(pullback(om, phi), dom), (f, *ts), 1e-10, dom)

    X = cat.random_affine_field(2, rng, amp=0.6)
    records.gap("bar-lie", "L_{Xbar} wbar = (L_X w)bar",
                map_space_lie(W, lambda g: generator_M(X, g)),
                bar_map(lie_derivative(om, X), dom), (f, *ts),
                IDENTITY_TOL, dom, fd=True, order_note="fd")

    y = cat.random_tangent(f, rng)
    records.gap("bar-insert", "i_{Xbar} wbar = (i_X w)bar",
                map_space_interior(W, lambda g: generator_M(X, g)),
                bar_map(interior(om, X), dom), (f, y), 1e-10, dom)

    ts3 = [cat.random_tangent(f, rng) for _ in range(3)]
    records.gap("bar-d", "d wbar = (dw)bar", map_space_d(W),
                bar_map(exterior_derivative(om), dom), (f, *ts3),
                IDENTITY_TOL, dom, fd=True, order_note="fd")

    # symplectic coefficient form: closedness and the weights-x-coefficients
    # Gram matrix of the nodal tangent basis (nonsingular)
    sys = me.canonical_r2()
    dob = map_space_d(bar_map(sys.omega, dom))
    records.add("bar-symplectic-closed", "d(omega bar) = 0 for symplectic omega",
                abs(dob(f, *ts3)), IDENTITY_TOL, dom, fd=True, order_note="fd")

    small = circle(8)
    n = small.n_nodes
    G = hat_gram(sys.omega, volume_form(small.chart_dim, 1.0 / small.volume), small,
                 MapPoint(small, np.zeros((n, 2))))
    expected = np.kron(np.diag(small.weights / small.volume),
                       np.array([[0.0, 1.0], [-1.0, 0.0]]))
    sing = float(np.min(np.abs(np.linalg.eigvals(G))))
    records.add("bar-gram-nondegenerate",
                "Gram of omega bar on the nodal basis = weights x symplectic matrix, nonsingular",
                float(np.max(np.abs(G - expected))), 1e-12, small,
                detail=f"min |eigenvalue| {sing:.3e}")
    return records


# ---------------------------------------------------------------------------
# induced forms on embedded submanifolds

def unit_loop():
    """The unit circle in R^3 on 128 nodes with the volume form and the slot
    fields e_z and radial: the loop-space area pairing's reference point."""
    dom = circle(128)
    return SimpleNamespace(dom=dom, nu=volume_form(3),
                           circ=gr.embed(cat.unit_circle_map(dom, 3)),
                           ez=cat.named_field("e_z"), rad=cat.named_field("radial"))


def mw_links(config: SuiteConfig, loop, rng, offset=0.3):
    """Value of the area pairing at the unit loop on (e_z, radial), with
    records of that value, its odd symmetry, horizontality under the
    tangential field sin(3s) + offset, and closedness of hat(nu) on three
    tangents drawn from rng."""
    records = _Records(config)
    nu, circ, ez, rad = loop.nu, loop.circ, loop.ez, loop.rad
    val = gr.tilda_eval(nu, circ, [ez, rad])
    records.add("mw-circle-value",
                "volume pairing at the unit circle on (e_z, radial) = 2*pi",
                abs(val - 2.0 * np.pi), 1e-8, loop.dom)
    records.add("mw-odd-symmetry",
                "volume pairing at the unit circle on (e_z, e_x) = 0",
                abs(gr.tilda_eval(nu, circ, [ez, cat.named_field("e_x")])), 1e-10,
                loop.dom)

    tang = gr.tangential_tangent(circ, np.sin(3.0 * loop.dom.nodes[:, :1]) + offset)
    pert = MapTangent(circ.rep, generator_M(rad, circ.rep).vectors + tang.vectors)
    records.add("tilda-horizontality",
                "adding a tangential field to a slot leaves the value unchanged",
                abs(gr.tilda_eval(nu, circ, [ez, pert]) - val), 1e-8, loop.dom)

    dW = map_space_d(hat_map(nu, loop.dom))
    ts = [cat.random_tangent(circ.rep, rng) for _ in range(3)]
    records.add("mw-closedness", "d of the loop-space volume pairing vanishes",
                abs(dW(circ.rep, *ts)), IDENTITY_TOL, loop.dom, fd=True,
                order_note="fd")
    return val, records


def run_tilda_calculus(config: SuiteConfig):
    rng = np.random.default_rng([config.seed, 30])
    loop = unit_loop()
    val, records = mw_links(config, loop, rng)
    dom, nu, circ, ez, rad = loop.dom, loop.nu, loop.circ, loop.ez, loop.rad

    # ambient actions through representatives
    A = np.diag([1.3, 0.8, 1.1])
    for test_id, statement, phi, factor in [
            ("tilda-rotation-invariance", "rotations preserve the volume pairing",
             rotation3([0.2, 0.5, 1.0], 0.9), 1.0),
            ("tilda-shear-invariance",
             "volume-preserving linear maps preserve the volume pairing",
             affine_map(np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0],
                                  [0.0, 0.0, 1.0]]), name="shear"), 1.0),
            ("tilda-linear-scaling",
             "a linear map scales the volume pairing by its determinant",
             affine_map(A, name="scale"), np.linalg.det(A))]:
        moved = [pushforward_tangent(phi, generator_M(s, circ.rep)) for s in (ez, rad)]
        got = gr.tilda_eval(nu, gr.diffM_action_on_N(phi, circ), moved)
        records.add(test_id, statement, abs(got - factor * val), 1e-8, dom)

    # invariance under the reparameterization action
    om3 = cat.random_form(3, 2, rng, amp=0.8)
    hatW = hat_map(om3, dom)
    f = cat.random_loop(dom, 3, rng)
    y = cat.random_tangent(f, rng)
    records.gap("hat-basic-invariance", "psihat* w^ = w^ for orientation-preserving psi",
                action_pullback_S(hatW, cat.rigid_shift(0.61)), hatW, (f, y), 1e-9, dom)

    Zf = cat.random_scalar(1, rng, amp=0.5)
    Zfield = cat.VectorField(lambda s: Zf.value(s)[:, None], 1, batched=True)
    ins = map_space_interior(hatW, lambda g: generator_S(Zfield, g))
    records.add("hat-basic-horizontal", "i_{Zhat} w^ = 0 (vertical insertions vanish)",
                abs(ins(f)), 1e-10, dom)

    # bundle-relation consistency between the two code paths
    X1 = cat.random_affine_field(3, rng, amp=0.6)
    records.add("bundle-relation",
                "hat value on restricted global fields = submanifold pairing",
                abs(hatW(circ.rep, generator_M(X1, circ.rep))
                    - gr.tilda_eval(om3, circ, [X1])), 1e-12, dom)

    # orientation reversal flips the sign
    circ_rev = gr.embed(MapPoint(dom.with_orientation(-1), circ.rep.values))
    records.add("tilda-orientation-flip",
                "reversing the source orientation flips the pairing sign",
                abs(gr.tilda_eval(nu, circ_rev, [ez, rad]) + val), 1e-10, dom)

    # kernel of the pairing at a small loop = tangential directions
    small = circle(12)
    circ_s = gr.embed(cat.unit_circle_map(small, 3))
    G = gr.mw_gram_matrix(nu, circ_s)
    _, sv, Vt = np.linalg.svd(G)
    nkernel = int(np.sum(sv < 1e-10 * sv[0]))
    Tf_s = circ_s.rep.jacobian()
    # worst distance of a kernel vector from the nodal tangentials (columns of T)
    T = np.array([np.concatenate([Tf_s[i, :, 0] if i == j else np.zeros(3)
                                  for j in range(small.n_nodes)])
                  for i in range(small.n_nodes)]).T
    defect = worst(np.linalg.norm(T @ np.linalg.lstsq(T, vec, rcond=None)[0] - vec)
                   for vec in Vt[len(sv) - nkernel:]) if nkernel == small.n_nodes else 1.0
    records.add("mw-kernel-rank",
                "kernel of the nodal Gram matrix = tangential directions only",
                defect, 1e-8, small,
                detail=f"kernel dim {nkernel} of expected {small.n_nodes}")
    return records


# ---------------------------------------------------------------------------
# fiber integration rules

def _random_product(s_dim, v_dim, degree, rng, per=()):
    """Random product form on S x M whose coefficients have integer modes
    along the axes in `per` (periodic source directions)."""
    coeffs = {}
    for I in itertools.combinations(range(s_dim + v_dim), degree):
        K = rng.uniform(-1.0, 1.0, size=(2, s_dim + v_dim))
        for a in per:
            K[:, a] = rng.integers(-2, 3, size=2)
        coeffs[I] = trig_scalar(s_dim + v_dim, K, rng.uniform(-1, 1, 2),
                                rng.uniform(0, 2 * np.pi, 2))
    return coefficient_form(s_dim + v_dim, degree, coeffs)


def run_fiber_rules(config: SuiteConfig):
    records = _Records(config)
    rng = np.random.default_rng([config.seed, 40])
    dom = circle(config.nodes)

    # rule 1: pullback through the fiber integral
    w = _random_product(1, 2, 2, rng, per=[0])
    A = rng.uniform(-1.0, 1.0, (2, 2))
    g = cat.ChartMap(  # the Jacobian's nonlinear part is anti-diagonal
        lambda u: u @ A.T + 0.3 * np.column_stack([np.sin(u[:, 1]), u[:, 0] ** 2]), 2, 2,
        jacobian_func=lambda u: A + 0.3 * np.column_stack(
            [np.cos(u[:, 1]), 2.0 * u[:, 0]])[:, :, None] * [[0.0, 1.0], [1.0, 0.0]],
        batched=True)
    lhs = pullback(fiber_integrate(w, dom), g)
    rhs = fiber_integrate(pullback(w, product_map(None, g, 1, 2)), dom)
    records.add("fiber-rule-pullback", "g* (S-integral of w) = S-integral of (1 x g)* w",
                sample_difference(lhs, rhs, rng, 10), IDENTITY_TOL, dom)

    # rule 2: invariance under orientation-preserving reparameterization
    warp = cat.circle_warp()
    w2 = _random_product(1, 2, 2, rng, per=[0])
    lhs = fiber_integrate(pullback(w2, product_map(warp, None, 1, 2)), dom)
    records.add("fiber-rule-reparam",
                "S-integral of (psi x 1)* w = S-integral of w,  psi orientation preserving",
                sample_difference(lhs, fiber_integrate(w2, dom), rng, 10),
                IDENTITY_TOL, dom)

    # rule 3: insertion of target fields, on the circle and on the torus
    # (even-dimensional S)
    X = cat.random_affine_field(2, rng)
    for suffix, label, domS, samples in [("", "", dom, 10),
                                         ("-torus", "  (dim S = 2)", torus2(12), 8)]:
        k = domS.dim
        w3 = _random_product(k, 2, 3, rng, per=range(k))
        lhs = interior(fiber_integrate(w3, domS), X)
        rhs = fiber_integrate(interior(w3, vertical_field(X, k)), domS)
        records.add(f"fiber-rule-insertion{suffix}",
                    "i_X (S-integral of w) = S-integral of i_{0 x X} w" + label,
                    sample_difference(lhs, rhs, rng, samples), 1e-12, domS)

    # rule 4 on the interval, with the exact boundary sign
    iv = interval(config.interval_nodes)
    bdom = iv.boundary()
    for n4 in (1, 2):
        beta = _random_product(1, 2, n4, rng)
        dfib = exterior_derivative(fiber_integrate(beta, iv), step=1e-5)
        fibd = fiber_integrate(exterior_derivative(beta), iv)
        lhs = form_sum(dfib, form_scale(-1.0, fibd))
        sign = (-1.0) ** (n4 - 1)
        bd_integral = fiber_integrate(beta, bdom)
        res = sample_difference(lhs, form_scale(sign, bd_integral), rng, 8)
        flipped = sample_difference(lhs, form_scale(-sign, bd_integral), rng, 8)
        records.add(f"fiber-rule-boundary-n{n4}",
                    "d (S-integral) - S-integral of d = (-1)^(n-k) boundary integral",
                    res, IDENTITY_TOL, iv, order_note="fd",
                    detail=f"flipped-sign residual {flipped:.3e}")
        records.gate(f"fiber-rule-boundary-sign-n{n4}",
                     "the boundary term enters with (-1)^(n-k), not the opposite sign",
                     flipped > IDENTITY_TOL, iv,
                     f"flipped-sign residual {flipped:.3e} must exceed {IDENTITY_TOL:.0e}")
    return records


# ---------------------------------------------------------------------------
# boundary identity on the interval

def run_boundary(config: SuiteConfig):
    records = _Records(config)
    iv = interval(config.interval_nodes)

    def boundary_residual(p, rngx):
        om = cat.random_form(3, p, rngx, amp=0.8)
        al = coefficient_form(1, 0, {(): cat.random_scalar(1, rngx, integer_modes=False)})
        f = cat.random_map(iv, 3, rngx, amp=0.8)
        ts = [cat.random_tangent(f, rngx, amp=0.8) for _ in range(p)]
        return derivation_identity(om, al, iv, f, ts, derivation_terms(om, al, iv))

    # the quadrature mismatch of the end-corrected weights is h-independent
    ladder_steps = tuple(4.0 * h for h in ORDER_STEPS)
    for p in (1, 2):
        records.ladder(f"boundary-derivation-p{p}",
                       "d(w.a)^ = (dw.a)^ + (-1)^p (w.da)^ + (-1)^(p+q-k) r_bd*(w.a|bd)^",
                       iv, lambda rngx: boundary_residual(p, rngx),
                       [(50, p, i) for i in range(TRIALS)], (51, p), ladder_steps)

    # designed witness: w = dx, a(s) = 1 + s and the constant tangent e_x
    # satisfy the identity exactly with the endpoint term a(1) - a(0) = 1,
    # so dropping that term leaves a relative residual of 1
    rng = np.random.default_rng([config.seed, 52])
    dx = coordinate_form((0,), 3)
    one_plus_s = coefficient_form(1, 0, {(): scalar_sum([scalar_const(1.0, 1),
                                                         scalar_coordinate(0, 1)])})
    f = cat.random_map(iv, 3, rng, amp=0.8)
    ex = [MapTangent(f, np.tile([1.0, 0.0, 0.0], (iv.n_nodes, 1)))]
    *bulk, endpoint = derivation_terms(dx, one_plus_s, iv)
    witness = abs(derivation_identity(dx, one_plus_s, iv, f, ex, bulk)(DEFAULT_FD_STEP))
    records.gate("boundary-witness",
                 f"without the boundary term the residual must exceed {IDENTITY_TOL:.0e}",
                 witness > IDENTITY_TOL, iv, f"residual without boundary term {witness:.3e}, "
                 f"endpoint term {endpoint(f, *ex):.3e}")

    # q = 1 on the interval: both correction terms vanish
    rng = np.random.default_rng([config.seed, 53])
    om = cat.random_form(3, 2, rng, amp=0.8)
    al = cat.random_form(1, 1, rng, amp=0.8)
    f = cat.random_map(iv, 3, rng, amp=0.8)
    ts = [cat.random_tangent(f, rng) for _ in range(3)]
    residual = derivation_identity(om, al, iv, f, ts, derivation_terms(om, al, iv))
    records.add("boundary-top-degree",
                "d(w.a)^ = (dw.a)^ when a has top degree on the interval",
                abs(residual(DEFAULT_FD_STEP)), IDENTITY_TOL, iv, fd=True, order_note="fd")
    return records


# ---------------------------------------------------------------------------
# momentum maps

def run_momentum(config: SuiteConfig):
    records = _Records(config)
    rng = np.random.default_rng([config.seed, 60])
    sys = me.canonical_r2()
    sys.validate(rng)
    dom = circle(config.nodes)

    def hamiltonian_residual(action, elements, rngx):
        """Worst i_{xi_F} omega bar - d<J, xi> over the elements as a
        function of the FD step, each at a random map and tangent drawn
        from rngx."""
        cases = []
        for xi in elements:
            g = cat.random_map(dom, 2, rngx, amp=0.8)
            cases.append(me.momentum_identity_residual(action, xi, g, cat.random_tangent(g, rngx)))
        return lambda h: worst(case(h) for case in cases)

    # lifted finite-dimensional action
    group = me.se2_action()
    lifted, basis = me.lifted_action(group, sys, dom), np.eye(len(group.names))
    records.ladder("momentum-lifted-identity",
                   "i_{gen} omega bar = d<Jbar, xi> for the lifted finite-dim action", dom,
                   lambda rngx: hamiltonian_residual(lifted, basis, rngx), [(61,)], (61,))

    circle_map = cat.unit_circle_map(dom, 2)
    J = np.array([lifted.momentum(e)(circle_map) for e in basis])
    records.add("momentum-lifted-values",
                "averaged momenta of the unit circle: (-1/2, 0, 0) for (rot, tx, ty)",
                float(np.max(np.abs(J - np.array([-0.5, 0.0, 0.0])))), 1e-10, dom)

    const_map = MapPoint(dom, np.tile([0.3, -0.7], (dom.n_nodes, 1)))
    records.add("momentum-lifted-constant-map",
                "a constant map returns the base momentum exactly (normalized mu)",
                worst(abs(lifted.momentum(e)(const_map) - m(const_map.values[0]))
                      for e, m in zip(basis, group.momenta)), 1e-12, dom)

    # hamiltonian diffeomorphisms of M
    ham = me.diffham_action(sys, dom)
    records.ladder("momentum-diffham-identity",
                   "i_{Xbar_h} omega bar = d(h bar) with h normalized at the base point", dom,
                   lambda rngx: hamiltonian_residual(ham, sys.catalog[:3], rngx),
                   [(62,)], (62,))

    records.add("momentum-diffham-circle-value", "<J(unit circle), X_x> = mean of cos = 0",
                abs(ham.momentum(sys.pair("x"))(circle_map)), 1e-12, dom)

    # exact volume preserving diffeomorphisms of S = T^2
    domt = torus2(config.torus_side)
    om_ex = me.exact_two_form(coefficient_form(
        4, 1, {(2,): scalar_coordinate(0, 4)}, name="u1 du3"))
    # a potential with varying coefficients, so the identity is FD-limited
    om_curved = me.exact_two_form(coefficient_form(
        4, 1,
        {(2,): scalar_coordinate(0, 4),
         (1,): trig_scalar(4, [[1.0, 0.0, 0.0, 0.7]], [0.4], [0.2])},
        name="curved potential"))

    f4 = cat.torus_graph_map(domt)
    alpha = ScalarField(domt, np.sin(domt.nodes[:, 0]) * np.sin(domt.nodes[:, 1]))
    x, y = domt.nodes[:, 0], domt.nodes[:, 1]
    oracle = float(np.sum(domt.weights * np.sin(x) ** 2 * np.sin(y) ** 2))
    r1, r2 = (float(r[0]) for r in me.diffex_routes(om_ex, domt, alpha)(MapStack.of(f4)))
    records.add("momentum-diffex-value",
                "<J(f), X_alpha> = direct quadrature of the pulled-back integrand",
                worst([abs(r1 - oracle), abs(r2 - oracle), abs(r1 - r2)]), 1e-9, domt,
                detail=f"value {r1:.12f}, oracle {oracle:.12f}")

    def diffex_residual(rngx):
        g = cat.random_map(domt, 4, rngx, amp=0.7)
        Y = cat.random_tangent(g, rngx)
        a = cat.random_stream(domt, rngx, max_mode=2)
        return me.momentum_identity_residual(me.diffex_action(om_curved, domt), a, g, Y)

    records.ladder("momentum-diffex-identity",
                   "d<J, X_alpha> = i_{gen(alpha)} omega bar on F(T^2, R^4)", domt,
                   diffex_residual, [(63,)], (63,))

    zero = ScalarField(domt, np.zeros(domt.n_nodes))
    const4 = MapPoint(domt, np.tile([0.2, 0.4, -0.1, 0.3], (domt.n_nodes, 1)))
    records.add("momentum-diffex-trivial", "constant alpha or constant f give zero momentum",
                worst([abs(me.momentum_diffex(om_ex, domt, zero)(f4)),
                       abs(me.momentum_diffex(om_ex, domt, alpha)(const4))]),
                1e-12, domt)
    return records


# ---------------------------------------------------------------------------
# cocycles

def run_cocycles(config: SuiteConfig):
    """The defining cocycle of each action against its closed form, with
    every f-independent part (the bracket, its momentum, the generators,
    P(i_X i_Y mu)) built once per record."""
    records = _Records(config)
    rng = np.random.default_rng([config.seed, 70])
    sys = me.canonical_r2()
    dom = circle(config.nodes)
    ham = me.diffham_action(sys, dom)

    pairs = [sys.pair(name) for name in ("x", "y", "xy", "sin_x", "r2/2")]
    sx, sy, sxy, ssin, sr2 = pairs

    dual = me.cocycle_defining(ham, sx, sy)
    vals = [dual(cat.random_map(dom, 2, rng, amp=0.7)) for _ in range(6)]
    records.add("cocycle-diffham-dual-route",
                "<J(f),[X,Y]op> - omega bar(Xbar,Ybar)(f) = -omega(X,Y)(x0)",
                worst(abs(v - me.cocycle_diffham(sys, sx, sy)) for v in vals),
                IDENTITY_TOL, dom, detail=f"sigma(x,y) = {me.cocycle_diffham(sys, sx, sy)!r}")
    records.add("cocycle-diffham-f-independence",
                "the defining difference does not depend on the map",
                worst(abs(a - b) for a, b in itertools.combinations(vals, 2)), 1e-8, dom)

    records.add("cocycle-diffham-antisymmetry", "sigma(X,Y) = -sigma(Y,X) and sigma(X,X) = 0",
                worst(abs(me.cocycle_diffham(sys, a, b) + me.cocycle_diffham(sys, b, a))
                      for a in pairs for b in pairs), 1e-12, dom)

    jac = worst(abs(me.cocycle_jacobi_sum(ham, lambda X, Y: me.cocycle_diffham(sys, X, Y), *uvw))
                for uvw in [(sx, sy, sxy), (sxy, ssin, sr2), (sx, sxy, sr2)])
    records.add("cocycle-diffham-jacobi", "sum over cyclic permutations of sigma([X,Y],Z) = 0",
                jac, IDENTITY_TOL, dom)

    # lifted action cocycle: value and f-independence
    group = me.se2_action()
    lifted, (e_rot, e_tx, e_ty) = me.lifted_action(group, sys, dom), np.eye(len(group.names))
    base = me.cocycle_lifted_base(group, sys, e_tx, e_ty)
    dual = me.cocycle_defining(lifted, e_tx, e_ty)
    spread = [dual(cat.random_map(dom, 2, rng, amp=0.7)) for _ in range(4)]
    records.add("cocycle-lifted-translations",
                "<Jbar,[tx,ty]> - omega bar(tx,ty) = -omega(tx,ty) = -1, f-independent",
                worst(abs(v - base) for v in spread) + abs(base + 1.0), 1e-10, dom)

    jac = me.cocycle_jacobi_sum(lifted, lambda u, v: me.cocycle_lifted_base(group, sys, u, v),
                                e_rot, e_tx, e_ty)
    records.add("cocycle-lifted-jacobi",
                "cyclic sum of sigma([e_i,e_j],e_k) = 0 via structure constants",
                abs(jac), 1e-12, dom)

    # S-side cocycle on the torus
    domt = torus2(config.torus_side)
    om_ex = me.exact_two_form(coefficient_form(4, 1, {(2,): scalar_coordinate(0, 4)}))
    diffex = me.diffex_action(om_ex, domt)
    a1 = cat.random_stream(domt, rng, max_mode=2)
    a2 = cat.random_stream(domt, rng, max_mode=2)
    sigma, dual = me.cocycle_diffex(om_ex, domt, a1, a2), me.cocycle_defining(diffex, a1, a2)
    maps = [cat.random_map(domt, 4, rng, amp=0.7) for _ in range(TRIALS)]
    records.add("cocycle-diffex-dual-route",
                "<J(f),[X,Y]> - omega bar = integral of f*omega against P(i i mu)",
                worst(abs(sigma(g) - dual(g)) for g in maps), IDENTITY_TOL, domt)

    base_map = cat.random_map(domt, 4, rng, amp=0.7)
    bump = cat.random_map(domt, 4, rng, amp=0.5)
    vals = [sigma(MapPoint(domt, base_map.values + t * bump.values))
            for t in np.linspace(0.0, 1.0, 5)]
    records.add("cocycle-diffex-homotopy",
                "the value is constant along an explicit homotopy of maps",
                worst(abs(a - b) for a, b in itertools.combinations(vals, 2)),
                IDENTITY_TOL, domt)

    a3 = cat.random_stream(domt, rng, max_mode=2)
    jac = me.cocycle_jacobi_sum(diffex, lambda a, b: me.cocycle_diffex(om_ex, domt, a, b)(base_map),
                                a1, a2, a3)
    records.add("cocycle-diffex-jacobi", "cyclic sum of sigma([X,Y],Z) = 0 on stream functions",
                abs(jac), IDENTITY_TOL, domt)

    # volume-integral cocycle on the meshed surface
    eta = coordinate_form((0, 1), 2, 2.5)
    nu_n = volume_form(2, 1.0 / domt.volume)
    ex = constant_field([1.0, 0.0])
    ey = constant_field([0.0, 1.0])
    records.add("lichnerowicz-values",
                "volume-integral cocycle: constant data gives the coefficient; antisymmetric",
                worst(abs(me.lichnerowicz(domt, eta, X, Y, nu_n) - value)
                      for X, Y, value in [(ex, ey, 2.5), (ey, ex, -2.5), (ex, ex, 0.0)]),
                1e-10, domt)

    X1 = nodal_vector_field(domt, me.exact_divfree_field(domt, a1))
    X2 = nodal_vector_field(domt, me.exact_divfree_field(domt, a2))
    eta_r = cat.random_form(2, 2, rng, integer_modes=True)
    lvals = (me.lichnerowicz(domt, eta_r, X1, X2, nu_n),
             me.lichnerowicz(domt, eta_r, X2, X1, nu_n))
    records.add("lichnerowicz-antisymmetry",
                "the cocycle is antisymmetric on divergence-free fields",
                abs(lvals[0] + lvals[1]), 1e-10, domt)
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
    H4 = coefficient_form(4, 3, {(0, 1, 2): scalar_coordinate(2, 4)},
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


def brane_checks(config: SuiteConfig, salt, iv, cases):
    """Twist check of every cataloged case on its own draw [seed, salt,
    case index]: one record and one (name, BraneReport) per case."""
    records, reports = _Records(config), []
    for idx, (name, H, B, D, should_apply) in enumerate(cases):
        rng = np.random.default_rng([config.seed, salt, idx])
        rep = me.brane_twist_check(H, B, D, iv, rng, n_trials=2)
        reports.append((name, rep))
        if should_apply:
            records.add(f"brane-{name}", "d( H^ - bd*(B^bd) ) = 0 on maps with boundary in D",
                        rep.closedness_residual if rep.applicable else 1.0, me.TWIST_TOL, iv,
                        fd=True, order_note="fd", detail=f"gate residual {rep.gate_residual:.3e}")
        else:
            records.gate(f"brane-{name}", "an inconsistent (H, B) pair is rejected, not passed",
                         not rep.applicable and not rep.passed, iv, rep.reason)
    return records, reports


def run_branes(config: SuiteConfig):
    iv, cases = brane_catalog(config)
    records, _ = brane_checks(config, 80, iv, cases)

    # boundary-tangency violation must render the check inapplicable
    rng = np.random.default_rng([config.seed, 81])
    D = cases[0][3]
    g, ts = me.constrained_random_data(iv, D, rng, 3)
    bad = [MapTangent(g, ts[0].vectors + np.array([0.0, 0.0, 0.5]))] + ts[1:]
    _, reason = me.boundary_data_gate(D, g, bad)
    records.gate("brane-tangency-gate", "boundary data off the subspace is reported inapplicable",
                 reason, iv, reason)
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
