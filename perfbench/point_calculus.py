"""point-calculus: single-point chart identities and one small Gram matrix.

One item evaluates, through ``Form.__call__`` at each of a few points of
R^3, a 1-form, a 2-form and their wedge products in both orders, the Lie
derivative of the 1-form along a nonlinear field by the Cartan formula and
by the RK4 flow route, and d of the pulled-back 1-form under a nonlinear map
R^2 -> R^3 against the pull-back of its analytic d.  It then builds the
Gram matrix of the loop-space pairing on a 16-node circle.

The checks are the properties (antisymmetry, multilinearity, graded
commutativity, Cartan = flow, naturality of d) and, apart from the program,
closed-form values from the kept parameters: the forms by determinants,
L_X a = (grad a_j . X) v_j + a_j (DX v)_j, phi*(da) through the analytic
Jacobian, and the Gram matrix, block diagonal with blocks
w_i det[e_a, e_b, t(s_i)] for the loop tangent t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import mapforms as mf
from trig import Trig, form_value, grid, program_form, random_coeffs, random_trig

NAME = "point-calculus"

POINTS = 6
LOOP_NODES = 16
ROUNDOFF = 1e-12        # relative to max(1, |value|)
FD_TOL = 1e-6           # central differences with the default step 1e-4
# The flow route differences pull-backs at t = +-1e-5 whose Jacobians are
# central differences of RK4 maps: their roundoff, about 1e-12, is amplified
# 5e4-fold.  The largest error seen over 150 seeds was 6e-7.
FLOW_TOL = 1e-5


@dataclass
class Inputs:
    a1: dict                 # 1-form coefficients on R^3
    a2: dict                 # 2-form coefficients on R^3
    X: list                  # 3 Trigs: the field
    h: Trig                  # phi(u) = (u0, u1, h(u))
    x: np.ndarray            # (POINTS, 3)
    v: np.ndarray            # (4, POINTS, 3): v1, v2, v3, u
    c: float
    z: np.ndarray            # (POINTS, 2) points of the source of phi
    loop: tuple              # (centre, radius, rotation)
    program: tuple           # (a1, a2, X, phi, embedded loop)


def build(seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 3])
    a1, a2 = random_coeffs(rng, 3, 1), random_coeffs(rng, 3, 2)
    X = [random_trig(rng, 3) for _ in range(3)]
    h = random_trig(rng, 2)
    x = rng.uniform(-1.0, 1.0, size=(POINTS, 3))
    v = rng.uniform(-1.0, 1.0, size=(4, POINTS, 3))
    c = float(rng.uniform(-2.0, 2.0))
    z = rng.uniform(-1.0, 1.0, size=(POINTS, 2))
    centre = rng.uniform(-1.0, 1.0, size=3)
    radius = float(rng.uniform(0.5, 2.0))
    rotation = np.linalg.qr(rng.normal(size=(3, 3)))[0]

    field = mf.field_from_callable(
        lambda p: np.array([g.value(p[None])[0] for g in X]), 3,
        jacobian=lambda p: np.array([g.grad(p[None])[0] for g in X]), name="X")
    phi = mf.ChartMap(
        lambda u: np.array([u[0], u[1], h.value(u[None])[0]]), 2, 3,
        jacobian_func=lambda u: np.vstack([np.eye(2), h.grad(u[None])]), name="graph")
    s = grid("circle", LOOP_NODES)[0][:, 0]
    circle = np.column_stack([np.cos(s), np.sin(s), np.zeros_like(s)])
    loop = mf.MapPoint(mf.circle(LOOP_NODES), centre + radius * circle @ rotation.T)
    program = (program_form(mf, 3, 1, a1), program_form(mf, 3, 2, a2), field,
               phi, mf.embed(loop))
    return Inputs(a1, a2, X, h, x, v, c, z, (centre, radius, rotation), program)


def run_item(inputs: Inputs):
    a1, a2, X, phi, loop = inputs.program
    w12, w21 = mf.wedge(a1, a2), mf.wedge(a2, a1)
    cartan, flow = mf.lie_derivative(a1, X), mf.lie_derivative_flow(a1, X)
    d_pull = mf.exterior_derivative(mf.pullback(a1, phi))
    pull_d = mf.pullback(mf.exterior_derivative(a1), phi)
    e1, e2 = np.eye(2)
    c = inputs.c
    rows = []
    for j in range(POINTS):
        x, z = inputs.x[j], inputs.z[j]
        v1, v2, v3, u = inputs.v[:, j]
        rows.append((
            a1(x, v1), a2(x, v1, v2), a2(x, v2, v1),
            a2(x, v1 + c * u, v2), a2(x, u, v2),
            w12(x, v1, v2, v3), w21(x, v1, v2, v3), w12(x, v2, v1, v3),
            cartan(x, v1), flow(x, v1),
            d_pull(z, e1, e2), pull_d(z, e1, e2),
        ))
    return np.array(rows), mf.mw_gram_matrix(mf.volume_form(3), loop)


def expected_gram(inputs: Inputs) -> np.ndarray:
    centre, radius, rotation = inputs.loop
    n = LOOP_NODES
    s, w, _ = grid("circle", n)
    s = s[:, 0]
    t = radius * np.column_stack([-np.sin(s), np.cos(s), np.zeros(n)]) @ rotation.T
    G = np.zeros((3 * n, 3 * n))
    eye = np.eye(3)
    for i in range(n):
        G[3 * i:3 * i + 3, 3 * i:3 * i + 3] = w[i] * np.array(
            [[np.linalg.det(np.array([eye[a], eye[b], t[i]])) for b in range(3)]
             for a in range(3)])
    return G


def expected_values(inputs: Inputs) -> dict:
    """Closed forms at every point, vectorized over the points."""
    x, (v1, v2, v3, _) = inputs.x, inputs.v
    a1 = lambda vs: form_value(inputs.a1, x, vs)      # noqa: E731
    a2 = lambda vs: form_value(inputs.a2, x, vs)      # noqa: E731
    Xv = np.column_stack([g.value(x) for g in inputs.X])
    DX = np.stack([g.grad(x) for g in inputs.X], axis=1)
    grads = np.stack([inputs.a1[(j,)].grad(x) for j in range(3)], axis=1)  # (N, 3, 3)
    coeff = np.column_stack([inputs.a1[(j,)].value(x) for j in range(3)])
    lie = (np.einsum("njk,nk,nj->n", grads, Xv, v1)
           + np.einsum("nj,njk,nk->n", coeff, DX, v1))
    # phi*(d a1)(e1, e2) at z, with da(p, q) = (grad a_j . p) q_j - (grad a_j . q) p_j
    z = inputs.z
    y = np.column_stack([z, inputs.h.value(z)])
    J = np.concatenate([np.broadcast_to(np.eye(2), (len(z), 2, 2)),
                        inputs.h.grad(z)[:, None, :]], axis=1)       # (N, 3, 2)
    p, q = J[:, :, 0], J[:, :, 1]
    gy = np.stack([inputs.a1[(j,)].grad(y) for j in range(3)], axis=1)
    natural = (np.einsum("njk,nk,nj->n", gy, p, q) - np.einsum("njk,nk,nj->n", gy, q, p))
    return {"a1": a1([v1]), "a2": a2([v1, v2]),
            "wedge": a1([v1]) * a2([v2, v3]) - a1([v2]) * a2([v1, v3])
            + a1([v3]) * a2([v1, v2]),
            "lie": lie, "natural": natural}


def _close(a, b, tol) -> np.ndarray:
    a, b = np.asarray(a), np.asarray(b)
    return np.abs(a - b) <= tol * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def check(inputs: Inputs, outputs) -> list:
    vals, G = outputs
    (a1, a2, a2_swap, a2_comb, a2_u, w12, w21, w12_swap,
     cartan, flow, d_pull, pull_d) = np.asarray(vals).T
    ref = expected_values(inputs)
    c = inputs.c
    tests = {
        "1-form closed form": _close(a1, ref["a1"], ROUNDOFF),
        "2-form closed form": _close(a2, ref["a2"], ROUNDOFF),
        "wedge closed form": _close(w12, ref["wedge"], ROUNDOFF),
        "2-form antisymmetry": _close(a2_swap, -a2, ROUNDOFF),
        "wedge antisymmetry": _close(w12_swap, -w12, ROUNDOFF),
        "multilinearity": _close(a2_comb, a2 + c * a2_u, ROUNDOFF),
        "graded commutativity": _close(w12, w21, ROUNDOFF),
        "Cartan = flow route": _close(cartan, flow, FLOW_TOL),
        "Cartan closed form": _close(cartan, ref["lie"], FD_TOL),
        "flow route closed form": _close(flow, ref["lie"], FLOW_TOL),
        "naturality of d": _close(d_pull, pull_d, FD_TOL),
        "pull-back of d closed form": _close(pull_d, ref["natural"], ROUNDOFF),
        "d of pull-back closed form": _close(d_pull, ref["natural"], FD_TOL),
    }
    problems = [f"{name}: fails at points {np.flatnonzero(~ok).tolist()}"
                for name, ok in tests.items() if not ok.all()]
    want = expected_gram(inputs)
    err = float(np.max(np.abs(np.asarray(G) - want))) if np.shape(G) == want.shape else np.inf
    if not err <= ROUNDOFF * max(1.0, float(np.max(np.abs(want)))):
        problems.append(f"Gram matrix: max error {err:.2e} against the closed form")
    return problems
