"""Exterior algebra on flat charts, quadrature, and fiber integration.

Every form is just an evaluator: points stacked as rows (N, m) and p
tangent vectors stacked the same way go in, one real number per row comes
out; calling a form on a single point and single vectors gives a float.
This script walks through the basic operations and then checks the four
structure rules of fiber integration on live data.
"""

import numpy as np

import mapforms as mf

rng = np.random.default_rng(0)

# --- wedge, interior product, exterior derivative --------------------------
dx = mf.coordinate_form((0,), 3, name="dx")
dy = mf.coordinate_form((1,), 3, name="dy")
area = mf.wedge(dx, dy)
ex, ey, ez = np.eye(3)
print("dx^dy(e_x, e_y) =", area(np.zeros(3), ex, ey))
print("dx^dy(e_y, e_x) =", area(np.zeros(3), ey, ex), " (sign flips)")

vol = mf.volume_form(3)
print("i_{e_z} vol = dx^dy:", mf.interior(vol, ez)(np.zeros(3), ex, ey))

# x dy carries an analytic derivative; the finite-difference path agrees
xdy = mf.coefficient_form(3, 1, {(1,): mf.ScalarFunc(
    lambda p: p[..., 0], lambda p: mf.broadcast_rows([1.0, 0.0, 0.0], p))}, name="x dy")
d_xdy = mf.exterior_derivative(xdy)
print("d(x dy)(e_x, e_y) =", d_xdy(rng.uniform(-1, 1, 3), ex, ey))

# --- quadrature over the three source domains ------------------------------
print("\nvolumes by quadrature:")
print("  circle:  ", mf.integrate(mf.coordinate_form((0,), 1), mf.circle(64)))
print("  2-torus: ", mf.integrate(mf.volume_form(2), mf.torus2(16)))
print("  interval:", mf.integrate(mf.coordinate_form((0,), 1), mf.interval(33)))

# --- fiber integration over the circle factor ------------------------------
# a 2-form on S^1 x R^2 built from trig coefficients, periodic in s
coeffs = {}
for I in [(0, 1), (0, 2), (1, 2)]:
    K = rng.uniform(-1, 1, (2, 3))
    K[:, 0] = rng.integers(-2, 3, 2)
    coeffs[I] = mf.trig_scalar(3, K, rng.uniform(-1, 1, 2), rng.uniform(0, 6.28, 2))
w = mf.coefficient_form(3, 2, coeffs)
dom = mf.circle(48)
fib = mf.fiber_integrate(w, dom)
print("\nfiber integral of a 2-form over the circle is a 1-form on R^2:")
print("  value at (0.3,-0.2) on e_1:", fib(np.array([0.3, -0.2]), np.array([1.0, 0.0])))

# rule check: insertion of a target field commutes with the fiber integral
X = mf.affine_field(rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, 2))
w3 = mf.coefficient_form(3, 3, {
    (0, 1, 2): mf.trig_scalar(3, [[1.0, 0.3, -0.4]], [0.7], [0.2])})
from mapforms.forms import vertical_field
lhs = mf.interior(mf.fiber_integrate(w3, dom), X)
rhs = mf.fiber_integrate(mf.interior(w3, vertical_field(X, 1)), dom)
print("insertion rule residual:", mf.sample_difference(lhs, rhs, rng, 10))

# the boundary rule on the interval, with its sign
iv = mf.interval(65)
beta = mf.coefficient_form(3, 2, {
    (0, 1): mf.trig_scalar(3, rng.uniform(-1, 1, (2, 3)),
                           rng.uniform(-1, 1, 2), rng.uniform(0, 6.28, 2))})
lhs = mf.form_sum(
    mf.exterior_derivative(mf.fiber_integrate(beta, iv), step=1e-5),
    mf.form_scale(-1.0, mf.fiber_integrate(mf.exterior_derivative(beta), iv)))
rhs = mf.form_scale(-1.0, mf.fiber_integrate(beta, iv.boundary()))
print("boundary rule residual (n=2, sign -1):",
      mf.sample_difference(lhs, rhs, rng, 10))
