"""What happens to the derivation rule when the source has a boundary.

On the interval the exterior derivative of an induced form picks up a
signed endpoint contribution.  The script measures the full identity, then
deliberately drops the boundary term to show the defect is order one: the
correction is doing real work, with a definite sign.
"""

import numpy as np

import mapforms as mf
from mapforms import catalog as cat

rng = np.random.default_rng(3)
iv = mf.interval(65)
bdom = iv.boundary()
print("boundary nodes and signs:", bdom.nodes.ravel().tolist(),
      bdom.node_signs.tolist())

om = cat.random_form(3, 2, rng, amp=0.8)
a_scalar = cat.random_scalar(1, rng, integer_modes=False)
al = mf.coefficient_form(1, 0, {(): a_scalar})

W = mf.hat_pairing(om, al, iv)
lhs = mf.map_space_d(W, 1e-4)
bulk1 = mf.hat_pairing(mf.exterior_derivative(om), al, iv)
bulk2 = mf.hat_pairing(om, mf.exterior_derivative(al), iv)
W_bd = mf.hat_pairing(om, mf.coefficient_form(1, 0, {(): a_scalar}), bdom)
edge = mf.boundary_pullback(W_bd)  # enters with sign (-1)^(p+q-k) = -1 here

f = cat.random_map(iv, 3, rng, amp=0.8)
ts = [cat.random_tangent(f, rng) for _ in range(2)]
full = lhs(f, *ts) - bulk1(f, *ts) - bulk2(f, *ts) + edge(f, *ts)
without = lhs(f, *ts) - bulk1(f, *ts) - bulk2(f, *ts)
print("residual with the boundary term:   ", abs(full))
print("residual without the boundary term:", abs(without),
      " (five orders of magnitude worse)")

# the cleanest witness: an exact 1-form against the constant 1
h = cat.random_form(3, 0, rng)
W0 = mf.hat_pairing(h.analytic_d, 1.0, iv)  # the endpoint difference of h∘f
dW0 = mf.map_space_d(W0, 1e-4)
y = cat.random_tangent(f, rng)
endpoint_term = (h.analytic_d(f.values[-1], y.vectors[-1])
                 - h.analytic_d(f.values[0], y.vectors[0]))
print("d of the endpoint-difference function vs the signed endpoint term:",
      abs(dW0(f, y) - endpoint_term))
