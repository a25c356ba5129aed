"""Twisting data for open strings: a closed 3-form in the bulk, a potential
on the boundary subspace, and the closedness of their combination.

Maps of the interval whose endpoints lie in an affine subspace D form the
configuration space; the transgressed bulk form minus the boundary-restricted
transgression of the potential is the candidate magnetic term, and it is
closed exactly when the potential matches the restricted bulk form.  The
gates reject inconsistent data instead of passing it.
"""

import numpy as np

import mapforms as mf
from mapforms import mechanics as me

rng = np.random.default_rng(6)
iv = mf.interval(65)

# the nontrivial case: bulk form z dx^dy^dz on R^4, boundary subspace w = 0,
# potential xz dy^dz whose differential is the restricted bulk form
H = mf.coefficient_form(4, 3, {(0, 1, 2): mf.ScalarFunc(
    lambda u: u[..., 2], lambda u: mf.broadcast_rows([0.0, 0.0, 1.0, 0.0], u))},
    name="z dx^dy^dz")
D = me.affine_subspace(np.zeros(4), np.eye(4)[:, :3])
B = mf.coefficient_form(3, 2, {(1, 2): mf.ScalarFunc(
    lambda u: u[..., 0] * u[..., 2],
    lambda u: np.stack([u[..., 2], 0.0 * u[..., 1], u[..., 0]], axis=-1),
    lambda u: mf.broadcast_rows([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], u))},
    name="xz dy^dz")

report = me.brane_twist_check(H, B, D, iv, rng, n_trials=3)
print("consistent data:")
print("  potential gate residual:", report.gate_residual)
print("  twist closedness residual:", report.closedness_residual)
print("  passed:", report.passed)

# the same bulk form with the potential removed fails the gate
B0 = mf.coefficient_form(3, 2, {(1, 2): mf.ScalarFunc(
    lambda u: 0.0 * u[..., 0], lambda u: np.zeros_like(u))}, name="0")
bad = me.brane_twist_check(H, B0, D, iv, rng)
print("\ninconsistent data:")
print("  applicable:", bad.applicable, " passed:", bad.passed)
print("  reason:", bad.reason)

# tangents that leave the subspace at the endpoints are refused too
f, ts = me.constrained_random_data(iv, D, rng, 3)
leaky = [mf.MapTangent(f, ts[0].vectors + np.array([0, 0, 0, 0.4]))] + ts[1:]
gated = me.brane_twist_check(H, B, D, iv, rng, f=f, tangent_sets=[leaky],
                             n_trials=1)
print("\nboundary-tangency violation:")
print("  applicable:", gated.applicable, " reason:", gated.reason)
