"""Three hamiltonian actions on the map space and what obstructs their
equivariance.

The averaged symplectic pairing makes the space of maps into R^2 an
(infinite-dimensional) symplectic manifold.  Rotations and translations act
through the target, reparameterizations through the source; each action has
a momentum map, and the failure of equivariance is a number attached to a
pair of generators: a Lie algebra 2-cocycle.  All three cocycles are
computed both from their closed formulas and from the defining differences.
"""

import numpy as np

import mapforms as mf
from mapforms import catalog as cat
from mapforms import mechanics as me
from mapforms.charts import DEFAULT_FD_STEP

sys = me.canonical_r2()
dom = mf.circle(48)
ob = mf.bar_map(sys.omega, dom)
rng = np.random.default_rng(4)

# --- the finite-dimensional action: rotations + translations ---------------
act = me.se2_action()
circle_loop = cat.unit_circle_map(dom, 2)
J = [Ja(circle_loop) for Ja in me.momentum_lifted(act, dom)]
print("momenta of the unit circle (rot, tx, ty):", np.round(J, 12))

print("translation cocycle <J,[tx,ty]> - pairing(tx,ty):")
for _ in range(3):
    f = cat.random_map(dom, 2, rng, amp=0.7)
    print("   at a random map:", me.cocycle_lifted(act, sys, dom, f, 1, 2))

# --- hamiltonian diffeomorphisms of the target ------------------------------
sx, sy = sys.pair("x"), sys.pair("y")
print("\nbase-point cocycle sigma(x,y) =", me.cocycle_diffham(sys, sx, sy))
f = cat.random_map(dom, 2, rng, amp=0.7)
print("defining difference at a random map:",
      me.cocycle_diffham_defining(sys, dom, f, sx, sy))

Y = cat.random_tangent(f, rng)
res = me.hamiltonian_identity_residual(
    ob, lambda g: mf.generator_M(sx.field, g), me.momentum_diffham(sys, dom, sx), f, Y)
print("momentum-map defining identity residual:", res(DEFAULT_FD_STEP))

# --- exact volume preserving reparameterizations of the torus ---------------
domt = mf.torus2(24)
theta = mf.coefficient_form(4, 1, {(2,): mf.ScalarFunc(
    lambda u: u[..., 0], lambda u: mf.broadcast_rows([1.0, 0, 0, 0], u))}, name="u1 du3")
om_ex = me.exact_two_form(theta)

f4 = cat.torus_graph_map(domt)
x, y = domt.nodes[:, 0], domt.nodes[:, 1]
alpha = mf.ScalarField(domt, np.sin(x) * np.sin(y))
value = me.momentum_diffex(om_ex, domt, alpha)(f4)
print("\nstream-function momentum on the flat torus embedding:", value)
print("   (pi^2 =", np.pi ** 2, ")")

a1 = cat.random_stream(domt, rng, max_mode=2)
a2 = cat.random_stream(domt, rng, max_mode=2)
g4 = cat.random_map(domt, 4, rng, amp=0.7)
print("cocycle, formula route:   ", me.cocycle_diffex(om_ex, domt, g4, a1, a2))
print("cocycle, defining route:  ",
      me.cocycle_diffex_defining(om_ex, domt, g4, a1, a2))
print("(zero: the class of the pulled-back exact form vanishes)")

# --- the volume-integral cocycle on divergence-free fields ------------------
eta = mf.coordinate_form((0, 1), 2, 1.7)
nu1 = mf.volume_form(2, 1.0 / domt.volume)
exf, eyf = mf.constant_field([1.0, 0.0]), mf.constant_field([0.0, 1.0])
print("\nvolume-integral cocycle on constant fields:",
      me.lichnerowicz(domt, eta, exf, eyf, nu1))

# --- the two actions commute ------------------------------------------------
report = me.dual_pair_report(sys, me.exact_two_form(
    mf.coefficient_form(2, 1, {(1,): mf.ScalarFunc(
        lambda u: u[..., 0], lambda u: mf.broadcast_rows([1.0, 0.0], u))})),
    mf.torus2(16), np.random.default_rng(5), n_trials=2)
print("\ncommuting actions, nodewise error:", report["commutation_error"])
print("cocycle spread along a homotopy:   ", report["diffex_cocycle_spread"])
