"""Three hamiltonian actions on the map space and what obstructs their
equivariance.

The averaged symplectic pairing makes the space of maps into R^2 an
(infinite-dimensional) symplectic manifold.  Rotations and translations act
through the target, reparameterizations through the source; each action has
a momentum map, and the failure of equivariance is a number attached to a
pair of generators: a Lie algebra 2-cocycle.  Each action is one
HamiltonianAction value, and all three cocycles are computed both from
their closed formulas and from the one defining difference.
"""

import numpy as np

import mapforms as mf
from mapforms import catalog as cat
from mapforms import mechanics as me
from mapforms.charts import DEFAULT_FD_STEP

sys = me.canonical_r2()
dom = mf.circle(48)
rng = np.random.default_rng(4)

# --- the finite-dimensional action: rotations + translations ---------------
group = me.se2_action()
lifted = me.lifted_action(group, sys, dom)
e_rot, e_tx, e_ty = np.eye(len(group.names))
circle_loop = cat.unit_circle_map(dom, 2)
J = [lifted.momentum(e)(circle_loop) for e in (e_rot, e_tx, e_ty)]
print("momenta of the unit circle (rot, tx, ty):", np.round(J, 12))

print("translation cocycle <J,[tx,ty]> - pairing(tx,ty):")
translations = me.cocycle_defining(lifted, e_tx, e_ty)
for _ in range(3):
    f = cat.random_map(dom, 2, rng, amp=0.7)
    print("   at a random map:", translations(f))

# --- hamiltonian diffeomorphisms of the target ------------------------------
ham = me.diffham_action(sys, dom)
sx, sy = sys.pair("x"), sys.pair("y")
print("\nbase-point cocycle sigma(x,y) =", me.cocycle_diffham(sys, sx, sy))
f = cat.random_map(dom, 2, rng, amp=0.7)
print("defining difference at a random map:", me.cocycle_defining(ham, sx, sy)(f))

Y = cat.random_tangent(f, rng)
res = me.momentum_identity_residual(ham, sx, f, Y)
print("momentum-map defining identity residual:", res(DEFAULT_FD_STEP))

# --- exact volume preserving reparameterizations of the torus ---------------
domt = mf.torus2(24)
theta = mf.coefficient_form(4, 1, {(2,): mf.ScalarFunc(
    lambda u: u[..., 0], lambda u: mf.broadcast_rows([1.0, 0, 0, 0], u))}, name="u1 du3")
om_ex = me.exact_two_form(theta)
ex = me.diffex_action(om_ex, domt)

f4 = cat.torus_graph_map(domt)
x, y = domt.nodes[:, 0], domt.nodes[:, 1]
alpha = mf.ScalarField(domt, np.sin(x) * np.sin(y))
value = ex.momentum(alpha)(f4)
print("\nstream-function momentum on the flat torus embedding:", value)
print("   (pi^2 =", np.pi ** 2, ")")

a1 = cat.random_stream(domt, rng, max_mode=2)
a2 = cat.random_stream(domt, rng, max_mode=2)
g4 = cat.random_map(domt, 4, rng, amp=0.7)
print("cocycle, formula route:   ", me.cocycle_diffex(om_ex, domt, a1, a2)(g4))
print("cocycle, defining route:  ", me.cocycle_defining(ex, a1, a2)(g4))
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
