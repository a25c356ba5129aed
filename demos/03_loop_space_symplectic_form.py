"""The weak symplectic pairing on unparameterized oriented loops in R^3.

Contracting two fields along a loop into the volume form and integrating
gives a closed 2-form whose kernel is exactly the tangential directions:
the loop-space symplectic structure of vortex-filament mechanics.
"""

import numpy as np

import mapforms as mf
from mapforms import catalog as cat
from mapforms import grassmannian as gr
from mapforms.mapspace import pushforward_tangent

dom = mf.circle(128)
nu = mf.volume_form(3)

loop = gr.embed(cat.unit_circle_map(dom, 3))
print(f"unit circle embedded: min nodal distance {loop.min_distance:.3f}, "
      f"min singular value {loop.min_singular_value:.3f}")

ez = cat.named_field("e_z")
radial = cat.named_field("radial")
value = gr.tilda_eval(nu, loop, [ez, radial])
print("pairing on (e_z, radial) =", value, " (2*pi =", 2 * np.pi, ")")
print("pairing on (e_z, e_x)    =", gr.tilda_eval(nu, loop, [ez, cat.named_field("e_x")]))

# representative independence: tangential components do not matter
Z = np.sin(3 * dom.nodes[:, :1]) + 0.2
tangential = gr.tangential_tangent(loop, Z)
perturbed = mf.MapTangent(loop.rep, mf.generator_M(radial, loop.rep).vectors
                          + tangential.vectors)
print("horizontality defect:",
      abs(gr.tilda_eval(nu, loop, [ez, perturbed]) - value))

# closedness, through the map-space exterior derivative of the representative
rng = np.random.default_rng(2)
dW = mf.map_space_d(mf.hat_map(nu, dom), 1e-4)
ts = [cat.random_tangent(loop.rep, rng) for _ in range(3)]
print("closedness residual:", abs(dW(loop.rep, *ts)))

# volume preserving ambient maps preserve the pairing, others scale it
shear = mf.affine_map(np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
A = np.diag([1.3, 0.8, 1.1])


def moved(phi, sections):
    new = gr.diffM_action_on_N(phi, loop)
    return new, [pushforward_tangent(phi, mf.generator_M(s, loop.rep)) for s in sections]


ns, ms = moved(shear, (ez, radial))
print("shear invariance defect:", abs(gr.tilda_eval(nu, ns, ms) - value))
na, ma = moved(mf.affine_map(A), (ez, radial))
print("scaling by det:", gr.tilda_eval(nu, na, ma) / value,
      " (det =", np.linalg.det(A), ")")

# the kernel of the pairing at a coarse loop is one tangential line per node
small = gr.embed(cat.unit_circle_map(mf.circle(12), 3))
G = gr.mw_gram_matrix(nu, small)
sv = np.linalg.svd(G, compute_uv=False)
print("Gram spectrum: rank", int(np.sum(sv > 1e-10 * sv[0])),
      "of", G.shape[0], "(kernel = 12 tangential directions)")
