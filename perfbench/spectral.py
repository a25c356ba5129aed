"""spectral: torus operations of ``domains`` on band-limited data.

One item runs the right inverse of d, the projection P, the tangent map,
the exact divergence-free field and the pull-back action of a rigid 2-D
shift.  The first four are FFT work on a fine grid; the shift resamples by
dense trigonometric interpolation, whose cost grows with the square of the
node count, so it runs on a coarse grid.  The two sizes are chosen so that
neither kind of work dominates the item.

Every answer is known in closed form from the kept modes: the potential of
d(alpha) is alpha (no zero mode, so zero mean), P(alpha + c) is c, the
tangent map and the stream-function field are analytic derivatives, and the
shifted map is f(s - shift).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import mapforms as mf
from trig import Trig, grid, random_trig, vector_jacobian, vector_values

NAME = "spectral"

FFT_SIDE = 128          # grid of the FFT operations
RESAMPLE_SIDE = 24      # grid of the dense resampling
TARGET_DIM = 3
MODES = 4               # well below both Nyquist bands
ROUNDOFF = 1e-10        # relative to the largest magnitude of each answer


@dataclass
class Inputs:
    alpha: Trig                  # zero-mean potential, no zero mode
    const: float
    f: list                      # TARGET_DIM Trigs: the map on the fine grid
    g: list                      # TARGET_DIM Trigs: the map that is shifted
    shift: np.ndarray
    fine: object                 # mapforms domains
    coarse: object
    program: tuple               # (d alpha, alpha + const, f values, alpha, g point, shift map)
    answers: dict = None         # expected(), computed at the first check


def _potential(rng) -> Trig:
    while True:
        t = random_trig(rng, 2, terms=3, max_mode=MODES, amp=1.0)
        if np.all(np.any(t.K != 0.0, axis=1)):
            return t


def build(seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 2])
    alpha = _potential(rng)
    const = float(rng.uniform(-1.0, 1.0))
    f = [random_trig(rng, 2, terms=3, max_mode=MODES) for _ in range(TARGET_DIM)]
    g = [random_trig(rng, 2, terms=3, max_mode=MODES) for _ in range(TARGET_DIM)]
    shift = rng.uniform(0.0, 2.0 * np.pi, size=2)
    fine, coarse = mf.torus2(FFT_SIDE), mf.torus2(RESAMPLE_SIDE)
    xf, xc = grid("torus2", FFT_SIDE)[0], grid("torus2", RESAMPLE_SIDE)[0]
    a = alpha.value(xf)
    psi = mf.ChartMap(lambda s: s + shift, 2, 2, jacobian_func=lambda s: np.eye(2),
                      inverse=lambda s: s - shift, name="shift")
    program = (alpha.grad(xf), a + const, vector_values(f, xf), a,
               mf.MapPoint(coarse, vector_values(g, xc)), psi)
    return Inputs(alpha, const, f, g, shift, fine, coarse, program)


def run_item(inputs: Inputs):
    dalpha, shifted_alpha, fvals, a, g, psi = inputs.program
    dom = inputs.fine
    return (mf.right_inverse_b(dom, dalpha).values,
            mf.projection_P(dom, shifted_alpha).values,
            dom.map_jacobian(fvals),
            mf.exact_divfree_field(dom, a),
            mf.pullback_action(psi, g).values)


def expected(inputs: Inputs) -> dict:
    xf = grid("torus2", FFT_SIDE)[0]
    xc = grid("torus2", RESAMPLE_SIDE)[0]
    da = inputs.alpha.grad(xf)
    return {
        "right_inverse_b": inputs.alpha.value(xf),
        "projection_P": np.full(xf.shape[0], inputs.const),
        "map_jacobian": vector_jacobian(inputs.f, xf),
        "exact_divfree_field": np.column_stack([da[:, 1], -da[:, 0]]),
        "pullback_action": vector_values(inputs.g, xc - inputs.shift),
    }


def check(inputs: Inputs, outputs) -> list:
    if inputs.answers is None:
        inputs.answers = expected(inputs)
    problems = []
    for (name, want), got in zip(inputs.answers.items(), outputs):
        got = np.asarray(got)
        if got.shape != want.shape:
            problems.append(f"{name}: shape {got.shape}, expected {want.shape}")
            continue
        err = float(np.max(np.abs(got - want)))
        tol = ROUNDOFF * max(1.0, float(np.max(np.abs(want))))
        if not err <= tol:
            problems.append(f"{name}: max error {err:.2e} (tol {tol:.1e})")
    return problems
