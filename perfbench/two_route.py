"""two-route: the pairing of acceptance criterion 1 through both routes.

One item evaluates one case for each of the 13 pairing signatures that
criterion 1 sweeps, through ``hat_pairing`` and ``hat_pairing_fiber``.  The
cases are drawn from the seed as trigonometric parameters, and the oracle
recomputes every pairing in NumPy from those parameters: analytic map,
tangents and tangent map, determinants for the form values, a permutation
sum for the wedge with the source form, and the source's quadrature rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import mapforms as mf
from trig import (alternation, form_value, grid, program_form, random_coeffs,
                  random_trig, vector_jacobian, vector_values)

NAME = "two-route"

# (source, target dim m, grid parameter, [(p, q), ...]) as in criterion 1
SIGNATURES = (
    ("circle", 3, 256, ((1, 0), (2, 0), (3, 0), (1, 1), (2, 1))),
    ("torus2", 4, 16, ((2, 0), (3, 0), (1, 2), (2, 1), (2, 2))),
    ("interval", 3, 129, ((1, 0), (2, 0), (2, 1))),
)
SOURCE_MODES = 2        # integer modes of map, tangents and source form
ROUNDOFF = 1e-11        # relative to the sum of |terms| of the quadrature

# 4th-order interval stencils as (offsets, weights * 12): first two rows
# one-sided, interior central; the last two rows mirror the first two
_STENCILS = (
    ((0, 1, 2, 3, 4), (-25.0, 48.0, -36.0, 16.0, -3.0)),
    ((-1, 0, 1, 2, 3), (-3.0, -10.0, 18.0, -6.0, 1.0)),
    ((-2, -1, 0, 1, 2), (1.0, -8.0, 0.0, 8.0, -1.0)),
)


def _taylor_constant(offsets, weights) -> float:
    """|stencil error| <= h^4 * max|f^(5)| * constant: each Taylor remainder
    of f(x + o h) is at most |o h|^5 max|f^(5)| / 5!."""
    return sum(abs(w) / 12.0 * abs(o) ** 5 for o, w in zip(offsets, weights)) / 120.0


def domain(kind: str, n: int):
    return {"circle": mf.circle, "torus2": mf.torus2, "interval": mf.interval}[kind](n)


@dataclass
class Case:
    kind: str
    n: int
    m: int
    p: int
    q: int
    omega: dict                 # multi-index -> Trig on R^m
    alpha: dict                 # multi-index -> Trig on the source chart
    f: list                     # m Trigs on the source chart
    tangents: list              # n_slots lists of m Trigs
    program: tuple = field(default=(), repr=False)   # (omega, alpha, dom, f, ts)

    @property
    def k(self) -> int:
        return 2 if self.kind == "torus2" else 1


def draw_case(rng, kind, n, m, p, q) -> Case:
    k = 2 if kind == "torus2" else 1
    slots = p + q - k
    src = dict(max_mode=SOURCE_MODES)
    return Case(kind, n, m, p, q,
                omega=random_coeffs(rng, m, p),
                alpha=random_coeffs(rng, k, q, **src),
                f=[random_trig(rng, k, **src) for _ in range(m)],
                tangents=[[random_trig(rng, k, **src) for _ in range(m)]
                          for _ in range(slots)])


def to_program(case: Case):
    """The mapforms objects of a case, sampled on the benchmark's own grid."""
    nodes = grid(case.kind, case.n)[0]
    dom = domain(case.kind, case.n)
    f = mf.MapPoint(dom, vector_values(case.f, nodes))
    ts = [mf.MapTangent(f, vector_values(t, nodes)) for t in case.tangents]
    return (program_form(mf, case.m, case.p, case.omega),
            program_form(mf, case.k, case.q, case.alpha), dom, f, ts)


@dataclass
class Inputs:
    cases: list
    reference: list = field(default_factory=list)   # (value, tolerance) per case


def build(seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    cases = []
    for kind, m, n, sigs in SIGNATURES:
        for p, q in sigs:
            case = draw_case(rng, kind, n, m, p, q)
            case.program = to_program(case)
            cases.append(case)
    return Inputs(cases)


def run_item(inputs: Inputs):
    out = []
    for case in inputs.cases:
        omega, alpha, dom, f, ts = case.program
        out.append((mf.hat_pairing(omega, alpha, dom)(f, *ts),
                    mf.hat_pairing_fiber(omega, alpha, dom)(f, *ts)))
    return out


def reference(case: Case):
    """(value, tolerance) of the pairing, from the kept parameters alone.

    The tolerance is roundoff on the periodic sources, where spectral
    differentiation is exact for these band-limited maps.  On the interval
    the program differentiates with 4th-order finite differences, so the
    tolerance adds the truncation bound of the stencils, propagated through
    the integrand, which is linear in the tangent-map column it uses.
    """
    nodes, w, k = grid(case.kind, case.n)
    x = vector_values(case.f, nodes)
    T = vector_jacobian(case.f, nodes)
    Y = [vector_values(t, nodes) for t in case.tangents]
    eye = np.eye(k)
    r = k - case.q                       # tangent-map columns fed to omega
    N = nodes.shape[0]
    total = np.zeros(N)
    scale = np.zeros(N)
    for sign, first, last in alternation(k, r):
        beta = form_value(case.omega, x, Y + [T[:, :, a] for a in first])
        al = form_value(case.alpha, nodes, [np.broadcast_to(eye[b], (N, k)) for b in last])
        total += sign * beta * al
        scale += np.abs(beta * al)
    value = float(w @ total)
    tol = ROUNDOFF * float(w @ scale)
    if case.kind == "interval" and r:
        h = 1.0 / (case.n - 1)
        row = np.full(N, _taylor_constant(*_STENCILS[2]))
        row[[0, -1]] = _taylor_constant(*_STENCILS[0])
        row[[1, -2]] = _taylor_constant(*_STENCILS[1])
        al = form_value(case.alpha, nodes, [])
        d5 = np.array([g.d5_bound(0) for g in case.f])
        # |integrand error| <= |alpha| * sum_j |omega(Y.., e_j)| * |dT_j|
        grad = np.column_stack([
            form_value(case.omega, x, Y + [np.broadcast_to(np.eye(case.m)[j], (N, case.m))])
            for j in range(case.m)])
        tol += float(w @ (np.abs(al) * (np.abs(grad) @ d5) * row)) * h ** 4
    return value, tol


def check(inputs: Inputs, outputs) -> list:
    """Problems in one item's outputs: both routes against the reference,
    and against each other to roundoff."""
    if not inputs.reference:
        inputs.reference = [reference(c) for c in inputs.cases]
    problems = []
    for case, (ref, tol), (hat, fib) in zip(inputs.cases, inputs.reference, outputs):
        label = f"{case.kind} p={case.p} q={case.q}"
        for route, v in (("hat_pairing", hat), ("hat_pairing_fiber", fib)):
            if not abs(v - ref) <= tol:
                problems.append(f"{label}: {route} {v!r} vs reference {ref!r} (tol {tol:.2e})")
        if not abs(hat - fib) <= ROUNDOFF * max(1.0, abs(ref)):
            problems.append(f"{label}: routes differ by {abs(hat - fib):.2e}")
    if len(outputs) != len(inputs.cases):
        problems.append(f"{len(outputs)} results for {len(inputs.cases)} cases")
    return problems
