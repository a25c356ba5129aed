"""The hat density folds its shuffle terms into few ω calls.

The pointwise pairing sums sign_s α_s ω(Y.., Tf columns of left_s) over the
(k-q, q)-shuffles.  ω is multilinear, so the terms sharing all but their
last Tf column are one ω call on the α-weighted sum of those columns.  The
per-term loop the fold replaced is kept here as the reference.
"""

import numpy as np
import pytest

from mapforms import catalog as cat
from mapforms.domains import circle, interval, torus, torus2
from mapforms.forms import Form, broadcast_rows, shuffles
from mapforms.mapspace import MapStack, _hat_density

DOMAINS = {1: [circle(12), interval(9)], 2: [torus2(6)], 3: [torus((4, 4, 5))]}


def _reference_density(omega, alpha_f, dom):
    """One ω call per shuffle term, α applied after ω."""
    k, q = dom.dim, alpha_f.degree
    splits = shuffles(k - q, q)
    frame = [broadcast_rows(e, dom.nodes) for e in np.eye(dom.chart_dim)]
    alpha_vals = [sign * alpha_f.evaluator(dom.nodes, [frame[b] for b in right])
                  for _, right, sign in splits]

    def density(F, tang):
        Tf = F.jacobian()
        x, ys = F.as_rows(F.values), [F.as_rows(t) for t in tang]
        acc = np.zeros(len(x))
        for (left, _, _), al in zip(splits, alpha_vals):
            cols = [F.as_rows(Tf[..., a]) for a in left]
            acc = acc + omega.evaluator(x, ys + cols) * np.tile(al, F.size)
        return F.from_rows(acc)

    return density


def _cases():
    for k in (1, 2, 3):
        for q in range(k + 1):
            for m in range(1, 6):
                for p in range(k - q, m + 1):
                    yield k, q, m, p


def _counting(omega, calls):
    def ev(x, vs):
        calls.append(len(x))
        return omega.evaluator(x, vs)
    return Form(omega.degree, omega.ambient_dim, ev, name=omega.name)


@pytest.mark.parametrize("k, q, m, p", list(_cases()))
def test_folded_density_matches_the_per_term_loop(k, q, m, p):
    rng = np.random.default_rng([k, q, m, p])
    for dom in DOMAINS[k]:
        omega = cat.random_form(m, p, rng)
        alpha = cat.random_form(dom.chart_dim, q, rng)
        F = MapStack(dom, rng.standard_normal((3, dom.n_nodes, m)))
        tang = [rng.standard_normal(F.values.shape) for _ in range(p + q - k)]
        ref = _reference_density(omega, alpha, dom)(F, tang)
        calls = []
        got = _hat_density(_counting(omega, calls), alpha, dom)(F, tang)
        assert got.shape == (3, dom.n_nodes)
        assert np.max(np.abs(got - ref)) <= 1e-14 * max(np.max(np.abs(ref)), 1e-300)
        assert len(calls) == (2 if (k, q) == (3, 1) else 1)
        assert calls == [3 * dom.n_nodes] * len(calls)
