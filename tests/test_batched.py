"""The batched nodal evaluation contract: every evaluator takes points and
vectors stacked as rows and returns one value per row.

Batched evaluation must agree with one single-point call per row, and the
array expressions over nodes in the pairings, Gram matrices and resampling
must agree with the per-node loops kept here as references.  The sums run
in another order than the loops, so agreement is required to a relative
1e-14 (a few units in the last place of float64), not bit for bit; an
operation that differences its argument at a step h divides that roundoff
by h, so it is compared to 1e-14 / h.
"""

import numpy as np
import pytest

from mapforms import catalog as cat
from mapforms import grassmannian as gr
from mapforms.charts import DEFAULT_FD_STEP, ChartMap, affine_field, constant_field
from mapforms.domains import circle, interval, torus2
from mapforms.forms import (constant_form, coordinate_form,
                            exterior_derivative, fiber_integrate, form_scale,
                            form_sum, integrate, interior, lie_derivative,
                            lie_derivative_flow, product_form, pullback,
                            scalar_const, scalar_coordinate, scalar_partial,
                            scalar_sum, shuffles, strip_analytic, trig_scalar,
                            volume_form, wedge, zero_form)
from mapforms.mapspace import MapTangent, bar_map_direct, hat_gram, hat_pairing

RTOL = 1e-14
N = 7


def assert_rows_match(batched, singles, rtol=RTOL):
    batched, singles = np.asarray(batched), np.asarray(singles)
    assert batched.shape == singles.shape
    scale = np.maximum(1.0, np.abs(singles))
    assert np.all(np.abs(batched - singles) <= rtol * scale)


def points(m, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, (N, m)), [rng.uniform(-1.0, 1.0, (N, m)) for _ in range(5)]


def check_form(form, step=1.0):
    x, vs = points(form.ambient_dim)
    vs = vs[:form.degree]
    batched = form.evaluator(x, vs)
    singles = [form(x[i], *[v[i] for v in vs]) for i in range(N)]
    assert_rows_match(batched, singles, RTOL / step)


def _forms():
    rng = np.random.default_rng(11)
    a1, a2, a3 = (cat.random_form(4, p, rng) for p in (1, 2, 3))
    X = affine_field(rng.uniform(-1, 1, (4, 4)), rng.uniform(-1, 1, 4))
    phi = ChartMap(lambda u: np.array([u[0], u[1], u[0] * u[1], np.sin(u[2])]), 3, 4,
                   jacobian_func=lambda u: np.array([
                       [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [u[1], u[0], 0.0],
                       [0.0, 0.0, np.cos(u[2])]]))
    fd, flow = DEFAULT_FD_STEP, 1e-5
    return {
        "zero": (zero_form(4, 2), 1.0),
        "constant": (constant_form(4, 0.3), 1.0),
        "coordinate": (coordinate_form((1, 3), 4, 2.0), 1.0),
        "volume-det-path": (volume_form(4, 0.5), 1.0),
        "coefficient-0": (cat.random_form(4, 0, rng), 1.0),
        "coefficient-1": (a1, 1.0),
        "coefficient-2": (a2, 1.0),
        "coefficient-3": (a3, 1.0),
        "coefficient-4": (cat.random_form(4, 4, rng), 1.0),
        "sum": (form_sum(a2, cat.random_form(4, 2, rng)), 1.0),
        "scale": (form_scale(-1.5, a3), 1.0),
        "wedge": (wedge(a1, a2), 1.0),
        "interior": (interior(a3, X), 1.0),
        "d-analytic": (exterior_derivative(a2), 1.0),
        "d-fd": (exterior_derivative(strip_analytic(a2)), fd),
        "d-richardson": (exterior_derivative(strip_analytic(a1), richardson=True), fd),
        "pullback": (pullback(a2, phi), 1.0),
        "lie-0": (lie_derivative(cat.random_form(4, 0, rng), X), fd),
        "lie-2": (lie_derivative(a2, X), fd),
        "lie-flow": (lie_derivative_flow(a1, constant_field([0.2, -0.1, 0.4, 0.3])), flow),
    }


@pytest.mark.parametrize("name", sorted(_forms()))
def test_batched_form_matches_single_points(name):
    check_form(*_forms()[name])


@pytest.mark.parametrize("dom", [circle(12), torus2(5), interval(9), interval(9).boundary()],
                         ids=["circle", "torus2", "interval", "points"])
def test_batched_fiber_integral_matches_single_points(dom):
    rng = np.random.default_rng(12)
    w = product_form(dom.chart_dim, 2, cat.random_form(dom.chart_dim + 2, dom.dim + 1, rng))
    check_form(fiber_integrate(w, dom))


def test_batched_scalar_funcs_match_single_points():
    rng = np.random.default_rng(13)
    t = trig_scalar(3, rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, 3),
                    rng.uniform(0, 6, 3))
    funcs = [t, scalar_const(0.7, 3), scalar_coordinate(2, 3),
             scalar_sum([t, scalar_coordinate(0, 3)]), scalar_partial(t, 1)]
    x, _ = points(3)
    for f in funcs:
        assert_rows_match(f.value(x), [f(xi) for xi in x])
        if f.grad is not None:
            assert_rows_match(f.grad(x), [f.grad(xi[None])[0] for xi in x])
            assert f.grad(x).shape == (N, 3)
        if f.hess is not None:
            assert f.hess(x).shape == (N, 3, 3)
    # the trig gradient and Hessian against central differences of value
    h, e = 1e-5, np.eye(3)
    fd_grad = np.stack([(t.value(x + h * e[j]) - t.value(x - h * e[j])) / (2 * h)
                        for j in range(3)], axis=1)
    assert np.max(np.abs(fd_grad - t.grad(x))) < 1e-9
    fd_hess = np.stack([(t.grad(x + h * e[j]) - t.grad(x - h * e[j])) / (2 * h)
                        for j in range(3)], axis=2)
    assert np.max(np.abs(fd_hess - t.hess(x))) < 1e-9


def test_integrate_matches_node_loop():
    rng = np.random.default_rng(14)
    for dom, form in [(circle(16), cat.random_form(1, 1, rng, integer_modes=True)),
                      (torus2(6), cat.random_form(2, 2, rng, integer_modes=True))]:
        frame = list(np.eye(dom.chart_dim)[:dom.dim])
        loop = sum(dom.signed_weights[i] * form(dom.nodes[i], *frame)
                   for i in range(dom.n_nodes))
        assert integrate(form, dom) == pytest.approx(loop, rel=RTOL, abs=RTOL)


# ---------------------------------------------------------------------------
# per-node references of the pairings

def hat_pairing_loop(omega, alpha, dom, f, tangents):
    """The pointwise route node by node, with single-point form calls."""
    k, q = dom.dim, alpha.degree
    Tf = f.jacobian()
    basis = np.eye(dom.chart_dim)
    total = 0.0
    for i in range(dom.n_nodes):
        fixed = [t.vectors[i] for t in tangents]
        acc = 0.0
        for left, right, sign in shuffles(k - q, q):
            om = omega(f.values[i], *fixed, *[Tf[i, :, a] for a in left])
            acc += sign * om * alpha(dom.nodes[i], *[basis[b] for b in right])
        total += dom.signed_weights[i] * acc
    return total


@pytest.mark.parametrize("kind, m, p, q", [
    ("circle", 3, 2, 0), ("circle", 3, 2, 1), ("torus2", 4, 2, 1),
    ("torus2", 4, 3, 0), ("interval", 3, 2, 1)])
def test_hat_pairing_matches_node_loop(kind, m, p, q):
    dom = {"circle": circle(24), "torus2": torus2(8), "interval": interval(17)}[kind]
    rng = np.random.default_rng(15)
    omega = cat.random_form(m, p, rng)
    alpha = cat.random_form(dom.chart_dim, q, rng, integer_modes=True)
    f = cat.random_map(dom, m, rng, amp=0.8)
    ts = [cat.random_tangent(f, rng) for _ in range(p + q - dom.dim)]
    got = hat_pairing(omega, alpha, dom)(f, *ts)
    assert got == pytest.approx(hat_pairing_loop(omega, alpha, dom, f, ts),
                                rel=RTOL, abs=RTOL)


def test_bar_map_direct_matches_node_loop():
    dom = circle(20)
    rng = np.random.default_rng(16)
    omega = cat.random_form(3, 2, rng)
    f = cat.random_map(dom, 3, rng, amp=0.8)
    ts = [cat.random_tangent(f, rng) for _ in range(2)]
    sw = dom.signed_weights / dom.volume
    loop = sum(sw[i] * omega(f.values[i], *[t.vectors[i] for t in ts])
               for i in range(dom.n_nodes))
    assert bar_map_direct(omega, dom)(f, *ts) == pytest.approx(loop, rel=RTOL, abs=RTOL)


# ---------------------------------------------------------------------------
# Gram matrices: block assembly against the pairing-by-pairing loop

def gram_loop(pairing, n, m):
    def basis(flat):
        v = np.zeros((n, m))
        v[flat // m, flat % m] = 1.0
        return v

    return np.array([[pairing(basis(r), basis(c)) for c in range(n * m)]
                     for r in range(n * m)])


def test_mw_gram_matrix_matches_pairing_loop():
    dom = circle(6)
    loop = gr.embed(cat.random_loop(dom, 3, np.random.default_rng(17)))
    pairing = gr.mw_form(volume_form(3), loop)
    want = gram_loop(lambda a, b: pairing(MapTangent(loop.rep, a), MapTangent(loop.rep, b)),
                     6, 3)
    G = gr.mw_gram_matrix(volume_form(3), loop)
    assert np.max(np.abs(G - want)) <= RTOL * max(1.0, np.max(np.abs(want)))


def test_hat_gram_matches_pairing_loop_on_curved_data():
    dom = circle(8)
    rng = np.random.default_rng(18)
    omega = cat.random_form(3, 3, rng, amp=0.8)
    alpha = cat.random_form(1, 0, rng, integer_modes=True)
    f = cat.random_map(dom, 3, rng, amp=0.8)
    W = hat_pairing(omega, alpha, dom)
    want = gram_loop(lambda a, b: W(f, MapTangent(f, a), MapTangent(f, b)), 8, 3)
    G = hat_gram(omega, alpha, dom, f)
    assert np.max(np.abs(G - want)) <= RTOL * max(1.0, np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# node lookup and resampling

@pytest.mark.parametrize("dom", [circle(10), torus2(6), interval(9),
                                 interval(9).boundary()],
                         ids=["circle", "torus2", "interval", "points"])
def test_node_index_on_arrays(dom):
    order = np.random.default_rng(19).permutation(dom.n_nodes)
    assert np.array_equal(dom.node_index(dom.nodes[order]), order)
    assert dom.node_index(dom.nodes[order[0]]) == order[0]
    off = dom.nodes[order].copy()
    off[len(off) // 2] += 0.05
    with pytest.raises(KeyError):
        dom.node_index(off)


def test_periodic_node_index_wraps():
    dom = circle(8)
    assert np.array_equal(dom.node_index(dom.nodes[[1, 3]] + 2 * np.pi), [1, 3])


def test_torus_resampling_matches_per_component_contraction():
    from mapforms.domains import _nyquist_basis
    dom = torus2(8)
    rng = np.random.default_rng(20)
    values = rng.uniform(-1.0, 1.0, (dom.n_nodes, 3))
    pts = rng.uniform(0.0, 2 * np.pi, (11, 2))
    want = np.empty((11, 3))
    for j in range(3):
        c = np.fft.fft2(values[:, j].reshape(8, 8)) / 64
        want[:, j] = np.real(np.einsum("qa,ab,qb->q", _nyquist_basis(8, pts[:, 0]), c,
                                       _nyquist_basis(8, pts[:, 1])))
    assert np.max(np.abs(dom.resample(values, pts) - want)) < 1e-13
