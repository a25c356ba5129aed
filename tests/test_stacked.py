"""The stacked evaluation protocol of map-space forms: an evaluator takes a
MapStack of B maps on one domain, values (B, n_nodes, m), and tangent
arrays (B, n_nodes, m), and returns B values.

Each map of a stack must get exactly the value it gets alone, bit for bit,
since reports are byte-identical only if stacking changes no residual.
map_space_d sends all shifts of a stack to its inner form in one call, and
the refinement ladders draw each case once.
"""

import numpy as np
import pytest

from mapforms import catalog as cat
from mapforms import mechanics as me
from mapforms import suites as su
from mapforms.charts import affine_map, constant_field, worst
from mapforms.domains import _wavenumbers, circle, interval, torus2
from mapforms.forms import (coefficient_form, exterior_derivative, scalar_coordinate,
                            strip_analytic, volume_form)
from mapforms.mapspace import (MapSpaceForm, MapStack, MapTangent,
                               action_pullback_M,
                               action_pullback_S, bar_map, bar_map_direct,
                               boundary_pullback, generator_M, generator_S,
                               hat_gram, hat_map, hat_pairing,
                               hat_pairing_fiber, map_space_d,
                               map_space_interior, map_space_lie,
                               map_space_lie_flow, mapspace_scale,
                               mapspace_sum, zero_mapspace_form)

B = 3
DOMAINS = {"circle": lambda: circle(16), "torus2": lambda: torus2(8),
           "interval": lambda: interval(17)}


def _reparam(kind):
    """A diffeomorphism of the periodic source chart with an inverse."""
    if kind == "circle":
        return cat.circle_warp()
    return cat.rigid_shift_2d(0.3, -0.2)


def _reparam_flow(kind, t):
    """A one-parameter family of diffeomorphisms of the periodic source
    chart, the identity at t = 0."""
    if kind == "circle":
        return cat.rigid_shift(0.4 * t)
    return cat.rigid_shift_2d(0.3 * t, -0.2 * t)


def _forms(kind, dom):
    """Every map-space form constructor on a 3-dimensional target, as
    (label, form)."""
    rng = np.random.default_rng([11, len(kind)])
    k = dom.dim
    om2 = cat.random_form(3, 2, rng)
    al = cat.random_form(dom.chart_dim, k - 1, rng, integer_modes=True)
    W = hat_pairing(om2, al, dom)                    # degree 2 - (k - (k - 1)) = 1
    X = cat.random_affine_field(3, rng, amp=0.6)
    Z = constant_field(np.full(dom.chart_dim, 0.4))
    sys = me.canonical_r2()
    plane = affine_map(np.eye(3)[:2], name="R3->R2")  # the planar momenta read (x, y)
    out = [
        ("hat", W),
        ("hat_map", hat_map(cat.random_form(3, k + 1, rng), dom)),
        ("bar", bar_map(om2, dom)),
        ("bar_direct", bar_map_direct(om2, dom)),
        ("fiber", hat_pairing_fiber(om2, al, dom)),
        ("zero", zero_mapspace_form(1, "0")),
        ("sum", mapspace_sum(W, mapspace_scale(-0.5, W))),
        ("d", map_space_d(W)),
        ("dd", map_space_d(map_space_d(W))),
        ("interior_M", map_space_interior(map_space_d(W), lambda g: generator_M(X, g))),
        ("interior_S", map_space_interior(map_space_d(W), lambda g: generator_S(Z, g))),
        ("lie_M", map_space_lie(W, lambda g: generator_M(X, g))),
        ("lie_S", map_space_lie(W, lambda g: generator_S(Z, g))),
        ("lie_flow_M", map_space_lie_flow(lambda t: action_pullback_M(W, X.flow(t)))),
        ("push", action_pullback_M(bar_map(om2, dom), affine_map(
            [[1.0, 0.4, 0.0], [0.0, 1.0, 0.2], [0.1, 0.0, 0.9]], [0.2, 0.0, -0.1]))),
        ("momentum_lifted", action_pullback_M(
            me.momentum_lifted(me.se2_action(), dom, np.array([0.3, -1.2, 0.7])), plane)),
        ("momentum_diffham", action_pullback_M(
            me.momentum_diffham(sys, dom, sys.pair("xy")), plane)),
    ]
    if kind != "interval":  # only periodic domains resample
        out.append(("lie_flow_S", map_space_lie_flow(
            lambda t: action_pullback_S(W, _reparam_flow(kind, t)))))
        out.append(("reparam", action_pullback_S(W, _reparam(kind))))
    if kind == "interval":
        bdom = dom.boundary()
        out.append(("boundary", boundary_pullback(hat_pairing(om2, 1.0, bdom))))
        D = me.affine_subspace(np.zeros(3), np.eye(3)[:, :2])
        B2 = coefficient_form(2, 2, {(0, 1): cat.random_scalar(2, rng)}, name="B")
        out.append(("twist", me.twist_two_form(volume_form(3), B2, D, dom)))
    if kind == "torus2":
        alpha = cat.random_stream(dom, rng, max_mode=2)
        theta = coefficient_form(3, 1, {(2,): scalar_coordinate(0, 3)})
        out.append(("momentum_diffex", me.momentum_diffex(
            me.exact_two_form(theta), dom, alpha)))
    return out


def _stack(dom, degree, seed):
    rng = np.random.default_rng(seed)
    fs = [cat.random_map(dom, 3, rng, amp=0.8) for _ in range(B)]
    ts = [[cat.random_tangent(f, rng) for _ in range(degree)] for f in fs]
    F = MapStack(dom, np.stack([f.values for f in fs]))
    tangents = tuple(np.stack([t[j].vectors for t in ts]) for j in range(degree))
    return fs, ts, F, tangents


@pytest.mark.parametrize("kind", sorted(DOMAINS))
def test_stacked_evaluation_is_per_map_evaluation_bit_for_bit(kind):
    dom = DOMAINS[kind]()
    for label, W in _forms(kind, dom):
        fs, ts, F, tangents = _stack(dom, W.degree, seed=len(label))
        stacked = W.evaluator(F, tangents)
        alone = np.array([W(f, *t) for f, t in zip(fs, ts)])
        assert stacked.shape == (B,), label
        assert np.array_equal(stacked, alone), (label, stacked - alone)


def test_call_evaluates_a_stack_of_one():
    dom = circle(16)
    seen = []
    W = MapSpaceForm(1, lambda F, ts: seen.append((F.size, ts[0].shape)) or np.ones(F.size))
    f = cat.random_map(dom, 2, np.random.default_rng(0))
    assert W(f, MapTangent(f, np.ones((16, 2)))) == 1.0
    assert seen == [(1, (1, 16, 2))]


def _counted(W):
    sizes = []

    def ev(F, ts):
        sizes.append(F.size)
        return W.evaluator(F, ts)

    return MapSpaceForm(W.degree, ev, tag=W.tag), sizes


def test_map_space_d_of_a_diffham_momentum_makes_one_hamiltonian_call():
    dom = circle(16)
    sys = me.canonical_r2()
    pair = sys.pair("xy")
    calls = []

    def value(x):
        calls.append(x.shape)
        return pair.h.value(x)

    counted = me.HamiltonianPair(pair.name, cat.ScalarFunc(value, pair.h.grad), pair.field)
    dJ = map_space_d(me.momentum_diffham(sys, dom, counted))
    calls.clear()  # the normalization check at the base point
    f = cat.random_map(dom, 2, np.random.default_rng(9))
    Y = cat.random_tangent(f, np.random.default_rng(10))
    for n_eval in (1, 2):
        dJ(f, Y)
        assert calls == [(2 * 16, 2)] * n_eval


@pytest.mark.parametrize("kind", sorted(DOMAINS))
def test_map_space_d_makes_one_inner_call_per_evaluation(kind):
    dom = DOMAINS[kind]()
    rng = np.random.default_rng(4)
    W, sizes = _counted(hat_pairing(cat.random_form(3, 2, rng), 1.0, dom)
                        if dom.dim == 1 else
                        hat_pairing(cat.random_form(3, 3, rng), 1.0, dom))
    n = W.degree
    f = cat.random_map(dom, 3, rng)
    ts = [cat.random_tangent(f, rng) for _ in range(n + 2)]
    map_space_d(W)(f, *ts[:n + 1])
    assert sizes == [2 * (n + 1)]
    sizes.clear()
    inner, inner_sizes = _counted(map_space_d(W))
    map_space_d(inner)(f, *ts)
    assert inner_sizes == [2 * (n + 2)]
    assert sizes == [2 * (n + 2) * 2 * (n + 1)]


@pytest.mark.parametrize("kind", sorted(DOMAINS))
def test_map_space_d_and_chart_d_share_one_difference_kernel(kind):
    # differencing is linear, so d before and after the average differ only
    # in the order of the sums
    dom = DOMAINS[kind]()
    om = cat.random_form(3, 2, np.random.default_rng([12, len(kind)]))
    _, _, F, tangents = _stack(dom, 3, seed=13)
    before = map_space_d(bar_map_direct(om, dom)).evaluator(F, tangents)
    after = bar_map_direct(exterior_derivative(strip_analytic(om)), dom).evaluator(F, tangents)
    assert np.max(np.abs(before - after)) < 1e-10


def test_map_stack_validation():
    dom = circle(16)
    with pytest.raises(ValueError):
        MapStack(dom, np.zeros((16, 2)))
    with pytest.raises(ValueError):
        MapStack(dom, np.zeros((2, 15, 2)))
    f = cat.random_map(dom, 2, np.random.default_rng(1))
    F = MapStack.of(f)
    assert (F.size, F.target_dim) == (1, 2)
    assert np.array_equal(F.point(0).values, f.values)
    assert np.array_equal(F.jacobian()[0], f.jacobian())


@pytest.mark.parametrize("kind", sorted(DOMAINS))
def test_stacked_differentiation_is_per_map_bit_for_bit(kind):
    dom = DOMAINS[kind]()
    V = np.random.default_rng(2).standard_normal((4, dom.n_nodes, 3))
    J = dom.map_jacobian(V)
    assert J.shape == (4, dom.n_nodes, 3, dom.dim)
    for b in range(4):
        assert np.array_equal(J[b], dom.map_jacobian(V[b]))


def test_hat_gram_matches_pairings_on_the_nodal_basis():
    dom = circle(6)
    rng = np.random.default_rng(8)
    om = cat.random_form(2, 2, rng)
    f = cat.random_map(dom, 2, rng)
    G = hat_gram(om, volume_form(1), dom, f)
    W = hat_pairing(om, volume_form(1), dom)
    basis = np.eye(dom.n_nodes * 2).reshape(-1, dom.n_nodes, 2)
    ref = np.array([[W(f, MapTangent(f, a), MapTangent(f, b)) for b in basis] for a in basis])
    assert np.max(np.abs(G - ref)) < 1e-14


@pytest.mark.parametrize("kind", ["circle", "torus2"])
def test_smoothness_defect_is_the_worst_column(kind):
    dom = DOMAINS[kind]()
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((dom.n_nodes, 3))
    vals[:, 1] = 0.0
    assert dom.smoothness_defect(vals) == worst(
        dom.smoothness_defect(vals[:, [j]]) for j in range(3))
    assert dom.smoothness_defect(np.zeros((dom.n_nodes, 2))) == 0.0


def test_wavenumbers_are_cached_read_only():
    k = _wavenumbers(16, 2.0 * np.pi)
    assert k is _wavenumbers(16, 2.0 * np.pi)
    assert not k.flags.writeable
    assert k[8] == 0.0 and k[1] == 1.0


@pytest.mark.parametrize("kind", sorted(DOMAINS))
def test_random_maps_sample_each_component_as_its_scalar(kind):
    dom = DOMAINS[kind]()
    a, b = np.random.default_rng(6), np.random.default_rng(6)
    f = cat.random_map(dom, 3, a, amp=0.8)
    y = cat.random_tangent(f, a)
    ref_f = np.column_stack([cat.random_scalar(dom.chart_dim, b, amp=0.8).value(dom.nodes)
                             for _ in range(3)])
    ref_y = np.column_stack([cat.random_scalar(dom.chart_dim, b).value(dom.nodes)
                             for _ in range(3)])
    assert np.array_equal(f.values, ref_f)
    assert np.array_equal(y.vectors, ref_y)
    assert a.uniform() == b.uniform()  # the same draws, in the same order


def _count_random_maps(monkeypatch):
    calls = []
    real = cat.random_map

    def counted(*args, **kwargs):
        calls.append(args[0].kind)
        return real(*args, **kwargs)

    monkeypatch.setattr(cat, "random_map", counted)
    return calls


def test_ladder_draws_its_ladder_case_once(monkeypatch):
    calls = _count_random_maps(monkeypatch)
    records = su._Records(su.SuiteConfig(seed=3))
    dom = circle(32)
    records.ladder("derivation-circle-p2q0", "d(w.a)^ = (dw.a)^", dom,
                   lambda rng: su.derivation_residual(dom, 3, 2, 0, rng),
                   [(2, i) for i in range(su.TRIALS)], (3,))
    # one draw per trial key, one for the floor and all four steps
    assert len(calls) == su.TRIALS + 1
    assert records[0].order is not None


def test_boundary_and_momentum_ladders_draw_once(monkeypatch):
    calls = _count_random_maps(monkeypatch)
    config = su.SuiteConfig(seed=3)
    su.run_boundary(config)
    # two ladders of (TRIALS + 1) cases, the witness and the top-degree case
    assert len(calls) == 2 * (su.TRIALS + 1) + 2
    calls.clear()
    su.run_momentum(config)
    # three lifted and three diffham generators, one diffex case
    assert calls == ["circle"] * 6 + ["torus2"]
