"""Momentum maps, non-equivariance cocycles, the volume-integral cocycle,
open-string boundary data, and the commuting-action pair."""

import itertools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from mapforms import catalog as cat
from mapforms import domains, mapspace, suites
from mapforms import mechanics as me
from mapforms.charts import DEFAULT_FD_STEP, DimensionMismatch, constant_field, worst
from mapforms.domains import ScalarField, circle, interval, torus2
from mapforms.forms import (Form, broadcast_rows, coefficient_form, coordinate_form,
                            scalar_const, scalar_coordinate, trig_scalar, volume_form)
from mapforms.mapspace import (MapPoint, MapSpaceForm, MapStack, MapTangent, bar_map,
                               bar_map_direct, generator_M)


@pytest.fixture(scope="module")
def sys_r2():
    sys = me.canonical_r2()
    sys.validate(np.random.default_rng(0))
    return sys


@pytest.fixture(scope="module")
def loop_domain():
    return circle(48)


@pytest.fixture(scope="module")
def torus_domain():
    return torus2(24)


@pytest.fixture(scope="module")
def exact_form_r4():
    theta = coefficient_form(4, 1, {(2,): scalar_coordinate(0, 4)})
    return me.exact_two_form(theta)


def test_catalog_validation_rejects_unnormalized(sys_r2):
    bad = me.hamiltonian_field_r2(
        cat.ScalarFunc(lambda x: x[..., 0] + 1.0,
                       lambda x: broadcast_rows([1.0, 0.0], x),
                       lambda x: broadcast_rows(np.zeros((2, 2)), x)), "x+1")
    broken = me.HamiltonianSystem(sys_r2.omega, sys_r2.omega_matrix,
                                  sys_r2.base_point, (bad,))
    with pytest.raises(ValueError):
        broken.validate(np.random.default_rng(1))


def test_catalog_validation_rejects_a_nan_field(sys_r2):
    # a NaN pair among finite ones must not be outvoted by them
    x = sys_r2.pair("x")
    nan_field = replace(x.field, func=lambda u: np.full(u.shape, np.nan))
    broken = replace(sys_r2, catalog=(x, replace(x, name="nan", field=nan_field), x))
    with pytest.raises(ValueError, match="catalog residual nan"):
        broken.validate(np.random.default_rng(1))


def test_catalog_validation_rejects_a_nan_omega_matrix(sys_r2):
    broken = replace(sys_r2, omega_matrix=np.full((2, 2), np.nan))
    # refused before numpy's det, which would warn on the NaN input
    with pytest.raises(ValueError, match="not finite"):
        broken.validate(np.random.default_rng(1))


def test_momentum_diffham_rejects_a_nan_base_value(sys_r2, loop_domain):
    x = sys_r2.pair("x")
    nan_h = replace(x.h, value=lambda u: np.full(len(u), np.nan))
    with pytest.raises(ValueError, match="not normalized"):
        me.momentum_diffham(sys_r2, loop_domain, replace(x, h=nan_h))


def test_momentum_diffham_values(sys_r2, loop_domain):
    f = cat.unit_circle_map(loop_domain, 2)
    assert abs(me.momentum_diffham(sys_r2, loop_domain, sys_r2.pair("x"))(f)) < 1e-14
    const = MapPoint(loop_domain, np.tile([0.4, -0.3], (loop_domain.n_nodes, 1)))
    got = me.momentum_diffham(sys_r2, loop_domain, sys_r2.pair("xy"))(const)
    assert got == pytest.approx(0.4 * -0.3)
    # the interval's end-corrected weights are not the circle's
    other = interval(loop_domain.n_nodes)
    with pytest.raises(DimensionMismatch):
        me.momentum_diffham(sys_r2, loop_domain, sys_r2.pair("xy"))(
            MapPoint(other, np.tile([0.4, -0.3], (other.n_nodes, 1))))


def test_diffham_hamiltonian_identity(sys_r2, loop_domain):
    rng = np.random.default_rng(2)
    ham = me.diffham_action(sys_r2, loop_domain)
    residuals = []
    for pair in sys_r2.catalog:
        f = cat.random_map(loop_domain, 2, rng, amp=0.8)
        Y = cat.random_tangent(f, rng)
        residuals.append(me.momentum_identity_residual(ham, pair, f, Y)(DEFAULT_FD_STEP))
    assert worst(residuals) < 1e-6


def test_cocycle_diffham_value_and_dual_route(sys_r2, loop_domain):
    sx, sy = sys_r2.pair("x"), sys_r2.pair("y")
    assert me.cocycle_diffham(sys_r2, sx, sy) == pytest.approx(-1.0)
    assert me.cocycle_diffham(sys_r2, sx, sx) == 0.0
    rng = np.random.default_rng(3)
    dual = me.cocycle_defining(me.diffham_action(sys_r2, loop_domain), sx, sy)
    vals = [dual(cat.random_map(loop_domain, 2, rng, amp=0.7)) for _ in range(10)]
    assert worst(abs(v + 1.0) for v in vals) < 1e-6
    assert worst(abs(a - b) for a, b in itertools.combinations(vals, 2)) < 1e-8


def test_cocycle_diffham_jacobi(sys_r2, loop_domain):
    pairs = [sys_r2.pair(n) for n in ("x", "y", "xy", "sin_x", "r2/2")]
    ham = me.diffham_action(sys_r2, loop_domain)

    def sigma(X, Y):
        return me.cocycle_diffham(sys_r2, X, Y)

    for triple in [pairs[:3], pairs[2:]]:
        assert abs(me.cocycle_jacobi_sum(ham, sigma, *triple)) < 1e-6


def test_lifted_action(sys_r2, loop_domain):
    group = me.se2_action()
    lifted, basis = me.lifted_action(group, sys_r2, loop_domain), np.eye(3)
    f = cat.unit_circle_map(loop_domain, 2)
    J = [lifted.momentum(e)(f) for e in basis]
    assert np.allclose(J, [-0.5, 0.0, 0.0], atol=1e-12)
    rng = np.random.default_rng(4)
    g = cat.random_map(loop_domain, 2, rng, amp=0.7)
    # the translation pair carries the constant cocycle -1, also at a
    # constant map away from the base point
    const = MapPoint(loop_domain, np.tile([0.7, -0.2], (loop_domain.n_nodes, 1)))
    for h in (g, const):
        assert me.cocycle_defining(lifted, basis[1], basis[2])(h) == \
            pytest.approx(-1.0, abs=1e-10)
    # non-equivariance matches the base cocycle for every pair, and the
    # momentum and cocycle are linear in the coefficients
    for u in basis:
        for v in basis:
            assert me.cocycle_defining(lifted, u, v)(g) == \
                pytest.approx(me.cocycle_lifted_base(group, sys_r2, u, v), abs=1e-10)
    c, d = rng.uniform(-1.0, 1.0, (2, 3))
    assert lifted.momentum(c)(g) == pytest.approx(c @ [lifted.momentum(e)(g) for e in basis])
    assert me.cocycle_defining(lifted, c, d)(g) == pytest.approx(
        me.cocycle_lifted_base(group, sys_r2, c, d), abs=1e-10)


def test_momentum_lifted_averages_only_the_nonzero_coefficients(sys_r2, loop_domain,
                                                                 monkeypatch):
    # one bar_map_direct evaluation per nonzero coefficient of the element:
    # a basis vector costs one average, the bracket [tx, ty] = 0 none
    evaluations = []

    def counted(omega, dom):
        W = mapspace.bar_map_direct(omega, dom)
        return replace(W, evaluator=lambda F, ts: evaluations.append(F.size)
                       or W.evaluator(F, ts))

    monkeypatch.setattr(me, "bar_map_direct", counted)
    group = me.se2_action()
    f = cat.random_map(loop_domain, 2, np.random.default_rng(12), amp=0.8)
    for c, count in [([1.0, 0.0, 0.0], 1), ([0.0, 0.0, -1.0], 1), ([0.0, 0.5, 2.0], 2),
                     ([0.3, -1.2, 0.7], 3), (group.bracket(np.eye(3)[1], np.eye(3)[2]), 0)]:
        evaluations.clear()
        value = me.momentum_lifted(group, loop_domain, np.array(c))(f)
        assert evaluations == [1] * count
        if count == 0:
            assert value == 0.0
    e_rot = np.eye(3)[0]
    assert me.momentum_lifted(group, loop_domain, e_rot)(f) == \
        mapspace.bar_map_direct(Form(0, 2, lambda x, vs: group.momenta[0].value(x)),
                                loop_domain)(f)


def test_momentum_diffex_oracle_value(torus_domain, exact_form_r4):
    dom = torus_domain
    f = cat.torus_graph_map(dom)
    x, y = dom.nodes[:, 0], dom.nodes[:, 1]
    alpha = ScalarField(dom, np.sin(x) * np.sin(y))
    # independent oracle: direct quadrature of the pulled-back integrand
    oracle = float(np.sum(dom.weights * np.sin(x) ** 2 * np.sin(y) ** 2))
    assert oracle == pytest.approx(np.pi ** 2)
    r1, r2 = (r[0] for r in me.diffex_routes(exact_form_r4, dom, alpha)(MapStack.of(f)))
    assert r1 == pytest.approx(oracle, abs=1e-10)
    assert r2 == pytest.approx(oracle, abs=1e-10)
    assert me.momentum_diffex(exact_form_r4, dom, alpha)(f) == r1


def test_momentum_diffex_trivial_cases(torus_domain, exact_form_r4):
    dom = torus_domain
    f = cat.torus_graph_map(dom)
    zero = ScalarField(dom, np.zeros(dom.n_nodes))
    assert me.momentum_diffex(exact_form_r4, dom, zero)(f) == 0.0
    const = MapPoint(dom, np.tile([0.2, 0.4, -0.1, 0.3], (dom.n_nodes, 1)))
    alpha = ScalarField(dom, np.sin(dom.nodes[:, 0]))
    assert me.momentum_diffex(exact_form_r4, dom, alpha)(const) == 0.0


def test_momentum_diffex_evaluates_the_pairing_route_only(torus_domain, exact_form_r4,
                                                          monkeypatch):
    dom = torus_domain
    f = cat.torus_graph_map(dom)
    alpha = ScalarField(dom, np.sin(dom.nodes[:, 0]) * np.sin(dom.nodes[:, 1]))
    J = me.momentum_diffex(exact_form_r4, dom, alpha)
    expected = J(f)

    def direct_route(*args):
        raise AssertionError("momentum_diffex evaluated the direct route")

    monkeypatch.setattr(me, "pullback_coefficient", direct_route)
    assert J(f) == expected
    assert J.tag == "J_diffex"


def test_exact_two_form_gate():
    with pytest.raises(Exception):
        me.exact_two_form(coordinate_form((0, 1), 4))  # not a 1-form


def test_momentum_identity_residual_evaluates_omega_bar_once(sys_r2, loop_domain):
    rng = np.random.default_rng(3)
    ham, calls = me.diffham_action(sys_r2, loop_domain), []
    counted = replace(ham, omega_bar=MapSpaceForm(
        2, lambda F, ts: calls.append(F.size) or ham.omega_bar.evaluator(F, ts)))
    f = cat.random_map(loop_domain, 2, rng, amp=0.8)
    residual = me.momentum_identity_residual(counted, sys_r2.pair("x"), f,
                                             cat.random_tangent(f, rng))
    ladder = [residual(h) for h in (DEFAULT_FD_STEP, 4e-3, 2e-3, 1e-3, 5e-4)]
    assert calls == [1]
    assert worst(ladder) < 1e-4 and ladder[0] < 1e-6


def test_diffex_hamiltonian_identity(torus_domain, exact_form_r4):
    rng = np.random.default_rng(5)
    residuals = []
    for _ in range(2):
        f = cat.random_map(torus_domain, 4, rng, amp=0.7)
        Y = cat.random_tangent(f, rng)
        alpha = cat.random_stream(torus_domain, rng, max_mode=2)
        residuals.append(me.momentum_identity_residual(
            me.diffex_action(exact_form_r4, torus_domain), alpha, f, Y)(DEFAULT_FD_STEP))
    assert worst(residuals) < 1e-6


def test_cocycle_diffex_routes_and_homotopy(torus_domain, exact_form_r4):
    dom = torus_domain
    rng = np.random.default_rng(6)
    a1 = cat.random_stream(dom, rng, max_mode=2)
    a2 = cat.random_stream(dom, rng, max_mode=2)
    f = cat.random_map(dom, 4, rng, amp=0.7)
    sigma = me.cocycle_diffex(exact_form_r4, dom, a1, a2)
    s_defining = me.cocycle_defining(me.diffex_action(exact_form_r4, dom), a1, a2)(f)
    assert abs(sigma(f) - s_defining) < 1e-6
    # for an exact target form the class of f*omega vanishes, so both do
    assert abs(sigma(f)) < 1e-10

    bump = cat.random_map(dom, 4, rng, amp=0.5)
    vals = [sigma(MapPoint(dom, f.values + t * bump.values)) for t in np.linspace(0, 1, 5)]
    assert worst(abs(a - b) for a, b in itertools.combinations(vals, 2)) < 1e-6


def test_cocycle_diffex_trivial_generator(torus_domain, exact_form_r4):
    dom = torus_domain
    rng = np.random.default_rng(7)
    f = cat.random_map(dom, 4, rng, amp=0.7)
    const = ScalarField(dom, np.full(dom.n_nodes, 0.8))
    a2 = cat.random_stream(dom, rng, max_mode=2)
    assert abs(me.cocycle_diffex(exact_form_r4, dom, const, a2)(f)) < 1e-14


def test_cocycle_diffex_is_the_nodal_sum_of_the_pullback_coefficient(torus_domain,
                                                                     exact_form_r4):
    # the hand-written nodal sum that cocycle_diffex replaced by the pairing
    dom = torus_domain
    rng = np.random.default_rng(12)
    a1, a2 = (cat.random_stream(dom, rng, max_mode=2) for _ in range(2))
    Z1, Z2 = (dom.volume * domains.exact_divfree_field(dom, a) for a in (a1, a2))
    Pg = domains.projection_P(
        dom, (Z2[:, 0] * Z1[:, 1] - Z2[:, 1] * Z1[:, 0]) / dom.volume).values
    sigma = me.cocycle_diffex(exact_form_r4, dom, a1, a2)
    for _ in range(3):
        f = cat.random_map(dom, 4, rng, amp=0.7)
        c = me.pullback_coefficient(f, exact_form_r4.form)
        assert abs(sigma(f) - float(np.sum(dom.signed_weights * c * Pg))) < 1e-15


def test_lichnerowicz_values(torus_domain):
    dom = torus_domain
    eta = coordinate_form((0, 1), 2, 1.7)
    nu_unit = volume_form(2, 1.0 / dom.volume)
    ex, ey = constant_field([1.0, 0.0]), constant_field([0.0, 1.0])
    assert me.lichnerowicz(dom, eta, ex, ey, nu_unit) == pytest.approx(1.7)
    assert me.lichnerowicz(dom, eta, ey, ex, nu_unit) == pytest.approx(-1.7)
    assert me.lichnerowicz(dom, eta, ex, ex, nu_unit) == 0.0
    # unnormalized volume scales by the total coordinate volume
    assert me.lichnerowicz(dom, eta, ex, ey, volume_form(2)) == \
        pytest.approx(1.7 * 4 * np.pi ** 2)


def test_lichnerowicz_bilinear(torus_domain):
    dom = torus_domain
    rng = np.random.default_rng(8)
    eta = cat.random_form(2, 2, rng, integer_modes=True)
    nu = volume_form(2, 1.0 / dom.volume)
    X = cat.random_affine_field(2, rng)
    Y = cat.random_affine_field(2, rng)
    Z = cat.random_affine_field(2, rng)
    lhs = me.lichnerowicz(dom, eta, cat.VectorField(
        lambda s: X(s) + 2.0 * Z(s), 2), Y, nu)
    rhs = me.lichnerowicz(dom, eta, X, Y, nu) + 2.0 * me.lichnerowicz(
        dom, eta, Z, Y, nu)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_brane_twist_cases():
    iv = interval(65)
    rng = np.random.default_rng(9)
    H3 = volume_form(3)
    D3 = me.affine_subspace([0, 0, 0], np.array([[1., 0.], [0., 1.], [0., 0.]]))
    B3 = coefficient_form(2, 2, {(0, 1): trig_scalar(
        2, [[0.7, 0.3]], [0.8], [0.1])})
    rep = me.brane_twist_check(H3, B3, D3, iv, rng, n_trials=2)
    assert rep.applicable and rep.passed
    assert rep.closedness_residual < 1e-5

    # nontrivial potential: H = z dx^dy^dz on R^4, D = {w = 0},
    # B = xz dy^dz with dB = i*H
    H4 = coefficient_form(4, 3, {(0, 1, 2): scalar_coordinate(2, 4)})
    D4 = me.affine_subspace(np.zeros(4), np.eye(4)[:, :3])
    xz = cat.ScalarFunc(lambda u: u[..., 0] * u[..., 2],
                        lambda u: np.stack([u[..., 2], 0.0 * u[..., 1], u[..., 0]], axis=-1),
                        lambda u: broadcast_rows([[0., 0., 1.], [0., 0., 0.],
                                                  [1., 0., 0.]], u))
    B4 = coefficient_form(3, 2, {(1, 2): xz})
    rep4 = me.brane_twist_check(H4, B4, D4, iv, rng, n_trials=2)
    assert rep4.applicable and rep4.passed


def test_brane_gate_rejects_inconsistent_pair():
    iv = interval(65)
    rng = np.random.default_rng(10)
    H4 = coefficient_form(4, 3, {(0, 1, 2): scalar_coordinate(2, 4)})
    D4 = me.affine_subspace(np.zeros(4), np.eye(4)[:, :3])
    B0 = coefficient_form(3, 2, {(1, 2): scalar_const(0.0, 3)})
    rep = me.brane_twist_check(H4, B0, D4, iv, rng)
    assert not rep.applicable and not rep.passed
    assert rep.gate_residual > 1e-2


def test_brane_gate_rejects_offplane_tangents():
    iv = interval(65)
    rng = np.random.default_rng(11)
    H3 = volume_form(3)
    D3 = me.affine_subspace([0, 0, 0], np.array([[1., 0.], [0., 1.], [0., 0.]]))
    B3 = coefficient_form(2, 2, {(0, 1): scalar_const(0.3, 2)})
    f, ts = me.constrained_random_data(iv, D3, rng, 3)
    assert me.boundary_data_gate(D3, f, ts) == (pytest.approx(0.0, abs=1e-12), "")
    bad = [MapTangent(f, ts[0].vectors + np.array([0.0, 0.0, 0.5]))] + ts[1:]
    defect, reason = me.boundary_data_gate(D3, f, bad)
    assert defect == pytest.approx(0.5)
    assert reason == "boundary data leaves the subspace by 5.000e-01"


def test_brane_gate_refuses_a_nan_endpoint_tangent():
    iv = interval(65)
    D3 = me.affine_subspace([0, 0, 0], np.array([[1., 0.], [0., 1.], [0., 0.]]))
    f, ts = me.constrained_random_data(iv, D3, np.random.default_rng(11), 3)
    vectors = ts[1].vectors.copy()
    vectors[iv.boundary().parent_indices[-1], 2] = np.nan
    defect, reason = me.boundary_data_gate(D3, f, [ts[0], MapTangent(f, vectors), ts[2]])
    assert np.isnan(defect)
    assert reason == "boundary data leaves the subspace by nan"


def test_brane_check_does_not_pass_a_nan_trial(monkeypatch):
    iv, cases = suites.brane_catalog(suites.SuiteConfig(seed=0))
    _, H, B, D, _ = cases[0]
    real = me.map_space_d

    def nan_on_second_trial(W):
        dW, trials = real(W), []

        def ev(F, ts):
            trials.append(F)
            return dW.evaluator(F, ts) * (np.nan if len(trials) == 2 else 1.0)

        return replace(dW, evaluator=ev)

    assert me.brane_twist_check(H, B, D, iv, np.random.default_rng(5), n_trials=3).passed
    monkeypatch.setattr(me, "map_space_d", nan_on_second_trial)
    rep = me.brane_twist_check(H, B, D, iv, np.random.default_rng(5), n_trials=3)
    assert rep.applicable and np.isnan(rep.closedness_residual) and not rep.passed


def _endpoint_twist(H, B, D, dom):
    """The twist form with its boundary term written out as the sum over the
    signed endpoint pair, in D-coordinates: the reference route."""
    hat_H = mapspace.hat_map(H, dom)
    bdom = dom.boundary()
    sw, ends = bdom.signed_weights, bdom.parent_indices

    def ev(F, ts):
        u = ((F.values[:, ends] - D.origin) @ D.basis).reshape(-1, D.dim)
        vs = [(t[:, ends] @ D.basis).reshape(-1, D.dim) for t in ts]
        vals = B.evaluator(u, vs).reshape(F.size, len(ends))
        return hat_H.evaluator(F, ts) - np.array([sw @ v for v in vals])

    return MapSpaceForm(hat_H.degree, ev)


@pytest.mark.parametrize("seed", [0, 7])
def test_twist_two_form_is_the_endpoint_sum_bit_for_bit(seed):
    iv, cases = suites.brane_catalog(suites.SuiteConfig(seed=seed))
    for name, H, B, D, _ in cases:
        g, ts = me.constrained_random_data(iv, D, np.random.default_rng(seed), 3)
        got, want = me.twist_two_form(H, B, D, iv), _endpoint_twist(H, B, D, iv)
        assert got(g, *ts[:2]) == want(g, *ts[:2]), name
        assert mapspace.map_space_d(got)(g, *ts) == mapspace.map_space_d(want)(g, *ts), name


def test_dual_pair_report(sys_r2):
    dom = torus2(16)
    rng = np.random.default_rng(12)
    theta = coefficient_form(2, 1, {(1,): scalar_coordinate(0, 2)})
    om = me.exact_two_form(theta)
    report = me.dual_pair_report(sys_r2, om, dom, rng, n_trials=2)
    assert report["commutation_error"] < 1e-12
    assert report["diffham_residual"] < 1e-6
    assert report["diffex_residual"] < 1e-6
    assert report["diffex_cocycle_spread"] < 1e-6


def test_defining_cocycle_is_each_action_s_former_route_bit_for_bit(
        sys_r2, loop_domain, torus_domain, exact_form_r4):
    """cocycle_defining against the three per-action routes it replaced,
    written out as they were: <J(f), [xi, eta]> - omega_bar(xi_F, eta_F)(f)
    with the lifted bracket momentum from the structure constants, the
    Diff_ham bracket Hamiltonian by line integration and the Diff_ex
    bracket stream function."""
    rng = np.random.default_rng(13)
    dom, domt = loop_domain, torus_domain
    ob = bar_map(sys_r2.omega, dom)
    f = cat.random_map(dom, 2, rng, amp=0.7)

    def average(h):
        return bar_map_direct(Form(0, 2, lambda x, vs: h(x)), dom)

    group = me.se2_action()
    lifted, basis = me.lifted_action(group, sys_r2, dom), np.eye(3)
    Jbar = np.array([average(J.value)(f) for J in group.momenta])
    for i in range(3):
        for j in range(3):
            former = float(group.structure[i, j] @ Jbar) - ob(
                f, generator_M(group.generators[i], f), generator_M(group.generators[j], f))
            assert me.cocycle_defining(lifted, basis[i], basis[j])(f) == former

    ham = me.diffham_action(sys_r2, dom)
    for a, b in [("x", "y"), ("sin_x", "y"), ("r2/2", "xy")]:
        X, Y = sys_r2.pair(a), sys_r2.pair(b)
        hb = me.hamiltonian_of(sys_r2, me.opposite_bracket(X.field, Y.field))
        former = average(hb)(f) - ob(f, generator_M(X.field, f), generator_M(Y.field, f))
        assert me.cocycle_defining(ham, X, Y)(f) == former

    diffex = me.diffex_action(exact_form_r4, domt)
    a1 = cat.random_stream(domt, rng, max_mode=2)
    a2 = cat.random_stream(domt, rng, max_mode=2)
    g = cat.random_map(domt, 4, rng, amp=0.7)
    former = (me.momentum_diffex(exact_form_r4, domt, me.stream_bracket(domt, a1, a2))(g)
              - bar_map(exact_form_r4.form, domt)(g, me.stream_generator(domt, a1)(g),
                                                  me.stream_generator(domt, a2)(g)))
    assert me.cocycle_defining(diffex, a1, a2)(g) == former


def test_stream_bracket_is_the_zero_mean_poisson_bracket(torus_domain):
    dom = torus_domain
    x, y = dom.nodes[:, 0], dom.nodes[:, 1]
    a1, a2 = ScalarField(dom, np.sin(x) * np.cos(y)), ScalarField(dom, np.cos(x))
    # {a1, a2} = -sin(x)^2 sin(y); a Poisson bracket integrates to zero on
    # the torus, so the gauge removes only roundoff from the mean
    b = me.stream_bracket(dom, a1, a2)
    assert np.allclose(b.values, -dom.volume * np.sin(x) ** 2 * np.sin(y), atol=1e-10)
    assert abs(b.values.mean()) < 1e-14


# pairs whose fields do not commute, unlike (x, y): their defining cocycle
# depends on the sign of the bracket
NONCOMMUTING_PAIRS = [("sin_x", "y"), ("r2/2", "xy"), ("r2/2", "sin_x")]


def _dual_route_gaps(sys, dom):
    """|defining cocycle - closed form| of each noncommuting pair at one
    random map per pair."""
    rng = np.random.default_rng(5)
    ham = me.diffham_action(sys, dom)
    gaps = []
    for a, b in NONCOMMUTING_PAIRS:
        X, Y = sys.pair(a), sys.pair(b)
        f = cat.random_map(dom, 2, rng, amp=0.7)
        gaps.append(abs(me.cocycle_defining(ham, X, Y)(f) - me.cocycle_diffham(sys, X, Y)))
    return gaps


def test_defining_cocycle_matches_the_closed_form_on_noncommuting_pairs(sys_r2, loop_domain):
    assert worst(_dual_route_gaps(sys_r2, loop_domain)) < 1e-12


def test_unflipped_bracket_breaks_the_diffham_dual_route(sys_r2, loop_domain, monkeypatch):
    """The mutant flips the sign of <J(f), [X, Y]>, so each gap is twice the
    mean of the bracket Hamiltonian along the map."""
    monkeypatch.setattr(me, "opposite_bracket", lambda X, Y: X.bracket(Y))
    gaps = _dual_route_gaps(sys_r2, loop_domain)
    assert all(g > 1e-3 for g in gaps) and worst(gaps) > 0.1


def test_cocycle_jacobi_sum_takes_the_cyclic_permutations():
    action = me.HamiltonianAction(None, None, None, lambda a, b: (a, b))
    seen = []
    total = me.cocycle_jacobi_sum(action, lambda ab, c: seen.append((ab, c)) or 1.0, "u", "v", "w")
    assert total == 3.0
    assert seen == [(("u", "v"), "w"), (("v", "w"), "u"), (("w", "u"), "v")]


def _count_calls(monkeypatch, names):
    """Count the calls of each named mapforms function, rebound in every
    module that refers to it."""
    counts = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in names:
        wrapped = counting(name, getattr(me, name))
        for mod in (domains, mapspace, me, suites):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapped)
    return counts


def test_cocycles_suite_builds_each_f_independent_part_once(monkeypatch):
    """One omega bar per action, one bracket, momentum and pair of
    generators per dual route, one P(i_X i_Y mu) per stream pair."""
    counts = _count_calls(monkeypatch, ("right_inverse_b", "exact_divfree_field",
                                        "bar_map", "hamiltonian_of"))
    records = suites.run_cocycles(suites.SuiteConfig(seed=3))
    assert all(r.passed for r in records)
    assert counts == {"right_inverse_b": 5, "exact_divfree_field": 12, "bar_map": 3,
                      "hamiltonian_of": 10}
