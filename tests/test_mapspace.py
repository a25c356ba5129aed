"""The discretized map space: pairings by both routes, group actions,
generators, and exterior calculus on F(S,M)."""

import numpy as np
import pytest

from mapforms import catalog as cat
from mapforms.charts import DimensionMismatch, constant_field, rotation2
from mapforms.domains import ScalarField, circle, interval, torus, torus2
from mapforms.forms import (DegreeError, coefficient_form, coordinate_form,
                            exterior_derivative, interior, pullback,
                            trig_scalar, volume_form)
from mapforms.mapspace import (MapPoint, MapTangent, action_pullback_M, action_pullback_S, bar_map,
                               bar_map_direct, boundary_pullback, generator_M,
                               generator_S, hat_map, hat_pairing,
                               hat_pairing_fiber, map_from_function,
                               map_space_d, map_space_interior, map_space_lie,
                               map_space_lie_flow, mapspace_scale,
                               mapspace_sum, pullback_action,
                               pushforward_action, restrict_boundary)


def unit_circle(n=64, m=2):
    return cat.unit_circle_map(circle(n), m)


def test_map_point_validation():
    dom = circle(16)
    with pytest.raises(ValueError):
        MapPoint(dom, np.zeros((5, 2)))
    f = MapPoint(dom, np.zeros((16, 3)))
    with pytest.raises(ValueError):
        MapTangent(f, np.zeros((16, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_map_point_rejects_non_finite_values(bad):
    dom = circle(16)
    values = np.zeros((16, 2))
    values[5, 1] = bad
    values[9, 0] = bad
    with pytest.raises(ValueError, match="not finite at node 5 "):
        MapPoint(dom, values)


def test_hat_pairing_circle_area_value():
    dom = circle(64)
    f = unit_circle()
    Y = MapTangent(f, f.values.copy())  # radial field along the loop
    for route in (hat_pairing, hat_pairing_fiber):
        W = route(volume_form(2), 1.0, dom)
        assert W(f, Y) == pytest.approx(2 * np.pi, abs=1e-12)


def test_hat_pairing_constant_tangent_vanishes():
    dom = circle(64)
    f = unit_circle()
    Y = MapTangent(f, np.tile([1.0, 0.0], (64, 1)))
    assert abs(hat_pairing(volume_form(2), 1.0, dom)(f, Y)) < 1e-14


def test_hat_pairing_exact_closed_vanishes():
    dom = circle(48)
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(20):
        h = cat.random_form(3, 0, rng)
        loop = cat.random_loop(dom, 3, rng)
        worst = max(worst, abs(hat_pairing(h.analytic_d, 0.7, dom)(loop)))
    assert worst < 1e-10


def test_hat_pairing_degree_gate():
    dom = torus2(8)
    with pytest.raises(DegreeError):
        hat_pairing(coordinate_form((0,), 3), 1.0, dom)


def test_two_routes_agree_on_random_cases():
    rng = np.random.default_rng(16)
    for dom, m, p, q in [(circle(32), 3, 2, 1), (torus2(10), 4, 2, 2),
                         (interval(33), 3, 2, 0)]:
        for _ in range(3):
            om = cat.random_form(m, p, rng)
            al = cat.random_form(dom.chart_dim, q, rng, integer_modes=True)
            f = cat.random_map(dom, m, rng, amp=0.8)
            ts = [cat.random_tangent(f, rng) for _ in range(p + q - dom.dim)]
            v1 = hat_pairing(om, al, dom)(f, *ts)
            v2 = hat_pairing_fiber(om, al, dom)(f, *ts)
            assert abs(v1 - v2) <= 1e-6 * max(1.0, abs(v1))


def test_hat_with_volume_form_is_scalar_quadrature():
    dom = circle(48)
    h = coefficient_form(2, 0, {(): trig_scalar(2, [[1.0, 0.4]], [0.8], [0.3])})
    f = cat.random_map(dom, 2, np.random.default_rng(17), amp=0.8)
    expect = sum(dom.weights[i] * h(f.values[i]) for i in range(dom.n_nodes))
    for route in (hat_pairing, hat_pairing_fiber):
        assert route(h, volume_form(1), dom)(f) == pytest.approx(expect, rel=1e-12)


def test_mapspace_forms_alternating_and_multilinear():
    rng = np.random.default_rng(41)
    dom = circle(32)
    om = cat.random_form(3, 3, rng)
    al = cat.random_form(1, 1, rng, integer_modes=True)
    W = hat_pairing(om, al, dom)  # degree 3
    f = cat.random_map(dom, 3, rng, amp=0.8)
    for _ in range(6):
        ts = [cat.random_tangent(f, rng) for _ in range(3)]
        i, j = rng.choice(3, size=2, replace=False)
        swapped = list(ts)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert abs(W(f, *ts) + W(f, *swapped)) < 1e-10
        c = float(rng.uniform(-2, 2))
        u = cat.random_tangent(f, rng)
        combo = list(ts)
        combo[i] = MapTangent(f, ts[i].vectors + c * u.vectors)
        alt = list(ts)
        alt[i] = u
        assert abs(W(f, *combo) - W(f, *ts) - c * W(f, *alt)) < 1e-10


def test_hat_map_of_top_degree_form_is_loop_integral():
    dom = circle(48)
    om = cat.random_form(2, 1, np.random.default_rng(18))
    f = cat.random_map(dom, 2, np.random.default_rng(19), amp=0.8)
    Tf = f.jacobian()
    expect = sum(dom.weights[i] * om(f.values[i], Tf[i, :, 0])
                 for i in range(dom.n_nodes))
    assert hat_map(om, dom)(f) == pytest.approx(expect, rel=1e-12)


def test_bar_map_constant_tangents():
    dom = circle(48)
    W = bar_map(volume_form(2), dom)
    f = unit_circle(48)
    ex = MapTangent(f, np.tile([1.0, 0.0], (48, 1)))
    ey = MapTangent(f, np.tile([0.0, 1.0], (48, 1)))
    assert W(f, ex, ey) == pytest.approx(1.0)


def test_bar_map_routes_agree():
    dom = circle(48)
    rng = np.random.default_rng(20)
    om = cat.random_form(2, 2, rng)
    f = cat.random_map(dom, 2, rng, amp=0.8)
    ts = [cat.random_tangent(f, rng) for _ in range(2)]
    a = bar_map(om, dom)(f, *ts)
    b = bar_map_direct(om, dom)(f, *ts)
    assert abs(a - b) < 1e-10 * max(1.0, abs(a))


def test_pushforward_action_examples():
    f = unit_circle()
    assert np.allclose(pushforward_action(cat.ChartMap(lambda x: x, 2, 2), f).values,
                       f.values)
    rot = rotation2(0.9)
    moved = pushforward_action(rot, f)
    expect = f.values @ rot.jacobian(np.zeros(2)).T
    assert np.max(np.abs(moved.values - expect)) < 1e-14


def test_pullback_action_is_shift_resampling():
    dom = circle(64)
    f = map_from_function(dom, lambda s: np.array(
        [np.cos(2 * s[0]) + 0.3 * np.sin(s[0]), np.sin(s[0])]), 2)
    shift = 0.37
    psi = cat.rigid_shift(shift)
    moved = pullback_action(psi, f)
    th = dom.nodes[:, 0] - shift
    expect = np.column_stack([np.cos(2 * th) + 0.3 * np.sin(th), np.sin(th)])
    assert np.max(np.abs(moved.values - expect)) < 1e-12


def test_pullback_action_requires_inverse():
    f = unit_circle()
    no_inverse = cat.ChartMap(lambda s: s + 0.1, 1, 1)
    with pytest.raises(ValueError):
        pullback_action(no_inverse, f)


def test_generators():
    dom = circle(64)
    f = unit_circle()
    c = np.array([0.3, -0.4])
    X = constant_field(c)
    assert np.max(np.abs(generator_M(X, f).vectors - c)) == 0.0
    Z = constant_field(np.array([1.0]))
    zf = generator_S(Z, f)
    th = dom.nodes[:, 0]
    expect = np.column_stack([np.sin(th), -np.cos(th)])  # -f'
    assert np.max(np.abs(zf.vectors - expect)) < 1e-12
    assert np.max(np.abs(generator_S(constant_field([0.0]), f).vectors)) == 0.0


def test_map_space_d_of_constant_function():
    dom = circle(32)
    from mapforms.mapspace import MapSpaceForm
    W = MapSpaceForm(0, lambda F, ts: np.full(F.size, 4.2))
    dW = map_space_d(W, 1e-4)
    f = unit_circle(32)
    assert dW(f, cat.random_tangent(f, np.random.default_rng(21))) == 0.0


def test_derivation_identity_on_closed_source():
    rng = np.random.default_rng(22)
    dom = circle(48)
    om = cat.random_form(3, 2, rng)
    al = cat.random_form(1, 0, rng, integer_modes=True)
    W = hat_pairing(om, al, dom)
    lhs = map_space_d(W, 1e-4)
    rhs = mapspace_sum(
        hat_pairing(exterior_derivative(om), al, dom),
        hat_pairing(om, exterior_derivative(al), dom))
    f = cat.random_map(dom, 3, rng, amp=0.8)
    ts = [cat.random_tangent(f, rng) for _ in range(2)]
    assert abs(lhs(f, *ts) - rhs(f, *ts)) < 1e-6


def test_map_space_dd_vanishes():
    rng = np.random.default_rng(23)
    dom = circle(32)
    W = hat_pairing(cat.random_form(3, 2, rng), 1.0, dom)
    ddW = map_space_d(map_space_d(W, 1e-4), 1e-4)
    f = cat.random_map(dom, 3, rng, amp=0.8)
    ts = [cat.random_tangent(f, rng) for _ in range(3)]
    assert abs(ddW(f, *ts)) < 1e-4


def test_insertion_identities():
    rng = np.random.default_rng(24)
    dom = circle(48)
    om = cat.random_form(3, 2, rng)
    al = cat.random_form(1, 1, rng, integer_modes=True)
    W = hat_pairing(om, al, dom)
    f = cat.random_map(dom, 3, rng, amp=0.8)
    y = cat.random_tangent(f, rng)

    X = cat.random_affine_field(3, rng)
    lhs = map_space_interior(W, lambda g: generator_M(X, g))
    rhs = hat_pairing(interior(om, X), al, dom)
    assert abs(lhs(f, y) - rhs(f, y)) < 1e-12

    Z = constant_field(np.array([0.7]))
    lhsZ = map_space_interior(W, lambda g: generator_S(Z, g))
    rhsZ = mapspace_scale((-1.0) ** om.degree,
                          hat_pairing(om, interior(al, Z), dom))
    assert abs(lhsZ(f, y) - rhsZ(f, y)) < 1e-12


def test_interior_of_zero_degree_is_zero_form():
    dom = circle(32)
    W = hat_pairing(cat.random_form(2, 1, np.random.default_rng(25)), 1.0, dom)
    assert W.degree == 0
    Z = constant_field(np.array([1.0]))
    out = map_space_interior(W, lambda g: generator_S(Z, g))
    assert out.degree == 0
    assert out(unit_circle(32)) == 0.0


def test_action_pullback_identities():
    rng = np.random.default_rng(26)
    dom = circle(48)
    om = cat.random_form(3, 2, rng)
    al = cat.random_form(1, 0, rng, integer_modes=True)
    W = hat_pairing(om, al, dom)
    f = cat.random_map(dom, 3, rng, amp=0.8)
    y = cat.random_tangent(f, rng)

    from mapforms.charts import rotation3
    phi = rotation3([0.1, 0.9, 0.3], 0.8)
    assert abs(action_pullback_M(W, phi)(f, y)
               - hat_pairing(pullback(om, phi), al, dom)(f, y)) < 1e-12

    psi = cat.rigid_shift(0.53)
    assert abs(action_pullback_S(W, psi)(f, y)
               - hat_pairing(om, pullback(al, psi), dom)(f, y)) < 1e-9


def test_lie_derivative_dual_routes():
    rng = np.random.default_rng(27)
    dom = circle(48)
    om = cat.random_form(3, 2, rng)
    W = hat_pairing(om, 1.0, dom)
    f = cat.random_map(dom, 3, rng, amp=0.8)
    ts = [cat.random_tangent(f, rng)]

    X = cat.random_affine_field(3, rng, amp=0.6)
    cartan = map_space_lie(W, lambda g: generator_M(X, g), 1e-4)
    flow = map_space_lie_flow(lambda t: action_pullback_M(W, X.flow(t)), 1e-4)
    a, b = cartan(f, *ts), flow(f, *ts)
    assert abs(a - b) < 1e-5 * max(1.0, abs(a))

    Z = constant_field(np.array([0.5]))
    cartanZ = map_space_lie(W, lambda g: generator_S(Z, g), 1e-4)
    flowZ = map_space_lie_flow(lambda t: action_pullback_S(W, cat.rigid_shift(0.5 * t)),
                               1e-4)
    a, b = cartanZ(f, *ts), flowZ(f, *ts)
    assert abs(a - b) < 1e-5 * max(1.0, abs(a))


@pytest.mark.parametrize("t_step", [0, -1e-4, np.inf, np.nan, None])
def test_map_space_lie_flow_rejects_bad_t_step(t_step):
    W = hat_pairing(volume_form(2), 1.0, circle(16))
    X = constant_field(np.array([0.5, -0.2]))
    with pytest.raises(ValueError, match="t_step"):
        map_space_lie_flow(lambda t: action_pullback_M(W, X.flow(t)), t_step)


def test_pairing_rejects_another_grid_with_the_same_node_count():
    # torus((12, 48)) and torus2(24) are both of kind torus2 with 576 nodes
    rng = np.random.default_rng(30)
    dom, other = torus2(24), torus((12, 48))
    assert (dom.kind, dom.n_nodes) == (other.kind, other.n_nodes)
    W = hat_pairing(cat.random_form(3, 1, rng),
                    cat.random_form(2, 1, rng, integer_modes=True), dom)
    f = cat.random_map(other, 3, rng, amp=0.5)
    with pytest.raises(DimensionMismatch):
        W(f)
    with pytest.raises(DimensionMismatch):
        hat_pairing_fiber(cat.random_form(3, 2, rng), 1.0, dom)(f)
    with pytest.raises(DimensionMismatch):
        hat_pairing(volume_form(3), ScalarField(other, np.ones(other.n_nodes)), dom)
    with pytest.raises(DimensionMismatch):
        bar_map_direct(cat.random_form(3, 1, rng), dom)(f, cat.random_tangent(f, rng))


@pytest.mark.parametrize("direct", [False, True], ids=["bar_map", "bar_map_direct"])
def test_bar_pairings_reject_a_map_into_another_target(direct):
    # a planar form on a loop in R^3: both routes refuse it, neither returns a number
    dom = circle(16)
    f = unit_circle(16, 3)
    W = (bar_map_direct if direct else bar_map)(volume_form(2), dom)
    with pytest.raises(DimensionMismatch, match="target dim"):
        W(f, *[cat.random_tangent(f, np.random.default_rng(k)) for k in range(2)])


def test_restrict_boundary_values():
    dom = interval(33)
    f = map_from_function(dom, lambda s: np.array([s[0], 0.0]), 2)
    fb = restrict_boundary(f)
    assert fb.values.tolist() == [[0.0, 0.0], [1.0, 0.0]]
    with pytest.raises(ValueError):
        restrict_boundary(unit_circle())


def test_restrict_boundary_commutes_with_pushforward():
    dom = interval(33)
    rng = np.random.default_rng(28)
    f = cat.random_map(dom, 2, rng)
    phi = rotation2(1.1)
    a = restrict_boundary(pushforward_action(phi, f))
    b = pushforward_action(phi, restrict_boundary(f))
    assert np.max(np.abs(a.values - b.values)) < 1e-14


def test_boundary_pullback_evaluates_at_endpoints():
    dom = interval(33)
    bdom = dom.boundary()
    om = coordinate_form((0,), 2)
    Wb = hat_pairing(om, 1.0, bdom)
    W = boundary_pullback(Wb)
    rng = np.random.default_rng(29)
    f = cat.random_map(dom, 2, rng)
    y = cat.random_tangent(f, rng)
    assert W(f, y) == pytest.approx(y.vectors[-1, 0] - y.vectors[0, 0])


def test_bar_gram_matrix_is_weighted_symplectic():
    dom = circle(8)
    W = bar_map(volume_form(2), dom)
    base = MapPoint(dom, np.zeros((8, 2)))
    G = np.zeros((16, 16))
    for r in range(16):
        vr = np.zeros((8, 2))
        vr[r // 2, r % 2] = 1.0
        for c in range(16):
            vc = np.zeros((8, 2))
            vc[c // 2, c % 2] = 1.0
            G[r, c] = W(base, MapTangent(base, vr), MapTangent(base, vc))
    expected = np.kron(np.diag(dom.weights / dom.volume),
                       np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.max(np.abs(G - expected)) < 1e-14
    assert np.min(np.abs(np.linalg.eigvals(G))) > 1e-3
