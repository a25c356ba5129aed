"""The discretized map space: pairings by both routes, group actions,
generators, and exterior calculus on F(S,M)."""

import numpy as np
import pytest

from mapforms import catalog as cat
from mapforms.charts import DimensionMismatch, affine_map, constant_field, worst
from mapforms.domains import ScalarField, circle, interval, torus, torus2
from mapforms.forms import (DegreeError, coefficient_form, coordinate_form,
                            exterior_derivative, interior, pullback,
                            scalar_const, scalar_coordinate, scalar_sum,
                            trig_scalar, volume_form)
from mapforms.mapspace import (MapPoint, MapStack, MapTangent, action_pullback_M,
                               action_pullback_S, bar_map, bar_map_direct,
                               boundary_pullback, generator_M,
                               generator_S, hat_map, hat_pairing,
                               hat_pairing_fiber, map_from_function,
                               map_space_d, map_space_interior, map_space_lie,
                               map_space_lie_flow, mapspace_scale,
                               mapspace_sum, pullback_action,
                               pushforward_action)
from mapforms.suites import derivation_identity, derivation_terms


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
    values = []
    for _ in range(20):
        h = cat.random_form(3, 0, rng)
        loop = cat.random_loop(dom, 3, rng)
        values.append(abs(hat_pairing(h.analytic_d, 0.7, dom)(loop)))
    assert worst(values) < 1e-10


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
    rot = affine_map([[np.cos(0.9), -np.sin(0.9)], [np.sin(0.9), np.cos(0.9)]])
    moved = pushforward_action(rot, f)
    expect = f.values @ rot.jacobian(np.zeros(2)).T
    assert np.max(np.abs(moved.values - expect)) < 1e-14


def test_pullback_action_is_shift_resampling():
    dom = circle(64)
    f = map_from_function(dom, lambda s: np.column_stack(
        [np.cos(2 * s[:, 0]) + 0.3 * np.sin(s[:, 0]), np.sin(s[:, 0])]), 2)
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


@pytest.mark.parametrize("make_dom, m, p, q, count", [
    (lambda: circle(48), 3, 1, 1, 1), (lambda: torus2(24), 3, 1, 2, 1),
    (lambda: interval(65), 3, 2, 1, 1),
    (lambda: circle(48), 3, 2, 0, 2), (lambda: torus2(24), 4, 2, 1, 2),
    (lambda: interval(65), 3, 2, 0, 3)],
    ids=["circle-top", "torus2-top", "interval-top", "circle", "torus2", "interval"])
def test_derivation_terms_are_one_formula(make_dom, m, p, q, count):
    # (dw.a)^ always; (-1)^p (w.da)^ below top degree; the signed boundary
    # term below top degree when S has a boundary.  With all of them the
    # identity holds on random data.
    dom = make_dom()
    rng = np.random.default_rng([24, p, q])
    om = cat.random_form(m, p, rng, amp=0.8)
    al = cat.random_form(dom.chart_dim, q, rng, amp=0.8, integer_modes=dom.periods is not None)
    terms = derivation_terms(om, al, dom)
    assert len(terms) == count
    f = cat.random_map(dom, m, rng, amp=0.8)
    ts = [cat.random_tangent(f, rng, amp=0.8) for _ in range(p + q - dom.dim + 1)]
    assert abs(derivation_identity(om, al, dom, f, ts, terms)(1e-4)) < 1e-6


def test_derivation_without_the_boundary_term_fails_on_the_witness():
    # w = dx, a(s) = 1 + s, Y = e_x: the endpoint term a(1) - a(0) = 1 is
    # the whole of d(w.a)^, so dropping it leaves a relative residual of 1
    dom = interval(65)
    dx = coordinate_form((0,), 3)
    al = coefficient_form(1, 0, {(): scalar_sum([scalar_const(1.0, 1), scalar_coordinate(0, 1)])})
    f = cat.random_map(dom, 3, np.random.default_rng(25), amp=0.8)
    ex = [MapTangent(f, np.tile([1.0, 0.0, 0.0], (dom.n_nodes, 1)))]
    *bulk, endpoint = derivation_terms(dx, al, dom)
    assert endpoint(f, *ex) == pytest.approx(1.0, abs=1e-12)
    assert abs(derivation_identity(dx, al, dom, f, ex, bulk + [endpoint])(1e-4)) < 1e-9
    assert abs(derivation_identity(dx, al, dom, f, ex, bulk)(1e-4)) > 1e-2


COMPLEX_STEP = 1e-30


def complex_step_d(W, f, ts):
    """dW(Y_0..Y_n)(f) = sum_i (-1)^i D_{Y_i} W(..ŷ_i..)(f), each directional
    derivative the complex step Im W(f + ih Y_i)/h (Squire & Trapp, SIAM
    Review, 1998): no difference is taken, so no digit cancels."""
    total = 0.0
    for i, Y in enumerate(ts):
        F = MapStack(f.dom, (f.values + 1j * COMPLEX_STEP * Y.vectors)[None])
        rest = tuple(t.vectors[None] for t in ts[:i] + ts[i + 1:])
        total += (-1) ** i * W.evaluator(F, rest)[0].imag / COMPLEX_STEP
    return total


@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("make_dom, m, p, q", [
    (lambda: circle(48), 3, 2, 0), (lambda: circle(48), 3, 1, 1),
    (lambda: torus2(48), 4, 2, 1), (lambda: circle(128), 3, 2, 0),
    (lambda: circle(128), 3, 1, 1)],
    ids=["circle-p2q0", "circle-p1q1", "torus2-p2q1", "circle128-p2q0", "circle128-p1q1"])
def test_complex_step_meets_the_derivation_identity(make_dom, m, p, q, seed):
    # short axes differentiate complex map values by the cached matrix, and
    # long axes (circle(128)) by one FFT of each part, so the pairing's
    # evaluator keeps the imaginary part end to end.  The gap left is the
    # grid's: torus2(32) leaves 1.6e-12 at seed 1, where the side of 48
    # leaves 2e-16; central differences leave about 1e-9 on circle(128)
    dom = make_dom()
    rng = np.random.default_rng(seed)
    om = cat.random_form(m, p, rng, amp=0.8)
    al = cat.random_form(dom.chart_dim, q, rng, amp=0.8, integer_modes=True)
    f = cat.random_map(dom, m, rng, amp=0.8)
    ts = [cat.random_tangent(f, rng, amp=0.8) for _ in range(p + q - dom.dim + 1)]
    lhs = complex_step_d(hat_pairing(om, al, dom), f, ts)
    rhs = mapspace_sum(*derivation_terms(om, al, dom))(f, *ts)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


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
    flow = map_space_lie_flow(lambda t: action_pullback_M(W, X.flow(t, 1)))
    a, b = cartan(f, *ts), flow(f, *ts)
    assert abs(a - b) < 1e-5 * max(1.0, abs(a))

    Z = constant_field(np.array([0.5]))
    cartanZ = map_space_lie(W, lambda g: generator_S(Z, g), 1e-4)
    flowZ = map_space_lie_flow(lambda t: action_pullback_S(W, cat.rigid_shift(0.5 * t)))
    a, b = cartanZ(f, *ts), flowZ(f, *ts)
    assert abs(a - b) < 1e-5 * max(1.0, abs(a))


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


def test_map_from_function_calls_its_function_once_on_all_nodes():
    dom, calls = torus2(8), []

    def func(s):
        calls.append(s.shape)
        return np.column_stack([np.cos(s[:, 0]), np.sin(s[:, 1])])

    f = map_from_function(dom, func, 2)
    assert calls == [dom.nodes.shape]
    assert np.array_equal(f.values, func(dom.nodes))


def test_restrict_boundary_values():
    # boundary_pullback restricts a map to its signed endpoint pair: the
    # coordinate function x reads x(f(1)) - x(f(0)); a closed S has no pair
    dom = interval(33)
    f = map_from_function(dom, lambda s: np.column_stack([3.0 * s[:, 0] - 0.5, 0.0 * s[:, 0]]), 2)
    W = boundary_pullback(hat_pairing(coefficient_form(2, 0, {(): scalar_coordinate(0, 2)}),
                                      1.0, dom.boundary()))
    assert W(f) == 3.0
    with pytest.raises(ValueError, match="the domain has no boundary"):
        W(unit_circle())


def test_restrict_boundary_commutes_with_pushforward():
    # restricting to the endpoints commutes with the push-forward action
    dom = interval(33)
    rng = np.random.default_rng(28)
    f = cat.random_map(dom, 2, rng)
    y = cat.random_tangent(f, rng)
    phi = affine_map([[np.cos(1.1), -np.sin(1.1)], [np.sin(1.1), np.cos(1.1)]], [0.3, -0.2])
    Wb = hat_pairing(coordinate_form((0,), 2), 1.0, dom.boundary())
    a = boundary_pullback(action_pullback_M(Wb, phi))(f, y)
    b = action_pullback_M(boundary_pullback(Wb), phi)(f, y)
    assert abs(a - b) < 1e-14


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
