"""Fiber integration over the source factor and its structure rules."""

import itertools

import numpy as np
import pytest

from mapforms import catalog as cat
from mapforms.charts import DimensionMismatch
from mapforms.forms import (DegreeError, coefficient_form, constant_form,
                            exterior_derivative, fiber_integrate, form_scale,
                            form_sum, interior, product_map, pullback,
                            sample_difference, trig_scalar, vertical_field)
from mapforms.domains import circle, interval, torus2


def random_product(s_dim, v_dim, degree, rng, periodic_axes=()):
    coeffs = {}
    for I in itertools.combinations(range(s_dim + v_dim), degree):
        K = rng.uniform(-1.0, 1.0, size=(2, s_dim + v_dim))
        for a in periodic_axes:
            K[:, a] = rng.integers(-2, 3, size=2)
        coeffs[I] = trig_scalar(s_dim + v_dim, K, rng.uniform(-1, 1, 2),
                                rng.uniform(0, 2 * np.pi, 2))
    return coefficient_form(s_dim + v_dim, degree, coeffs)


def test_fiber_of_pulled_back_volume_is_total_volume():
    # ds on the product chart is the pulled-back volume of the circle
    dom = circle(48)
    from mapforms.forms import coordinate_form
    w = coordinate_form((0,), 3)
    out = fiber_integrate(w, dom)
    assert out.degree == 0
    assert out(np.array([0.3, -0.2])) == pytest.approx(dom.volume)


def test_product_form_alternates_in_mixed_slots():
    # a form on the product chart S x R^2 takes (S-part, R^2-part) vectors
    rng = np.random.default_rng(17)
    w = random_product(1, 2, 2, rng, periodic_axes=(0,))
    for _ in range(8):
        point = np.concatenate([rng.uniform(0, 2 * np.pi, 1), rng.uniform(-1, 1, 2)])
        u, v = [np.concatenate([rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 2)])
                for _ in range(2)]
        assert w(point, u, v) == pytest.approx(-w(point, v, u), abs=1e-12)


def test_fiber_degree_gate():
    dom = torus2(8)
    w = random_product(2, 2, 1, np.random.default_rng(0), periodic_axes=(0, 1))
    with pytest.raises(DegreeError):
        fiber_integrate(w, dom)


def test_fiber_integral_rejects_a_chart_smaller_than_the_source_at_construction():
    # the source takes the leading dom.chart_dim coordinates of the chart; the
    # boundary point pair has dimension 0 on a chart of dimension 1
    with pytest.raises(DimensionMismatch):
        fiber_integrate(constant_form(0, 1.0), interval(9).boundary())
    w = coefficient_form(1, 1, {(0,): trig_scalar(1, [[1.0]], [1.0], [0.0])})
    assert fiber_integrate(w, circle(16)).ambient_dim == 0


def test_rule_pullback_of_fiber_integrals():
    rng = np.random.default_rng(1)
    dom = circle(48)
    w = random_product(1, 2, 2, rng, periodic_axes=(0,))
    A = rng.uniform(-1, 1, (2, 2))
    g = cat.ChartMap(lambda u: A @ u + 0.3 * np.array([np.sin(u[1]), u[0] ** 2]),
                     2, 2,
                     jacobian_func=lambda u: A + 0.3 * np.array(
                         [[0.0, np.cos(u[1])], [2.0 * u[0], 0.0]]))
    lhs = pullback(fiber_integrate(w, dom), g)
    rhs = fiber_integrate(pullback(w, product_map(None, g, 1, 2)), dom)
    assert sample_difference(lhs, rhs, rng, 12) < 1e-12


def test_rule_pullback_infinitesimal():
    # L_X commutes with the fiber integral through the vertical lift of X
    rng = np.random.default_rng(7)
    dom = circle(48)
    w = random_product(1, 2, 2, rng, periodic_axes=(0,))
    X = cat.random_affine_field(2, rng, amp=0.6)
    from mapforms.forms import lie_derivative
    lhs = lie_derivative(fiber_integrate(w, dom), X, step=1e-4)
    rhs = fiber_integrate(lie_derivative(w, vertical_field(X, 1), step=1e-4), dom)
    assert sample_difference(lhs, rhs, rng, 8) < 1e-7


def test_rule_reparam_infinitesimal():
    # the fiber integral kills derivatives along horizontal lifts
    rng = np.random.default_rng(8)
    dom = circle(48)
    w = random_product(1, 2, 2, rng, periodic_axes=(0,))
    Zf = trig_scalar(1, [[1.0], [2.0]], [0.4, -0.2], [0.3, 1.0])
    # the horizontal lift Z x 0 on the product chart S x R^2
    Z = cat.VectorField(lambda z: np.array([Zf(z[:1]), 0.0, 0.0]), 3)
    from mapforms.forms import lie_derivative, zero_form
    out = fiber_integrate(lie_derivative(w, Z, step=1e-4), dom)
    assert sample_difference(out, zero_form(2, 1), rng, 8) < 1e-7


def test_rule_reparameterization_invariance():
    rng = np.random.default_rng(2)
    dom = circle(64)
    warp = cat.circle_warp()
    w = random_product(1, 2, 2, rng, periodic_axes=(0,))
    lhs = fiber_integrate(pullback(w, product_map(warp, None, 1, 2)), dom)
    rhs = fiber_integrate(w, dom)
    assert sample_difference(lhs, rhs, rng, 12) < 1e-9


@pytest.mark.parametrize("make_dom,s_dim,per", [
    (lambda: circle(48), 1, (0,)),
    (lambda: torus2(12), 2, (0, 1)),
])
def test_rule_insertion_commutes(make_dom, s_dim, per):
    # insertion must commute on both odd- and even-dimensional sources
    rng = np.random.default_rng(3)
    dom = make_dom()
    X = cat.random_affine_field(2, rng)
    w = random_product(s_dim, 2, s_dim + 2, rng, periodic_axes=per)
    lhs = interior(fiber_integrate(w, dom), X)
    rhs = fiber_integrate(interior(w, vertical_field(X, s_dim)), dom)
    assert sample_difference(lhs, rhs, rng, 10) < 1e-12


@pytest.mark.parametrize("degree", [1, 2])
def test_rule_boundary_with_exact_sign(degree):
    rng = np.random.default_rng(4 + degree)
    dom = interval(65)
    bdom = dom.boundary()
    beta = random_product(1, 2, degree, rng)
    lhs = form_sum(
        exterior_derivative(fiber_integrate(beta, dom), step=1e-5),
        form_scale(-1.0, fiber_integrate(exterior_derivative(beta), dom)))
    sign = (-1.0) ** (degree - 1)
    rhs = form_scale(sign, fiber_integrate(beta, bdom))
    assert sample_difference(lhs, rhs, rng, 10) < 1e-6
    # the opposite sign must be off by O(1): this pins the convention
    wrong = form_scale(-sign, fiber_integrate(beta, bdom))
    assert sample_difference(lhs, wrong, rng, 10) > 1e-2


def test_boundary_domain_is_signed_point_pair():
    bdom = interval(33).boundary()
    assert bdom.dim == 0
    assert bdom.nodes.tolist() == [[0.0], [1.0]]
    assert bdom.node_signs.tolist() == [-1.0, 1.0]
    # integrating a 0-form gives the signed endpoint difference
    h = coefficient_form(1, 0, {(): trig_scalar(1, [[0.9]], [1.0], [0.2])})
    from mapforms.forms import integrate
    assert integrate(h, bdom) == pytest.approx(
        np.sin(0.9 + 0.2) - np.sin(0.2))
