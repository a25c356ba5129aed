"""Exterior algebra and calculus on flat charts."""

from itertools import combinations, permutations

import numpy as np
import pytest

from mapforms import catalog as cat
from mapforms.charts import affine_field, constant_field, identity_map
from mapforms.forms import (DegreeError, _minor_det, antisymmetry_defect,
                            coefficient_form, coordinate_form, exterior_derivative, form_scale,
                            form_sum, integrate, interior, lie_derivative,
                            lie_derivative_flow, multilinearity_defect,
                            ScalarFunc, pullback, sample_difference, scalar_coordinate,
                            strip_analytic, trig_scalar, volume_form, wedge,
                            zero_form)
from mapforms.charts import ChartMap, DimensionMismatch
from mapforms.domains import circle, interval, torus2

EX, EY = np.eye(2)
E3 = np.eye(3)


def test_wedge_coordinate_forms():
    dx = coordinate_form((0,), 2)
    dy = coordinate_form((1,), 2)
    dxdy = wedge(dx, dy)
    assert dxdy(np.zeros(2), EX, EY) == pytest.approx(1.0)
    assert wedge(dx, dx)(np.zeros(2), EX, EY) == pytest.approx(0.0)
    assert dxdy(np.zeros(2), EY, EX) == pytest.approx(-1.0)


def test_wedge_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        wedge(coordinate_form((0,), 2), coordinate_form((0,), 3))


def test_wedge_graded_commutativity():
    rng = np.random.default_rng(1)
    for p, q in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        a = cat.random_form(4, p, rng)
        b = cat.random_form(4, q, rng)
        lhs = wedge(a, b)
        rhs = form_scale((-1.0) ** (p * q), wedge(b, a))
        assert sample_difference(lhs, rhs, rng, 10) < 1e-12


def test_wedge_associativity():
    rng = np.random.default_rng(2)
    a = cat.random_form(4, 1, rng)
    b = cat.random_form(4, 1, rng)
    c = cat.random_form(4, 2, rng)
    lhs = wedge(wedge(a, b), c)
    rhs = wedge(a, wedge(b, c))
    assert sample_difference(lhs, rhs, rng, 10) < 1e-12


def test_interior_coordinate_examples():
    dxdy = coordinate_form((0, 1), 2)
    dy = coordinate_form((1,), 2)
    dx = coordinate_form((0,), 2)
    rng = np.random.default_rng(3)
    assert sample_difference(interior(dxdy, EX), dy, rng, 8) < 1e-14
    assert sample_difference(interior(dxdy, EY), form_scale(-1.0, dx), rng, 8) < 1e-14


def test_interior_squares_to_zero():
    rng = np.random.default_rng(4)
    a = cat.random_form(3, 3, rng)
    X = cat.random_affine_field(3, rng)
    ii = interior(interior(a, X), X)
    assert sample_difference(ii, zero_form(3, 1), rng, 10) < 1e-13


def test_interior_degree_zero_rejected():
    with pytest.raises(DegreeError):
        interior(coordinate_form((), 2), EX)


def test_exterior_derivative_linear_coefficient():
    xdy = coefficient_form(2, 1, {(1,): scalar_coordinate(0, 2)})
    d_fd = exterior_derivative(strip_analytic(xdy), step=1e-4)
    # linear coefficients are exact under central differences
    assert d_fd(np.array([0.3, -0.7]), EX, EY) == pytest.approx(1.0, abs=1e-10)
    d_an = exterior_derivative(xdy)
    assert d_an(np.array([0.3, -0.7]), EX, EY) == pytest.approx(1.0)


def test_exterior_derivative_of_closed_form():
    dxdy = coordinate_form((0, 1), 2)
    d = exterior_derivative(strip_analytic(dxdy), step=1e-4)
    v = np.array([0.2, 0.5])
    assert abs(d(v, EX, EY, np.array([1.0, 2.0]))) < 1e-10


def test_exterior_derivative_sine_coefficient():
    sxdy = coefficient_form(2, 1, {(1,): trig_scalar(2, [[1.0, 0.0]], [1.0], [0.0])})
    d = exterior_derivative(strip_analytic(sxdy), step=1e-4)
    assert abs(d(np.zeros(2), EX, EY) - 1.0) < 1e-8


def test_analytic_d_takes_one_gradient_per_coefficient():
    rng = np.random.default_rng(8)
    calls = []

    def counted(c):
        return ScalarFunc(c.value, lambda x: calls.append(len(x)) or c.grad(x), c.hess)

    coeffs = {I: counted(cat.random_scalar(4, rng)) for I in combinations(range(4), 2)}
    a = coefficient_form(4, 2, coeffs)
    x = rng.uniform(-1.0, 1.0, (7, 4))
    vs = [rng.uniform(-1.0, 1.0, (7, 4)) for _ in range(3)]
    a.analytic_d.evaluator(x, vs)
    assert calls == [7] * len(coeffs)  # one gradient per coefficient, not per partial
    # central differences at h = 1e-5: truncation about h^2/6 |D^3 f| ~ 1e-10,
    # roundoff about 1e-11
    fd = exterior_derivative(strip_analytic(a), step=1e-5)
    assert sample_difference(fd, a.analytic_d, rng, 10) < 1e-9
    assert a.analytic_d.analytic_d.degree == 4
    assert a.analytic_d.analytic_d.evaluator(x, vs + vs[:1]).tolist() == [0.0] * 7


def test_dd_vanishes_under_fd():
    rng = np.random.default_rng(6)
    a = strip_analytic(cat.random_form(3, 1, rng))
    step = 1e-4
    dd = exterior_derivative(exterior_derivative(a, step), step)
    x = rng.uniform(-1, 1, 3)
    vs = [rng.uniform(-1, 1, 3) for _ in range(3)]
    assert abs(dd(x, *vs)) < 10 * step


def test_pullback_circle_restriction():
    dy = coordinate_form((1,), 2)
    f = ChartMap(lambda t: np.array([np.cos(t[0]), np.sin(t[0])]), 1, 2,
                 jacobian_func=lambda t: np.array([[-np.sin(t[0])], [np.cos(t[0])]]))
    pb = pullback(dy, f)
    for theta in (0.0, 0.7, 2.1):
        assert pb(np.array([theta]), np.array([1.0])) == pytest.approx(np.cos(theta))


def test_pullback_identity_and_functoriality():
    rng = np.random.default_rng(7)
    a = cat.random_form(3, 2, rng)
    assert sample_difference(pullback(a, identity_map(3)), a, rng, 10) < 1e-14
    phi = cat.ChartMap(lambda x: x + 0.2 * np.sin(x[::-1]), 3, 3)
    psi = cat.ChartMap(lambda x: np.array([x[1], x[2], x[0] + 0.1 * x[1] ** 2]), 3, 3)
    phi_psi = cat.ChartMap(lambda x: phi(psi(x)), 3, 3)  # the composite phi∘psi
    lhs = pullback(a, phi_psi)
    rhs = pullback(pullback(a, phi), psi)
    assert sample_difference(lhs, rhs, rng, 10) < 1e-7


def test_pullback_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        pullback(coordinate_form((0,), 2), identity_map(3))


def test_lie_derivative_translation():
    xdy = coefficient_form(2, 1, {(1,): scalar_coordinate(0, 2)})
    L = lie_derivative(xdy, constant_field(EX), step=1e-4)
    dy = coordinate_form((1,), 2)
    rng = np.random.default_rng(8)
    assert sample_difference(L, dy, rng, 10) < 1e-9


def test_lie_derivative_divergence_free_preserves_area():
    A = np.array([[0.3, 0.8], [0.5, -0.3]])  # trace zero
    L = lie_derivative(volume_form(2), affine_field(A), step=1e-4)
    rng = np.random.default_rng(9)
    assert sample_difference(L, zero_form(2, 2), rng, 10) < 1e-9


def test_lie_derivative_degree_zero():
    h = coefficient_form(2, 0, {(): trig_scalar(2, [[1.0, 0.5]], [1.0], [0.3])})
    X = constant_field(np.array([1.0, 2.0]))
    L = lie_derivative(h, X, step=1e-5)
    x = np.array([0.2, -0.4])
    grad = np.array([np.cos(x @ [1.0, 0.5] + 0.3), 0.5 * np.cos(x @ [1.0, 0.5] + 0.3)])
    assert L(x) == pytest.approx(grad @ [1.0, 2.0], abs=1e-9)


def test_lie_derivative_flow_oracle():
    rng = np.random.default_rng(10)
    a = cat.random_form(3, 2, rng)
    X = cat.random_affine_field(3, rng, amp=0.6)
    cartan = lie_derivative(a, X, step=1e-4)
    flow = lie_derivative_flow(a, X)
    assert sample_difference(cartan, flow, rng, 10) < 1e-5


def test_integrate_volumes():
    assert integrate(coordinate_form((0,), 1), circle(64)) == pytest.approx(2 * np.pi)
    sin2 = coefficient_form(2, 2, {(0, 1): trig_scalar(
        2, [[2.0, 0.0], [0.0, 0.0]], [-0.5, 0.5], [np.pi / 2, np.pi / 2])})
    # sin^2(x) = (1 - cos 2x)/2 as a trig polynomial
    assert integrate(sin2, torus2(16)) == pytest.approx(2 * np.pi ** 2)
    assert integrate(coordinate_form((0,), 1), interval(33)) == pytest.approx(1.0)


def test_integrate_degree_mismatch():
    with pytest.raises(DegreeError):
        integrate(coordinate_form((0,), 2), torus2(8))


def test_produced_forms_are_alternating_and_multilinear():
    rng = np.random.default_rng(11)
    a = cat.random_form(4, 2, rng)
    b = cat.random_form(4, 1, rng)
    X = cat.random_affine_field(4, rng)
    produced = [
        wedge(a, b),
        interior(a, X),
        exterior_derivative(strip_analytic(b), step=1e-4),
        pullback(a, cat.ChartMap(lambda x: x + 0.1 * np.sin(x), 4, 4)),
        lie_derivative(a, X, step=1e-4),
        form_sum(a, form_scale(2.0, a)),
    ]
    for form in produced:
        assert antisymmetry_defect(form, rng, 8) < 1e-7
        assert multilinearity_defect(form, rng, 8) < 1e-7


def _leibniz_det(M):
    """Determinant as the signed sum over permutations, for small M."""
    total = 0.0
    for perm in permutations(range(len(M))):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        total += (-1) ** inversions * np.prod([M[i, j] for i, j in enumerate(perm)])
    return total


@pytest.mark.parametrize("p", [4, 5])
def test_minor_det_beyond_three_vectors(p):
    # p > 3 takes the np.linalg.det branch; check the picked components and
    # their order row by row against the permutation sum
    rng = np.random.default_rng(40 + p)
    vectors = [rng.standard_normal((6, 7)) for _ in range(p)]
    index = tuple(sorted(rng.choice(7, p, replace=False)))
    got = _minor_det(vectors, index)
    assert got.shape == (6,)
    for r in range(6):
        M = np.array([[v[r, i] for i in index] for v in vectors])
        assert got[r] == pytest.approx(np.linalg.det(M), rel=1e-12, abs=1e-12)
        assert got[r] == pytest.approx(_leibniz_det(M), rel=1e-12, abs=1e-12)
    swapped = [vectors[1], vectors[0]] + vectors[2:]
    assert np.allclose(_minor_det(swapped, index), -got, rtol=1e-13, atol=1e-13)
