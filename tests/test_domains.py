"""Discretized source manifolds: quadrature, differentiation, the spectral
right inverse of d, and the stream-function machinery."""

import numpy as np
import pytest

from mapforms import catalog as cat
from mapforms.charts import worst
from mapforms.domains import (NotExactError, ScalarField, SmoothnessWarning,
                              circle, exact_divfree_field, interval,
                              make_domain, nodal_vector_field, projection_P,
                              right_inverse_b, torus2, warn_if_rough)
from mapforms.forms import coefficient_form, scalar_const, trig_scalar
from mapforms.mapspace import map_from_function


def test_weight_sums_match_volumes():
    assert circle(64).volume == pytest.approx(2 * np.pi)
    assert torus2(16).volume == pytest.approx(4 * np.pi ** 2)
    assert interval(33).volume == pytest.approx(1.0)
    assert np.all(circle(64).weights > 0)
    assert np.all(interval(33).weights > 0)


def test_make_domain_round_trip():
    assert make_domain("circle", 48).n_nodes == 48
    assert make_domain("torus2", 256).shape == (16, 16)
    assert make_domain("interval", 65).n_nodes == 65
    with pytest.raises(ValueError):
        make_domain("disk", 10)


def test_make_domain_does_not_clamp_the_torus_side():
    # one mapping from (kind, nodes): side round(sqrt(nodes)), nothing hidden
    assert make_domain("torus2", 1).n_nodes == 1
    assert make_domain("torus2", 9).shape == (3, 3)
    assert make_domain("torus2", 240).shape == (15, 15)


def test_closed_domains_have_no_boundary():
    assert circle(16).boundary() is None
    assert torus2(8).boundary() is None
    bdom = interval(33).boundary()
    assert bdom.n_nodes == 2
    assert bdom.node_signs.tolist() == [-1.0, 1.0]
    assert bdom.parent_indices.tolist() == [0, 32]


def test_spectral_derivatives_near_machine_precision():
    c = circle(64)
    th = c.nodes[:, 0]
    assert np.max(np.abs(c.differentiate(np.sin(th), 0) - np.cos(th))) < 1e-12
    t = torus2(24)
    x = t.nodes[:, 0]
    assert np.max(np.abs(t.differentiate(np.sin(3 * x), 0) - 3 * np.cos(3 * x))) < 1e-11
    assert np.max(np.abs(t.differentiate(np.sin(3 * x), 1))) < 1e-12


def test_derivative_annihilates_constants():
    for dom in (circle(32), torus2(12), interval(33)):
        ones = np.ones(dom.n_nodes)
        for axis in range(dom.dim):
            assert np.max(np.abs(dom.differentiate(ones, axis))) < 1e-12


def test_interval_derivative_is_fourth_order():
    errs = []
    for n in (33, 65, 129):
        dom = interval(n)
        x = dom.nodes[:, 0]
        err = np.max(np.abs(dom.differentiate(np.sin(3 * x), 0) - 3 * np.cos(3 * x)))
        errs.append(err)
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 3.5)


def test_quadrature_exact_for_band_limited_trig():
    dom = circle(32)
    th = dom.nodes[:, 0]
    for k in range(1, 15):
        assert abs(np.sum(dom.weights * np.cos(k * th))) < 1e-12
    assert np.sum(dom.weights * np.cos(th) ** 2) == pytest.approx(np.pi)


def test_axis_out_of_range():
    with pytest.raises(IndexError):
        circle(16).differentiate(np.zeros(16), 1)


def test_node_index_accepts_grid_points_only():
    dom = torus2(12)
    for i in (0, 5, 77):
        assert dom.node_index(dom.nodes[i]) == i
    with pytest.raises(KeyError):
        dom.node_index(np.array([0.1, 0.0]))


def test_resample_exact_for_band_limited_data():
    dom = circle(32)
    th = dom.nodes[:, 0]
    vals = np.column_stack([np.cos(3 * th), np.sin(th)])
    pts = np.array([[0.123], [2.9], [5.01]])
    out = dom.resample(vals, pts)
    expect = np.column_stack([np.cos(3 * pts[:, 0]), np.sin(pts[:, 0])])
    assert np.max(np.abs(out - expect)) < 1e-12

    t2 = torus2(16)
    f = np.cos(2 * t2.nodes[:, 0] + t2.nodes[:, 1])
    pts2 = np.array([[0.3, 1.1], [4.0, 2.2]])
    out2 = t2.resample(f[:, None], pts2)[:, 0]
    assert np.max(np.abs(out2 - np.cos(2 * pts2[:, 0] + pts2[:, 1]))) < 1e-12


def test_interval_resample_bounds():
    # only periodic domains resample: inside [0, 1] as outside it, and on
    # the boundary point pair
    dom = interval(33)
    for pts in ([[1.2]], [[0.5]]):
        with pytest.raises(ValueError, match="no interpolation on domain kind 'interval'"):
            dom.resample(np.zeros((33, 1)), np.array(pts))
    with pytest.raises(ValueError, match="no interpolation on domain kind 'points'"):
        dom.boundary().resample(np.zeros((2, 1)), np.array([[0.0]]))


def test_right_inverse_single_mode():
    dom = torus2(24)
    beta = coefficient_form(2, 1, {(0,): trig_scalar(2, [[1.0, 0.0]], [1.0],
                                                     [np.pi / 2])})
    alpha = right_inverse_b(dom, beta)
    assert np.max(np.abs(alpha.values - np.sin(dom.nodes[:, 0]))) < 1e-12
    assert abs(alpha.values.mean()) < 1e-14


def test_right_inverse_zero_and_round_trip():
    dom = torus2(24)
    zero = right_inverse_b(dom, np.zeros((dom.n_nodes, 2)))
    assert np.max(np.abs(zero.values)) == 0.0
    rng = np.random.default_rng(12)
    gaps = []
    for _ in range(50):
        a0 = cat.random_stream(dom, rng, max_mode=3)
        beta = a0.d_components()
        alpha = right_inverse_b(dom, beta)
        gaps += [np.max(np.abs(alpha.d_components() - beta)),
                 np.max(np.abs(alpha.values - a0.values))]
    assert worst(gaps) < 1e-10


def test_right_inverse_rejects_closed_nonexact_and_nonclosed():
    dom = torus2(16)
    with pytest.raises(NotExactError):
        # dx is closed but has a nonzero period
        right_inverse_b(dom, coefficient_form(2, 1, {(0,): scalar_const(1.0, 2)}))
    with pytest.raises(NotExactError):
        # sin(y) dx is not closed
        right_inverse_b(dom, coefficient_form(2, 1, {(0,): trig_scalar(
            2, [[0.0, 1.0]], [1.0], [0.0])}))


@pytest.mark.parametrize("kind, nodes", [("circle", 16), ("torus2", 256)])
def test_right_inverse_rejects_a_nan_node(kind, nodes):
    # d of sum_a sin(x_a), exact but for one NaN node
    dom = make_domain(kind, nodes)
    beta = np.cos(dom.nodes)
    beta[5, -1] = np.nan
    with pytest.raises(NotExactError, match="nan"):
        right_inverse_b(dom, beta)


def test_projection_examples():
    dom = torus2(24)
    x, y = dom.nodes[:, 0], dom.nodes[:, 1]
    assert np.max(np.abs(projection_P(dom, np.sin(x)).values)) < 1e-13
    mixed = ScalarField(dom, 3.0 + np.sin(x) * np.sin(y))
    assert np.max(np.abs(projection_P(dom, mixed).values - 3.0)) < 1e-13
    assert np.max(np.abs(projection_P(dom, np.full(dom.n_nodes, 2.5)).values
                         - 2.5)) < 1e-14


def test_projection_idempotent():
    dom = torus2(24)
    rng = np.random.default_rng(13)
    gaps = []
    for _ in range(50):
        field = ScalarField(dom, rng.standard_normal(dom.n_nodes))
        # smooth the white noise below the Nyquist band
        field = projection_P(dom, field).values + cat.random_stream(dom, rng, max_mode=3).values
        P1 = projection_P(dom, field)
        P2 = projection_P(dom, P1)
        gaps.append(np.abs(P2.values - P1.values))
    assert worst(gaps) < 1e-12


def test_exact_divfree_field_examples():
    dom = torus2(24)
    x = dom.nodes[:, 0]
    Z = exact_divfree_field(dom, ScalarField(dom, np.sin(x)))
    expect = np.column_stack([np.zeros(dom.n_nodes), -np.cos(x)])
    assert np.max(np.abs(Z - expect)) < 1e-12
    Zc = exact_divfree_field(dom, ScalarField(dom, np.full(dom.n_nodes, 4.2)))
    assert np.max(np.abs(Zc)) < 1e-13


def test_exact_divfree_field_is_divergence_free():
    dom = torus2(24)
    rng = np.random.default_rng(14)
    for _ in range(5):
        Z = exact_divfree_field(dom, cat.random_stream(dom, rng, max_mode=3))
        div = dom.differentiate(Z[:, 0], 0) + dom.differentiate(Z[:, 1], 1)
        assert np.max(np.abs(div)) < 1e-10


def test_nodal_vector_field_lookup():
    dom = torus2(12)
    Z = np.column_stack([np.sin(dom.nodes[:, 0]), np.cos(dom.nodes[:, 1])])
    field = nodal_vector_field(dom, Z)
    assert np.allclose(field(dom.nodes[17]), Z[17])
    with pytest.raises(KeyError):
        field(np.array([0.05, 0.0]))


def test_smoothness_warning_fires_on_rough_data():
    dom = circle(16)
    rough = np.sign(np.sin(7.5 * dom.nodes[:, 0]))[:, None]
    with pytest.warns(SmoothnessWarning):
        warn_if_rough(dom, rough)
    smooth = np.sin(dom.nodes[:, :1])
    assert warn_if_rough(dom, smooth) < 1e-12


def test_a_nan_sample_warns_and_the_map_point_still_refuses_it():
    dom = circle(16)
    vals = np.sin(dom.nodes)
    vals[3] = np.nan
    with pytest.warns(SmoothnessWarning, match="nan"), \
            pytest.raises(ValueError, match="not finite at node 3"):
        map_from_function(dom, lambda s: vals, 1)
