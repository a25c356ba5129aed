"""One periodic grid for every dimension: torus(shape) against closed forms
on non-cubic grids (an axis swap aliases a mode and fails), the Hodge
operators on every torus, the derived kind label, and the map-space calculus
on the 3-torus."""

import dataclasses

import numpy as np
import pytest

from mapforms import catalog as cat
from mapforms import mechanics as me
from mapforms.domains import (NotExactError, ScalarField, SourceDomain, circle,
                              exact_divfree_field, interval, projection_P,
                              right_inverse_b, torus, torus2)
from mapforms.forms import coordinate_form, volume_form
from mapforms.mapspace import MapTangent, hat_map, hat_pairing, hat_pairing_fiber
from mapforms.report import fit_order
from mapforms.suites import derivation_residual, two_route_residual

# per-axis modes below each axis's Nyquist mode: 2 < 6/2, 3 < 8/2, 4 < 10/2
CASES = {(6, 8, 10): np.array([2.0, -3.0, 4.0]), (10, 6): np.array([4.0, -2.0])}


def _wave(shape):
    """sin(K.x + 0.3) + cos(x_0 + x_1) and its gradient, as closed forms."""
    K = CASES[shape]
    one = np.zeros(len(shape))
    one[:2] = 1.0

    def value(x):
        return np.sin(x @ K + 0.3) + np.cos(x @ one)

    def grad(x):
        return np.cos(x @ K + 0.3)[:, None] * K - np.sin(x @ one)[:, None] * one

    return value, grad


def test_constructors_are_tori():
    assert circle(12).kind == "circle" and torus((12,)).kind == "circle"
    assert torus2(6).shape == (6, 6) and torus2(6).kind == "torus2"
    assert torus((6, 10)).kind == "torus2" and torus((6, 10)).shape == (6, 10)
    t3 = torus((6, 8, 10))
    assert (t3.kind, t3.dim, t3.chart_dim, t3.n_nodes) == ("torus3", 3, 3, 480)
    assert t3.volume == pytest.approx((2 * np.pi) ** 3)
    assert t3.spacing == pytest.approx((2 * np.pi / 6, 2 * np.pi / 8, 2 * np.pi / 10))
    assert t3.boundary() is None
    # C order: the last axis varies fastest
    assert t3.nodes[1].tolist() == pytest.approx([0.0, 0.0, 2 * np.pi / 10])
    assert t3.nodes[10].tolist() == pytest.approx([0.0, 2 * np.pi / 8, 0.0])


@pytest.mark.parametrize("shape", sorted(CASES))
def test_differentiate_matches_closed_form(shape):
    dom = torus(shape)
    value, grad = _wave(shape)
    v = value(dom.nodes)
    for a in range(dom.dim):
        assert np.max(np.abs(dom.differentiate(v, a) - grad(dom.nodes)[:, a])) < 1e-12
    J = dom.map_jacobian(np.stack([v, 2 * v], axis=-1))
    assert np.max(np.abs(J[:, 1] - 2 * grad(dom.nodes))) < 1e-12


@pytest.mark.parametrize("shape", sorted(CASES))
def test_resample_matches_closed_form(shape):
    dom = torus(shape)
    value, _ = _wave(shape)
    pts = np.random.default_rng(1).uniform(-1.0, 7.0, (13, len(shape)))
    out = dom.resample(np.stack([value(dom.nodes), -value(dom.nodes)], axis=-1), pts)
    assert np.max(np.abs(out[:, 0] - value(pts))) < 1e-12
    assert np.max(np.abs(out[:, 1] + value(pts))) < 1e-12


@pytest.mark.parametrize("shape", sorted(CASES))
def test_smoothness_defect_reads_each_nyquist_plane(shape):
    dom = torus(shape)
    value, _ = _wave(shape)
    assert dom.smoothness_defect(value(dom.nodes)) < 1e-12
    for a, n in enumerate(shape):
        # the Nyquist mode of axis a at half the mean's amplitude, in one column
        rough = 1.0 + 0.5 * np.cos((n // 2) * dom.nodes[:, a])
        data = np.column_stack([value(dom.nodes), rough])
        assert dom.smoothness_defect(data) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("shape", sorted(CASES))
def test_node_index_matches_multi_index(shape):
    dom = torus(shape)
    rng = np.random.default_rng(2)
    idx = np.stack([rng.integers(0, n, 9) for n in shape], axis=1)
    laps = rng.integers(-2, 3, idx.shape)  # whole periods wrap around
    pts = (idx / np.array(shape) + laps) * 2 * np.pi
    want = np.ravel_multi_index(tuple(idx.T), shape)
    assert dom.node_index(pts).tolist() == want.tolist()
    assert dom.node_index(pts[0]) == want[0]
    with pytest.raises(KeyError):
        dom.node_index(pts[0] + 0.5 * np.array(dom.spacing))


# ---------------------------------------------------------------------------
# the right inverse of d and the projection P on every torus


def _smooth_field(dom, seed):
    """A few random modes, each below its axis's Nyquist mode, plus an offset."""
    rng = np.random.default_rng(seed)
    K = np.stack([rng.integers(-(n // 2 - 1), n // 2, 4) for n in dom.shape], axis=1)
    phase = dom.nodes @ K.T + rng.uniform(0.0, 2 * np.pi, 4)
    return 1.3 + np.sin(phase) @ rng.standard_normal(4)


@pytest.mark.parametrize("dom", [circle(48), torus((8, 10, 12))], ids=["circle", "torus3"])
def test_potential_of_d_alpha_is_alpha_minus_its_mean(dom):
    alpha = ScalarField(dom, _smooth_field(dom, dom.dim))
    pot = right_inverse_b(dom, alpha.d_components())
    assert np.max(np.abs(pot.values - (alpha.values - alpha.values.mean()))) < 1e-12
    assert np.max(np.abs(projection_P(dom, alpha).values - alpha.values.mean())) < 1e-12


def test_right_inverse_rejects_closed_forms_with_a_period_on_the_three_torus():
    dom = torus((6, 8, 10))
    with pytest.raises(NotExactError, match="period residual 1.000e"):
        right_inverse_b(dom, coordinate_form((2,), 3))  # closed, period 1 along x_2


def test_right_inverse_gates_every_curl_pair():
    # beta = sin(x_1) dx_2 has zero means, no (0,1) or (0,2) curl, and
    # curl cos(x_1) in the (1,2) pair only
    dom = torus((6, 8, 10))
    comps = np.zeros((dom.n_nodes, 3))
    comps[:, 2] = np.sin(dom.nodes[:, 1])
    with pytest.raises(NotExactError, match="curl residual 1.000e"):
        right_inverse_b(dom, comps)


def test_projection_P_on_the_three_torus_is_the_mean():
    dom = torus((6, 8, 10))
    alpha = _smooth_field(dom, 5)
    assert np.max(np.abs(projection_P(dom, alpha).values - alpha.mean())) < 1e-12


def test_structure_guards():
    with pytest.raises(ValueError, match="dimension 2"):
        exact_divfree_field(torus((6, 8, 10)), np.zeros(480))
    D = me.affine_subspace([0, 0, 0], np.eye(3)[:, :2])
    with pytest.raises(ValueError, match="boundary"):
        me.brane_twist_check(volume_form(3), coordinate_form((0, 1), 2), D, circle(16),
                             np.random.default_rng(0))
    with pytest.raises(ValueError, match="periodic"):
        right_inverse_b(interval(9), np.zeros((9, 1)))


def test_kind_is_derived_from_the_grid():
    assert "kind" not in {f.name for f in dataclasses.fields(SourceDomain)}
    assert interval(9).boundary().kind == "points"
    assert interval(9).kind == "interval"
    assert [torus((4,) * k).kind for k in (1, 2, 3)] == ["circle", "torus2", "torus3"]


# ---------------------------------------------------------------------------
# the map-space calculus on the 3-torus (dim S = 3 lowers degrees by 3)

T3 = torus((8, 8, 8))


@pytest.mark.parametrize("p, q", [(3, 0), (2, 1), (3, 1), (2, 2), (3, 3)])
def test_two_routes_agree_on_the_three_torus(p, q):
    rng = np.random.default_rng([11, p, q])
    om = cat.random_form(5, p, rng)
    al = cat.random_form(3, q, rng, integer_modes=True)
    assert hat_pairing(om, al, T3).degree == hat_pairing_fiber(om, al, T3).degree == p + q - 3
    assert two_route_residual(T3, 5, p, q, np.random.default_rng([12, p, q])) < 1e-14


def test_transgression_of_a_four_form_is_a_one_form():
    rng = np.random.default_rng(13)
    om = cat.random_form(5, 4, rng)
    W = hat_map(om, T3)
    f = cat.random_map(T3, 5, rng, amp=0.5)
    Y = cat.random_tangent(f, rng)
    assert W.degree == 1
    value = W(f, Y)
    assert np.isfinite(value) and value != 0.0
    assert W(f, MapTangent(f, -Y.vectors)) == -value
    assert hat_pairing_fiber(om, 1.0, T3)(f, Y) == pytest.approx(value, rel=1e-13, abs=1e-13)


def _derivation_ladder(side):
    at = derivation_residual(torus((side,) * 3), 3, 2, 1, np.random.default_rng([3, 3]))
    floor = at(2e-5)
    steps = (4e-3, 2e-3, 1e-3, 5e-4)
    order, _ = fit_order(steps, [abs(at(h) - floor) for h in steps])
    return floor, order


def test_derivation_identity_on_the_three_torus_is_second_order():
    _, order = _derivation_ladder(8)
    assert order >= 1.9


def test_derivation_floor_falls_with_the_side():
    # the h-independent floor is the under-resolution of the random data: about
    # 0.19 at 8^3 and 3.5e-7 at 16^3, so only the finer grid meets 1e-6
    coarse, _ = _derivation_ladder(8)
    fine, _ = _derivation_ladder(16)
    assert abs(coarse) > 1e-2
    assert abs(fine) < 1e-6
