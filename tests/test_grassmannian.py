"""Induced forms on embedded submanifolds through representatives."""

import numpy as np
import pytest

from mapforms import catalog as cat
from mapforms import grassmannian as gr
from mapforms.charts import affine_map, rotation3
from mapforms.domains import circle, torus2
from mapforms.forms import DegreeError, volume_form
from mapforms.mapspace import (MapPoint, MapTangent, generator_M, hat_map,
                               map_from_function, map_space_d)

NU = volume_form(3)


def unit_circle_submanifold(n=128):
    return gr.embed(cat.unit_circle_map(circle(n), 3))


def test_embedding_gates():
    dom = circle(64)
    with pytest.raises(gr.EmbeddingError):
        gr.embed(MapPoint(dom, np.tile([1.0, 0.0, 0.0], (64, 1))))
    fig8 = map_from_function(
        dom, lambda s: np.array([np.sin(2 * s[0]), np.sin(s[0]), 0.0]), 3)
    with pytest.raises(gr.EmbeddingError):
        gr.embed(fig8)
    N = unit_circle_submanifold(64)
    assert N.min_distance > 1e-2
    assert N.min_singular_value > 0.9


def test_embedding_min_singular_value_on_a_torus():
    # the standard torus: singular values r and R + r cos v at every node
    R, r = 2.0, 0.5
    T = map_from_function(torus2(16), lambda s: np.array([
        (R + r * np.cos(s[1])) * np.cos(s[0]), (R + r * np.cos(s[1])) * np.sin(s[0]),
        r * np.sin(s[1])]), 3)
    N = gr.embed(T)
    loop = min(np.linalg.svd(J, compute_uv=False)[-1] for J in T.jacobian())
    assert N.min_singular_value == loop
    assert N.min_singular_value == pytest.approx(r, rel=1e-12)


def test_tilda_needs_the_right_number_of_sections():
    N = unit_circle_submanifold(32)
    with pytest.raises(DegreeError):
        gr.tilda_eval(NU, N, [cat.named_field("e_z")])


def test_loop_space_area_values():
    N = unit_circle_submanifold()
    ez, rad, ex = (cat.named_field(n) for n in ("e_z", "radial", "e_x"))
    assert gr.tilda_eval(NU, N, [ez, rad]) == pytest.approx(2 * np.pi, abs=1e-8)
    assert abs(gr.tilda_eval(NU, N, [ez, ex])) < 1e-10


def test_pairing_antisymmetry():
    N = unit_circle_submanifold(64)
    pairing = gr.mw_form(NU, N)
    ez, rad = cat.named_field("e_z"), cat.named_field("radial")
    X = gr.section_tangent(N, ez)
    assert pairing(X, X) == 0.0
    assert pairing(ez, rad) == pytest.approx(-pairing(rad, ez))


def test_horizontality():
    N = unit_circle_submanifold()
    ez, rad = cat.named_field("e_z"), cat.named_field("radial")
    base = gr.tilda_eval(NU, N, [ez, rad])
    Z = np.sin(3 * N.rep.dom.nodes[:, :1]) + 0.4
    tang = gr.tangential_tangent(N, Z)
    pert = MapTangent(N.rep, generator_M(rad, N.rep).vectors + tang.vectors)
    assert abs(gr.tilda_eval(NU, N, [ez, pert]) - base) < 1e-8


def test_closedness_of_loop_space_volume_pairing():
    N = unit_circle_submanifold()
    rng = np.random.default_rng(30)
    dW = map_space_d(hat_map(NU, N.rep.dom), 1e-4)
    ts = [cat.random_tangent(N.rep, rng) for _ in range(3)]
    assert abs(dW(N.rep, *ts)) < 1e-6


def _moved_sections(phi, N, sections):
    return [MapTangent(gr.diffM_action_on_N(phi, N).rep,
                       np.array([phi.jacobian(x) @ v for x, v in zip(
                           N.rep.values, generator_M(s, N.rep).vectors)]))
            for s in sections]


def test_action_invariance_and_scaling():
    N = unit_circle_submanifold()
    ez, rad = cat.named_field("e_z"), cat.named_field("radial")
    base = gr.tilda_eval(NU, N, [ez, rad])

    rot = rotation3([0.2, 0.5, 1.0], 0.9)
    Nr = gr.diffM_action_on_N(rot, N)
    assert gr.tilda_eval(NU, Nr, _moved_sections(rot, N, (ez, rad))) == \
        pytest.approx(base, abs=1e-8)

    shear = affine_map(np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0],
                                 [0.0, 0.0, 1.0]]))
    Ns = gr.diffM_action_on_N(shear, N)
    assert gr.tilda_eval(NU, Ns, _moved_sections(shear, N, (ez, rad))) == \
        pytest.approx(base, abs=1e-8)

    A = np.diag([1.3, 0.8, 1.1])
    Na = gr.diffM_action_on_N(affine_map(A), N)
    got = gr.tilda_eval(NU, Na, _moved_sections(affine_map(A), N, (ez, rad)))
    assert got == pytest.approx(np.linalg.det(A) * base, abs=1e-8)


def test_orientation_reversal_flips_sign():
    N = unit_circle_submanifold(64)
    rev = gr.embed(MapPoint(N.rep.dom.with_orientation(-1), N.rep.values))
    ez, rad = cat.named_field("e_z"), cat.named_field("radial")
    assert gr.tilda_eval(NU, rev, [ez, rad]) == pytest.approx(
        -gr.tilda_eval(NU, N, [ez, rad]))


def test_bundle_relation_consistency():
    N = unit_circle_submanifold(48)
    rng = np.random.default_rng(31)
    om = cat.random_form(3, 2, rng)
    X = cat.random_affine_field(3, rng)
    a = hat_map(om, N.rep.dom)(N.rep, generator_M(X, N.rep))
    b = gr.tilda_eval(om, N, [X])
    assert a == pytest.approx(b, abs=1e-12)


def test_kernel_of_gram_matrix_is_tangential():
    N = gr.embed(cat.unit_circle_map(circle(12), 3))
    G = gr.mw_gram_matrix(NU, N)
    _, sv, Vt = np.linalg.svd(G)
    nkernel = int(np.sum(sv < 1e-10 * sv[0]))
    assert nkernel == 12  # one tangential direction per node
    Tf = N.rep.jacobian()
    tangentials = np.zeros((12, 36))
    for i in range(12):
        tangentials[i, 3 * i:3 * i + 3] = Tf[i, :, 0]
    for vec in Vt[len(sv) - nkernel:]:
        coeffs = np.linalg.lstsq(tangentials.T, vec, rcond=None)[0]
        assert np.linalg.norm(tangentials.T @ coeffs - vec) < 1e-8


def test_mw_form_dimension_gates():
    with pytest.raises(DegreeError):
        gr.mw_form(volume_form(2), unit_circle_submanifold(32))
