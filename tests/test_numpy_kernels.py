"""The NumPy kernels that stand in for library routines: the matrix
exponential behind exact affine flows, the not-a-knot cubic spline behind
interval resampling, and an import of the package that pulls in nothing
beyond NumPy."""

import os
import subprocess
import sys

import numpy as np

import mapforms
from mapforms.charts import _THETA13, _expm, affine_field
from mapforms.domains import _spline_interp, interval


def test_expm_rotation_generator():
    for theta in (0.3, 2.0, -7.5):
        E = _expm(theta * np.array([[0.0, -1.0], [1.0, 0.0]]))
        c, s = np.cos(theta), np.sin(theta)
        assert np.max(np.abs(E - np.array([[c, -s], [s, c]]))) < 1e-14


def test_expm_nilpotent_shear_is_its_finite_series():
    N = np.array([[0.0, 1.5, -0.7], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    assert np.max(np.abs(_expm(N) - (np.eye(3) + N + N @ N / 2.0))) < 1e-14


def test_expm_diagonal_is_exp_of_the_diagonal():
    d = np.array([-3.0, -0.2, 0.0, 0.9, 4.0])
    E = _expm(np.diag(d))
    assert np.max(np.abs(np.diag(E) / np.exp(d) - 1.0)) < 1e-14
    assert np.max(np.abs(E - np.diag(np.diag(E)))) < 1e-15
    assert np.max(np.abs(_expm(np.zeros((3, 3))) - np.eye(3))) < 1e-15


def test_expm_one_parameter_group():
    A = np.random.default_rng(0).uniform(-1.0, 1.0, (4, 4))
    for s, t in [(0.3, 0.5), (-1.1, 2.4), (1.7, 1.7)]:
        lhs, rhs = _expm(s * A) @ _expm(t * A), _expm((s + t) * A)
        assert np.max(np.abs(lhs - rhs)) < 1e-13 * np.abs(rhs).max()
    assert np.max(np.abs(_expm(A) @ _expm(-A) - np.eye(4))) < 1e-14


def test_expm_beyond_the_pade_range_squares():
    # 1-norm 13 > THETA13: the argument is scaled by 2^-2 and squared back.
    # The Jordan block is not normal, so the squaring is checked off the
    # diagonal too: exp([[a, b], [0, a]]) = e^a [[1, b], [0, 1]].
    a, b = 3.0, 10.0
    J = np.array([[a, b], [0.0, a]])
    assert np.linalg.norm(J, 1) > _THETA13
    want = np.exp(a) * np.array([[1.0, b], [0.0, 1.0]])
    assert np.max(np.abs(_expm(J) - want)) < 1e-14 * np.abs(want).max()
    R = _expm(20.0 * np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert np.max(np.abs(R - [[np.cos(20.0), -np.sin(20.0)],
                              [np.sin(20.0), np.cos(20.0)]])) < 1e-13


def test_affine_flow_solves_the_field_equation():
    rng = np.random.default_rng(1)
    A, c = rng.uniform(-1.0, 1.0, (3, 3)), rng.uniform(-1.0, 1.0, 3)
    X = affine_field(A, c)
    x = rng.uniform(-1.0, 1.0, (5, 3))
    assert np.max(np.abs(X.flow(0.0).rows(x) - x)) < 1e-15
    t, h = 0.7, 1e-4
    dxdt = (X.flow(t + h).rows(x) - X.flow(t - h).rows(x)) / (2.0 * h)
    assert np.max(np.abs(dxdt - X.rows(X.flow(t).rows(x)))) < 1e-8


def test_interval_spline_reproduces_cubics():
    # not-a-knot reproduces every cubic; a natural spline (M = 0 at the ends)
    # would miss p'' = 6x - 2 there
    dom = interval(9)
    x = dom.nodes[:, 0]
    p = lambda s: s ** 3 - s ** 2 + 0.5 * s - 2.0  # noqa: E731
    q = lambda s: -2.0 * s ** 3 + 4.0 * s  # noqa: E731
    pts = np.linspace(0.0, 1.0, 101)[:, None]
    out = dom.resample(np.column_stack([p(x), q(x)]), pts)
    want = np.column_stack([p(pts[:, 0]), q(pts[:, 0])])
    assert np.max(np.abs(out - want)) < 1e-13
    # the spline itself also takes uneven nodes
    x = np.sort(np.random.default_rng(4).uniform(0.0, 1.0, 9))
    out = _spline_interp(x, np.column_stack([p(x), q(x)]), pts[:, 0])
    assert np.max(np.abs(out - want)) < 1e-11


def test_interval_spline_interpolates_node_data():
    dom = interval(17)
    values = np.random.default_rng(2).standard_normal((17, 2, 3))
    assert np.max(np.abs(dom.resample(values, dom.nodes) - values)) < 1e-14


def test_interval_spline_converges_at_fourth_order():
    pts = np.random.default_rng(3).uniform(0.0, 1.0, (400, 1))
    errors = []
    for n in (17, 33, 65, 129):
        dom = interval(n)
        out = dom.resample(np.sin(3.0 * dom.nodes), pts)
        errors.append(np.max(np.abs(out - np.sin(3.0 * pts))))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders > 3.7), orders


def test_import_pulls_in_no_scipy():
    src = os.path.dirname(os.path.dirname(mapforms.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, mapforms, mapforms.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
