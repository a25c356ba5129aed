"""The NumPy kernels that stand in for library routines: the RK4 flow, checked
on an affine field against its field equation, and an import of the package
that pulls in nothing beyond NumPy."""

import os
import subprocess
import sys

import numpy as np

import mapforms
from mapforms.charts import affine_field


def test_affine_flow_solves_the_field_equation():
    rng = np.random.default_rng(1)
    A, c = rng.uniform(-1.0, 1.0, (3, 3)), rng.uniform(-1.0, 1.0, 3)
    X = affine_field(A, c)
    x = rng.uniform(-1.0, 1.0, (5, 3))
    assert np.max(np.abs(X.flow(0.0).rows(x) - x)) < 1e-15
    t, h = 0.7, 1e-4
    dxdt = (X.flow(t + h).rows(x) - X.flow(t - h).rows(x)) / (2.0 * h)
    assert np.max(np.abs(dxdt - X.rows(X.flow(t).rows(x)))) < 1e-8


def test_import_pulls_in_no_scipy():
    src = os.path.dirname(os.path.dirname(mapforms.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, mapforms, mapforms.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
