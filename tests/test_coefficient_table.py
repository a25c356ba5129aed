"""Trigonometric coefficients of a form are evaluated from one table.

coefficient_form stacks the modes and phases of every coefficient that
trig_scalar built, so one sine gives all their values and one cosine all
their gradients.  The per-coefficient loop the table replaced is kept here
as the reference, and the table must match it bit for bit.  The flow route
of the Lie derivative takes both signs in one RK4 pass; the two pull-backs
it replaced are the reference there.
"""

from itertools import combinations

import numpy as np
import pytest

from mapforms import catalog as cat
from mapforms.charts import VectorField, field_from_callable
from mapforms.forms import (LIE_FLOW_STEP, ScalarFunc, _minor_det, coefficient_form,
                            lie_derivative_flow, pullback, scalar_const, scalar_coordinate)


def _reference_value(items, x, vs):
    """One value call per coefficient, summed in multi-index order."""
    return sum((c.value(x) * _minor_det(vs, I) for I, c in items), np.zeros(len(x)))


def _reference_d(items, dim, x, vs):
    """One gradient call per coefficient; d collected by multi-index J."""
    by_J: dict = {}
    for r, (I, _) in enumerate(items):
        for j in range(dim):
            if j not in I:
                J = tuple(sorted((j,) + I))
                by_J.setdefault(J, []).append((r, j, (-1.0) ** J.index(j)))
    grads = [np.asarray(c.grad(x), dtype=float) for _, c in items]
    total = np.zeros(len(x))
    for J, parts in sorted(by_J.items()):
        coeff = sum(sign * grads[r][..., j] for r, j, sign in parts)
        total = total + coeff * _minor_det(vs, J)
    return total


def _coefficients(dim, degree, rng, mixed):
    """Random trig coefficients; when mixed, every other one is a constant,
    a coordinate or a trig value with a rescaled gradient."""
    coeffs = {}
    for n, I in enumerate(combinations(range(dim), degree)):
        c = cat.random_scalar(dim, rng, n_terms=1 + n % 3, integer_modes=False)
        if mixed and n % 2:
            c = [scalar_const(rng.uniform(-1.0, 1.0), dim),
                 scalar_coordinate(n % dim, dim),
                 ScalarFunc(c.value, lambda x, c=c: 2.0 * c.grad(x), c.hess)][n // 2 % 3]
        coeffs[I] = c
    return coeffs


@pytest.mark.parametrize("rows", [1, 3, 2304])
@pytest.mark.parametrize("mixed", [False, True], ids=["trig", "mixed"])
@pytest.mark.parametrize("dim, degree", [(m, p) for m in range(1, 6) for p in range(m + 1)])
def test_table_matches_the_per_coefficient_loop_bit_for_bit(dim, degree, mixed, rows):
    rng = np.random.default_rng([dim, degree, rows, mixed])
    coeffs = _coefficients(dim, degree, rng, mixed)
    items = sorted(coeffs.items())
    a = coefficient_form(dim, degree, coeffs)
    x = rng.uniform(-2.0, 2.0, (rows, dim))
    vs = [rng.uniform(-1.0, 1.0, (rows, dim)) for _ in range(degree + 1)]
    assert np.array_equal(a.evaluator(x, vs[:degree]), _reference_value(items, x, vs[:degree]))
    assert np.array_equal(a.analytic_d.evaluator(x, vs), _reference_d(items, dim, x, vs))


def test_one_sine_per_form_and_one_cosine_per_d(monkeypatch):
    rng = np.random.default_rng(5)
    # trig coefficients of 1, 2 and 3 terms beside a constant and a coordinate
    coeffs = {I: cat.random_scalar(4, rng, n_terms=1 + n % 3, integer_modes=False)
              for n, I in enumerate(combinations(range(4), 2))}
    coeffs[(0, 1)], coeffs[(2, 3)] = scalar_const(0.3, 4), scalar_coordinate(1, 4)
    a = coefficient_form(4, 2, coeffs)
    x = rng.uniform(-1.0, 1.0, (5, 4))
    vs = [rng.uniform(-1.0, 1.0, (5, 4)) for _ in range(3)]
    calls = {"sin": 0, "cos": 0}

    def counted(name):
        real = getattr(np, name)

        def wrapped(*args, **kw):
            calls[name] += 1
            return real(*args, **kw)
        return wrapped

    for name in calls:
        monkeypatch.setattr(np, name, counted(name))
    a.evaluator(x, vs[:2])
    assert calls == {"sin": 1, "cos": 0}
    a.analytic_d.evaluator(x, vs)
    assert calls == {"sin": 1, "cos": 1}


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_complex_step_through_the_table(dim, degree):
    h = 1e-30
    a = cat.random_form(dim, degree, np.random.default_rng([dim, degree]))
    twin = np.random.default_rng([dim, degree])  # draws the same coefficients
    coeffs = [cat.random_scalar(dim, twin, integer_modes=False)
              for _ in combinations(range(dim), degree)]
    rng = np.random.default_rng(9)
    x, y = rng.uniform(-1.0, 1.0, (2, 40, dim))
    vs = [rng.uniform(-1.0, 1.0, (40, dim)) for _ in range(degree)]
    real = a.evaluator(x, vs)
    value = a.evaluator(x + 1j * h * y, vs)
    assert value.dtype == np.complex128
    assert np.max(np.abs(value.real - real)) <= 1e-15 * np.max(np.abs(real))
    want = sum(np.einsum("ni,ni->n", c.grad(x), y) * _minor_det(vs, I)
               for I, c in zip(combinations(range(dim), degree), coeffs))
    assert np.max(np.abs(value.imag / h - want)) <= 1e-13 * np.max(np.abs(want))


def _trig_field(dim, rng, batched):
    comps = [cat.random_scalar(dim, rng, integer_modes=False) for _ in range(dim)]
    if batched:
        return VectorField(lambda x: np.column_stack([g.value(x) for g in comps]), dim,
                           jacobian_func=lambda x: np.stack([g.grad(x) for g in comps], 1),
                           name="trig", batched=True)
    return field_from_callable(
        lambda p: np.array([g.value(p[None])[0] for g in comps]), dim,
        jacobian=lambda p: np.array([g.grad(p[None])[0] for g in comps]), name="trig")


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "per-point"])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_stacked_flow_route_matches_two_pullbacks(degree, batched):
    rng = np.random.default_rng([degree, batched])
    a = cat.random_form(3, degree, rng)
    X = _trig_field(3, rng, batched)
    t = LIE_FLOW_STEP
    x = rng.uniform(-1.0, 1.0, (7, 3))
    vs = [rng.uniform(-1.0, 1.0, (7, 3)) for _ in range(degree)]
    want = (pullback(a, X.flow(t, 1)).evaluator(x, vs)
            - pullback(a, X.flow(-t, 1)).evaluator(x, vs)) / (2.0 * t)
    got = lie_derivative_flow(a, X).evaluator(x, vs)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
