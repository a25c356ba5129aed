"""The batched nodal evaluation contract: every evaluator takes points and
vectors stacked as rows and returns one value per row, and every map and
field evaluates rows through `rows`, `jacobian_rows` and `inverse_rows`.

Batched evaluation must agree with one single-point call per row, and the
array expressions over nodes in the pairings, Gram matrices and resampling
must agree with the per-node loops kept here as references.  The sums run
in another order than the loops, so agreement is required to a relative
1e-14 (a few units in the last place of float64), not bit for bit; an
operation that differences its argument at a step h divides that roundoff
by h, so it is compared to 1e-14 / h.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from mapforms import catalog as cat
from mapforms import grassmannian as gr
from mapforms import mechanics as me
from mapforms.charts import (DEFAULT_FD_STEP, ChartMap, VectorField, _fd_jacobian_rows,
                             _RowCalculus,
                             _rk4_flow, _rk4_steps, affine_field, affine_map,
                             constant_field, field_from_callable, identity_map,
                             rotation3)
from mapforms.domains import (circle, exact_divfree_field, interval,
                              nodal_vector_field, torus, torus2)
from mapforms.forms import (Form, coefficient_form, constant_form,
                            coordinate_form, exterior_derivative, fiber_integrate, form_scale,
                            form_sum, integrate, interior,
                            lie_derivative, lie_derivative_flow,
                            product_map, pullback, scalar_const,
                            scalar_coordinate, scalar_sum,
                            shuffles, strip_analytic, trig_scalar,
                            vertical_field, volume_form, wedge, zero_form)
from mapforms.mapspace import (MapTangent, bar_map_direct, generator_M,
                               generator_S, hat_gram, hat_pairing, map_space_d,
                               map_space_lie, pullback_action,
                               pushforward_action, pushforward_tangent)

RTOL = 1e-14
N = 7


def assert_rows_match(batched, singles, rtol=RTOL):
    batched, singles = np.asarray(batched), np.asarray(singles)
    assert batched.shape == singles.shape
    scale = np.maximum(1.0, np.abs(singles))
    assert np.all(np.abs(batched - singles) <= rtol * scale)


def points(m, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, (N, m)), [rng.uniform(-1.0, 1.0, (N, m)) for _ in range(5)]


def check_form(form, step=1.0):
    x, vs = points(form.ambient_dim)
    vs = vs[:form.degree]
    batched = form.evaluator(x, vs)
    singles = [form(x[i], *[v[i] for v in vs]) for i in range(N)]
    assert_rows_match(batched, singles, RTOL / step)


def _forms():
    rng = np.random.default_rng(11)
    a1, a2, a3 = (cat.random_form(4, p, rng) for p in (1, 2, 3))
    X = affine_field(rng.uniform(-1, 1, (4, 4)), rng.uniform(-1, 1, 4))
    phi = ChartMap(lambda u: np.array([u[0], u[1], u[0] * u[1], np.sin(u[2])]), 3, 4,
                   jacobian_func=lambda u: np.array([
                       [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [u[1], u[0], 0.0],
                       [0.0, 0.0, np.cos(u[2])]]))
    fd = DEFAULT_FD_STEP
    return {
        "zero": (zero_form(4, 2), 1.0),
        "constant": (constant_form(4, 0.3), 1.0),
        "coordinate": (coordinate_form((1, 3), 4, 2.0), 1.0),
        "volume-det-path": (volume_form(4, 0.5), 1.0),
        "coefficient-0": (cat.random_form(4, 0, rng), 1.0),
        "coefficient-1": (a1, 1.0),
        "coefficient-2": (a2, 1.0),
        "coefficient-3": (a3, 1.0),
        "coefficient-4": (cat.random_form(4, 4, rng), 1.0),
        "sum": (form_sum(a2, cat.random_form(4, 2, rng)), 1.0),
        "scale": (form_scale(-1.5, a3), 1.0),
        "wedge": (wedge(a1, a2), 1.0),
        "interior": (interior(a3, X), 1.0),
        "d-analytic": (exterior_derivative(a2), 1.0),
        "d-fd": (exterior_derivative(strip_analytic(a2)), fd),
        "pullback": (pullback(a2, phi), 1.0),
        "lie-0": (lie_derivative(cat.random_form(4, 0, rng), X), fd),
        "lie-2": (lie_derivative(a2, X), fd),
        "lie-flow": (lie_derivative_flow(a1, constant_field([0.2, -0.1, 0.4, 0.3])), 1.0),
    }


@pytest.mark.parametrize("name", sorted(_forms()))
def test_batched_form_matches_single_points(name):
    check_form(*_forms()[name])


@pytest.mark.parametrize("dom", [circle(12), torus2(5), interval(9), interval(9).boundary()],
                         ids=["circle", "torus2", "interval", "points"])
def test_batched_fiber_integral_matches_single_points(dom):
    rng = np.random.default_rng(12)
    w = cat.random_form(dom.chart_dim + 2, dom.dim + 1, rng)
    check_form(fiber_integrate(w, dom))


def test_batched_scalar_funcs_match_single_points():
    rng = np.random.default_rng(13)
    t = trig_scalar(3, rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, 3),
                    rng.uniform(0, 6, 3))
    funcs = [t, scalar_const(0.7, 3), scalar_coordinate(2, 3),
             scalar_sum([t, scalar_coordinate(0, 3)])]
    x, _ = points(3)
    for f in funcs:
        assert_rows_match(f.value(x), [f(xi) for xi in x])
        if f.grad is not None:
            assert_rows_match(f.grad(x), [f.grad(xi[None])[0] for xi in x])
            assert f.grad(x).shape == (N, 3)
        if f.hess is not None:
            assert f.hess(x).shape == (N, 3, 3)
    # the trig gradient and Hessian against central differences of value
    h, e = 1e-5, np.eye(3)
    fd_grad = np.stack([(t.value(x + h * e[j]) - t.value(x - h * e[j])) / (2 * h)
                        for j in range(3)], axis=1)
    assert np.max(np.abs(fd_grad - t.grad(x))) < 1e-9
    fd_hess = np.stack([(t.grad(x + h * e[j]) - t.grad(x - h * e[j])) / (2 * h)
                        for j in range(3)], axis=2)
    assert np.max(np.abs(fd_hess - t.hess(x))) < 1e-9


def test_integrate_matches_node_loop():
    rng = np.random.default_rng(14)
    for dom, form in [(circle(16), cat.random_form(1, 1, rng, integer_modes=True)),
                      (torus2(6), cat.random_form(2, 2, rng, integer_modes=True))]:
        frame = list(np.eye(dom.chart_dim)[:dom.dim])
        loop = sum(dom.signed_weights[i] * form(dom.nodes[i], *frame)
                   for i in range(dom.n_nodes))
        assert integrate(form, dom) == pytest.approx(loop, rel=RTOL, abs=RTOL)


# ---------------------------------------------------------------------------
# per-node references of the pairings

def hat_pairing_loop(omega, alpha, dom, f, tangents):
    """The pointwise route node by node, with single-point form calls."""
    k, q = dom.dim, alpha.degree
    Tf = f.jacobian()
    basis = np.eye(dom.chart_dim)
    total = 0.0
    for i in range(dom.n_nodes):
        fixed = [t.vectors[i] for t in tangents]
        acc = 0.0
        for left, right, sign in shuffles(k - q, q):
            om = omega(f.values[i], *fixed, *[Tf[i, :, a] for a in left])
            acc += sign * om * alpha(dom.nodes[i], *[basis[b] for b in right])
        total += dom.signed_weights[i] * acc
    return total


@pytest.mark.parametrize("kind, m, p, q", [
    ("circle", 3, 2, 0), ("circle", 3, 2, 1), ("torus2", 4, 2, 1),
    ("torus2", 4, 3, 0), ("interval", 3, 2, 1)])
def test_hat_pairing_matches_node_loop(kind, m, p, q):
    dom = {"circle": circle(24), "torus2": torus2(8), "interval": interval(17)}[kind]
    rng = np.random.default_rng(15)
    omega = cat.random_form(m, p, rng)
    alpha = cat.random_form(dom.chart_dim, q, rng, integer_modes=True)
    f = cat.random_map(dom, m, rng, amp=0.8)
    ts = [cat.random_tangent(f, rng) for _ in range(p + q - dom.dim)]
    got = hat_pairing(omega, alpha, dom)(f, *ts)
    assert got == pytest.approx(hat_pairing_loop(omega, alpha, dom, f, ts),
                                rel=RTOL, abs=RTOL)


def test_bar_map_direct_matches_node_loop():
    dom = circle(20)
    rng = np.random.default_rng(16)
    omega = cat.random_form(3, 2, rng)
    f = cat.random_map(dom, 3, rng, amp=0.8)
    ts = [cat.random_tangent(f, rng) for _ in range(2)]
    sw = dom.signed_weights / dom.volume
    loop = sum(sw[i] * omega(f.values[i], *[t.vectors[i] for t in ts])
               for i in range(dom.n_nodes))
    assert bar_map_direct(omega, dom)(f, *ts) == pytest.approx(loop, rel=RTOL, abs=RTOL)


# ---------------------------------------------------------------------------
# Gram matrices: block assembly against the pairing-by-pairing loop

def gram_loop(pairing, n, m):
    def basis(flat):
        v = np.zeros((n, m))
        v[flat // m, flat % m] = 1.0
        return v

    return np.array([[pairing(basis(r), basis(c)) for c in range(n * m)]
                     for r in range(n * m)])


def test_mw_gram_matrix_matches_pairing_loop():
    dom = circle(6)
    loop = gr.embed(cat.random_loop(dom, 3, np.random.default_rng(17)))
    pairing = gr.mw_form(volume_form(3), loop)
    want = gram_loop(lambda a, b: pairing(MapTangent(loop.rep, a), MapTangent(loop.rep, b)),
                     6, 3)
    G = gr.mw_gram_matrix(volume_form(3), loop)
    assert np.max(np.abs(G - want)) <= RTOL * max(1.0, np.max(np.abs(want)))


def test_hat_gram_matches_pairing_loop_on_curved_data():
    dom = circle(8)
    rng = np.random.default_rng(18)
    omega = cat.random_form(3, 3, rng, amp=0.8)
    alpha = cat.random_form(1, 0, rng, integer_modes=True)
    f = cat.random_map(dom, 3, rng, amp=0.8)
    W = hat_pairing(omega, alpha, dom)
    want = gram_loop(lambda a, b: W(f, MapTangent(f, a), MapTangent(f, b)), 8, 3)
    G = hat_gram(omega, alpha, dom, f)
    assert np.max(np.abs(G - want)) <= RTOL * max(1.0, np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# node lookup and resampling

@pytest.mark.parametrize("dom", [circle(10), torus2(6), interval(9),
                                 interval(9).boundary()],
                         ids=["circle", "torus2", "interval", "points"])
def test_node_index_on_arrays(dom):
    order = np.random.default_rng(19).permutation(dom.n_nodes)
    assert np.array_equal(dom.node_index(dom.nodes[order]), order)
    assert dom.node_index(dom.nodes[order[0]]) == order[0]
    off = dom.nodes[order].copy()
    off[len(off) // 2] += 0.05
    with pytest.raises(KeyError):
        dom.node_index(off)


def test_periodic_node_index_wraps():
    dom = circle(8)
    assert np.array_equal(dom.node_index(dom.nodes[[1, 3]] + 2 * np.pi), [1, 3])


def check_torus_resampling(shape):
    """Trigonometric interpolation against one einsum per value column."""
    from mapforms.domains import _nyquist_basis
    dom = torus(shape)
    rng = np.random.default_rng(20)
    values = rng.uniform(-1.0, 1.0, (dom.n_nodes, 3))
    pts = rng.uniform(0.0, 2 * np.pi, (11, len(shape)))
    axes = "abc"[:len(shape)]
    spec = f"{axes}," + ",".join(f"q{a}" for a in axes) + "->q"
    bases = [_nyquist_basis(n, pts[:, a]) for a, n in enumerate(shape)]
    want = np.empty((11, 3))
    for j in range(3):
        c = np.fft.fftn(values[:, j].reshape(shape)) / dom.n_nodes
        want[:, j] = np.real(np.einsum(spec, c, *bases))
    assert np.max(np.abs(dom.resample(values, pts) - want)) < 1e-13


def test_torus_resampling_matches_per_component_contraction():
    check_torus_resampling((8, 8))


@pytest.mark.parametrize("shape", [(6, 10), (6, 8, 10)])
def test_torus_resampling_matches_per_component_contraction_in_any_dimension(shape):
    check_torus_resampling(shape)


# ---------------------------------------------------------------------------
# maps and fields: rows against single-point calls and per-point references

def _trig_field(dim, rng):
    """A nonlinear field from trigonometric components, per point."""
    comps = [cat.random_scalar(dim, rng, integer_modes=False) for _ in range(dim)]
    return field_from_callable(
        lambda p: np.array([g.value(p[None])[0] for g in comps]), dim,
        jacobian=lambda p: np.array([g.grad(p[None])[0] for g in comps]), name="trig")


def _maps():
    rng = np.random.default_rng(21)
    A, b = rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3), rng.uniform(-1, 1, 3)
    sys = me.canonical_r2()
    warp = cat.circle_warp()
    per_point = ChartMap(lambda u: u + 0.2 * np.sin(u[::-1]), 3, 3, name="per-point")
    fd = DEFAULT_FD_STEP
    # (map, tolerance on its Jacobian rows): 1e-14 / h where they difference
    return {
        "identity": (identity_map(3), RTOL),
        "affine": (affine_map(A, b), RTOL),
        "rotation3": (rotation3([0.2, 0.5, 1.0], 0.9), RTOL),
        "flow-rk4-batched": (sys.pair("sin_x").field.flow(0.3, 16), RTOL),
        "flow-rk4-per-point": (_trig_field(3, rng).flow(0.3, 8), RTOL),
        "flow-affine": (affine_field(A, b).flow(0.2), RTOL),
        "product": (product_map(warp, affine_map([[np.cos(0.3), -np.sin(0.3)],
                                                  [np.sin(0.3), np.cos(0.3)]]), 1, 2), RTOL),
        "inclusion": (me.affine_subspace([0.1, 0.2, 0.3], [[1.0, 0.0], [1.0, 1.0],
                                                             [0.0, 2.0]]).inclusion(), RTOL),
        "rigid_shift": (cat.rigid_shift(0.37), RTOL),
        "rigid_shift_2d": (cat.rigid_shift_2d(0.5, -1.2), RTOL),
        "circle_warp": (warp, RTOL),
        "per-point": (per_point, RTOL / fd),
    }


def _fields():
    rng = np.random.default_rng(22)
    sys, se2 = me.canonical_r2(), me.se2_action()
    A, c = rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, 2)
    rot = affine_field([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    fd = DEFAULT_FD_STEP
    fields = {
        "constant": (constant_field([0.3, -0.2]), RTOL),
        "affine": (affine_field(A, c), RTOL),
        "bracket": (affine_field(A, c).bracket(sys.pair("sin_x").field), RTOL / fd),
        "opposite_bracket": (me.opposite_bracket(sys.pair("xy").field,
                                                 sys.pair("sin_x").field), RTOL / fd),
        "radial": (cat.named_field("radial"), RTOL),
        "vertical": (vertical_field(rot, 1), RTOL),
    }
    fields.update({f"hamiltonian-{p.name}": (p.field, RTOL) for p in sys.catalog})
    fields.update({f"se2-{n}": (g, RTOL) for n, g in zip(se2.names, se2.generators)})
    return fields


def check_rows(obj, x, jac_tol):
    assert_rows_match(obj.rows(x), [obj(xi) for xi in x])
    assert_rows_match(obj.jacobian_rows(x), [obj.jacobian(xi) for xi in x], jac_tol)


def check_jacobian_consistent(obj, x, tol=1e-6):
    """Analytic Jacobian rows against central differences of the rows."""
    fd = _fd_jacobian_rows(obj.rows, x, 1e-5)
    assert np.max(np.abs(obj.jacobian_rows(x) - fd)) < tol


@pytest.mark.parametrize("name", sorted(_maps()))
def test_map_rows_match_single_points(name):
    phi, jac_tol = _maps()[name]
    x, _ = points(phi.source_dim, seed=23)
    check_rows(phi, x, jac_tol)
    assert phi.rows(x).shape == (N, phi.target_dim)
    assert phi.jacobian_rows(x).shape == (N, phi.target_dim, phi.source_dim)
    check_jacobian_consistent(phi, x)
    if phi.inverse is not None:
        y = phi.rows(x)
        assert_rows_match(phi.inverse_rows(y), [phi.inverse_point(yi) for yi in y])
        assert np.max(np.abs(phi.inverse_rows(y) - x)) < 1e-12


@pytest.mark.parametrize("name", sorted(_fields()))
def test_field_rows_match_single_points(name):
    X, jac_tol = _fields()[name]
    x, _ = points(X.dim, seed=24)
    check_rows(X, x, jac_tol)
    assert X.rows(x).shape == (N, X.dim)
    check_jacobian_consistent(X, x)


@pytest.mark.parametrize("name", [f"map-{n}" for n in sorted(_maps())]
                         + [f"field-{n}" for n in sorted(_fields())])
def test_single_point_is_row_0_of_one_row_call(name, monkeypatch):
    kind, key = name.split("-", 1)
    obj = (_maps() if kind == "map" else _fields())[key][0]
    calls = []

    def counted(cls, method):
        inner = getattr(cls, method)

        def wrapped(self, x):
            if self is obj:
                calls.append((method, np.shape(x)))
            return inner(self, x)
        monkeypatch.setattr(cls, method, wrapped)

    for cls, method in [(_RowCalculus, "rows"), (_RowCalculus, "jacobian_rows"),
                        (ChartMap, "inverse_rows")]:
        counted(cls, method)
    dim = getattr(obj, "source_dim", getattr(obj, "dim", None))
    x = points(dim, seed=43)[0][0]
    obj(x)
    assert calls == [("rows", (1, dim))]
    calls.clear()
    obj.jacobian(x)
    assert [c for c in calls if c[0] == "jacobian_rows"] == [("jacobian_rows", (1, dim))]
    if getattr(obj, "inverse", None) is not None:
        calls.clear()
        obj.inverse_point(obj(x))
        assert calls == [("rows", (1, dim)), ("inverse_rows", (1, obj.target_dim))]


def _square(x):
    return x ** 2


def _square_jacobian(x):
    return 2.0 * x[..., :, None] * np.eye(x.shape[-1])


def _dtype_cases():
    """Maps and fields whose values and Jacobians depend on the point."""
    field = VectorField(_square, 2, jacobian_func=_square_jacobian, batched=True)
    return {
        "map": ChartMap(_square, 2, 2, jacobian_func=_square_jacobian, batched=True),
        "fd-map": ChartMap(_square, 2, 2, batched=True),
        "per-point-map": ChartMap(_square, 2, 2, jacobian_func=_square_jacobian),
        "field": field,
        "rk4-flow": field.flow(0.1, 2),
    }


@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
@pytest.mark.parametrize("x, dtype", [
    ([[0.5, 1.0], [2.0, -1.0]], np.float64),
    (np.array([[1, 2], [3, -1]]), np.float64),
    (np.array([[0.5, 1.0]], dtype=np.float32), np.float64),
    (np.array([[0.5 + 1e-30j, 1.0]]), np.complex128),
    (np.array([[0.5 + 1j, 1.0]], dtype=np.complex64), np.complex128),
], ids=["list", "int", "float32", "complex128", "complex64"])
@pytest.mark.parametrize("name", sorted(_dtype_cases()))
def test_rows_are_at_least_float64_and_keep_a_complex_dtype(name, x, dtype):
    obj = _dtype_cases()[name]
    values, jac = obj.rows(x), obj.jacobian_rows(x)
    assert (values.dtype, jac.dtype) == (dtype, dtype)
    rows = np.asarray(x).astype(dtype)
    assert np.array_equal(values, obj.rows(rows))
    if dtype is np.complex128 and name != "rk4-flow":
        # the imaginary part is carried, not dropped: Im (x + ih)^2 = 2 x h
        assert np.array_equal(values.imag, 2.0 * rows.real * rows.imag)


def test_row_values_are_at_least_float64():
    for out in (np.float32, np.int64, bool):
        phi = ChartMap(lambda x: np.ones(x.shape, out), 2, 2, batched=True)
        assert phi.rows([[1, 2]]).dtype == np.float64
        assert phi.jacobian_rows(np.array([[1.0, 2.0]], np.float32)).dtype == np.float64


def test_bracket_matches_per_point_formula():
    rng = np.random.default_rng(25)
    X, Y = _trig_field(3, rng), affine_field(rng.uniform(-1, 1, (3, 3)))
    x, _ = points(3, seed=26)
    want = [Y.jacobian(p) @ X(p) - X.jacobian(p) @ Y(p) for p in x]
    assert_rows_match(X.bracket(Y).rows(x), want)


def test_nodal_field_rows_and_off_grid_row():
    dom = torus2(8)
    Z = exact_divfree_field(dom, cat.random_stream(dom, np.random.default_rng(27)))
    field = nodal_vector_field(dom, Z)
    order = np.random.default_rng(28).permutation(dom.n_nodes)
    assert np.array_equal(field.rows(dom.nodes[order]), Z[order])
    assert_rows_match(field.rows(dom.nodes[order]), [field(s) for s in dom.nodes[order]])
    off = dom.nodes[order].copy()
    off[3] += 0.05
    with pytest.raises(KeyError):
        field.rows(off)


def rk4_flow_loop(X, t, steps, x0):
    """The RK4 flow of one point with single-point field calls."""
    h, x = t / steps, np.array(x0, dtype=float)
    for _ in range(steps):
        k1 = X(x)
        k2 = X(x + 0.5 * h * k1)
        k3 = X(x + 0.5 * h * k2)
        k4 = X(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


@pytest.mark.parametrize("batched", [True, False], ids=["batched-field", "per-point-field"])
def test_rk4_flow_matches_row_by_row(batched):
    rng = np.random.default_rng(29)
    X = me.canonical_r2().pair("sin_x").field if batched else _trig_field(2, rng)
    flow = _rk4_flow(X, 0.7, 24)
    assert flow.batched and callable(flow.forward)
    x, _ = points(2, seed=30)
    assert_rows_match(flow.rows(x), [flow(xi) for xi in x])
    assert_rows_match(flow.rows(x), [rk4_flow_loop(X, 0.7, 24, xi) for xi in x])


@pytest.mark.parametrize("kind", ["batched", "per-point", "per-point-no-jacobian"])
def test_rk4_flow_jacobian_matches_central_differences(kind):
    rng = np.random.default_rng(32)
    X = me.canonical_r2().pair("sin_x").field if kind == "batched" else _trig_field(3, rng)
    if kind == "per-point-no-jacobian":
        X = field_from_callable(X.func, X.dim, name="trig-no-jacobian")
    flow = _rk4_flow(X, 0.6, 16)
    x, _ = points(X.dim, seed=33)
    # differences of the flow at 1e-5 are good to about 1e-10; a field without
    # an analytic Jacobian is itself differenced at 1e-4, about 1e-9
    fd = _fd_jacobian_rows(flow.rows, x, 1e-5)
    assert np.max(np.abs(flow.jacobian_rows(x) - fd)) < 1e-8


def test_rk4_flow_jacobian_of_linear_field_is_the_rk4_matrix_power():
    rng = np.random.default_rng(34)
    A = rng.uniform(-1.0, 1.0, (3, 3))
    t, steps = 0.8, 12
    hA = (t / steps) * A
    step = np.eye(3) + hA + hA @ hA / 2 + hA @ hA @ hA / 6 + hA @ hA @ hA @ hA / 24
    want = np.linalg.matrix_power(step, steps)
    x, _ = points(3, seed=35)
    got = _rk4_flow(affine_field(A), t, steps).jacobian_rows(x)
    assert np.max(np.abs(got - want)) < 1e-13


def test_pullback_by_rk4_flow_calls_forward_and_jacobian_once():
    # the one-pass value and Jacobian that flow maps carried as a second
    # route, kept here as the reference: one stepping loop of (x, J)
    rng = np.random.default_rng(37)
    X, t, steps = _trig_field(3, rng), 0.4, 6
    x, (v, w, *_) = points(3, seed=38)
    eye = np.broadcast_to(np.eye(3), x.shape + (3,))
    value, jac = _rk4_steps(X, t / steps, steps, x, eye)

    flow, calls = X.flow(t, steps), {"forward": [], "jacobian": []}

    def recorded(key, func):
        def wrapped(p):
            calls[key].append(func(p))
            return calls[key][-1]
        return wrapped

    counted = replace(flow, forward=recorded("forward", flow.forward),
                      jacobian_func=recorded("jacobian", flow.jacobian_func))
    a = cat.random_form(3, 2, rng)
    got = pullback(a, counted).evaluator(x, [v, w])
    assert [len(c) for c in calls.values()] == [1, 1]
    assert np.array_equal(calls["forward"][0], value)
    assert np.array_equal(calls["jacobian"][0], jac)
    moved = [np.einsum("nij,nj->ni", jac, u) for u in (v, w)]
    assert np.array_equal(got, a.evaluator(value, moved))


def test_lie_derivative_flow_matches_closed_form():
    rng = np.random.default_rng(36)
    coeffs = [cat.random_scalar(3, rng, integer_modes=False) for _ in range(3)]
    a = coefficient_form(3, 1, {(j,): c for j, c in enumerate(coeffs)}, name="a")
    X = _trig_field(3, rng)
    x, (v, *_) = points(3, seed=37)
    # (L_X a)(v) = (grad a_j . X) v_j + a_j (DX v)_j
    Xv, DX = X.rows(x), X.jacobian_rows(x)
    grads = np.stack([c.grad(x) for c in coeffs], axis=1)
    vals = np.column_stack([c.value(x) for c in coeffs])
    want = (np.einsum("njk,nk,nj->n", grads, Xv, v)
            + np.einsum("nj,njk,nk->n", vals, DX, v))
    got = lie_derivative_flow(a, X).evaluator(x, [v])
    # the complex step subtracts nothing: the route is exact to roundoff
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_lie_derivative_flow_calls_field_and_jacobian_once():
    rng = np.random.default_rng(38)
    X = _trig_field(3, rng)
    calls = {"func": 0, "jacobian": 0}

    def counted(key, func):
        def wrapped(p):
            calls[key] += 1
            return func(p)
        return wrapped

    Xc = field_from_callable(counted("func", X.func), 3,
                             jacobian=counted("jacobian", X.jacobian_func), name="counted")
    a = cat.random_form(3, 1, rng)
    x, (v, *_) = points(3, seed=39)
    lie_derivative_flow(a, Xc)(x[0], v[0])
    # X and DX at the one real point; the complex step needs no further stage
    assert calls == {"func": 1, "jacobian": 1}
    # a batched field gets one call each for all rows
    calls.update(func=0, jacobian=0)
    rows = lambda key, func: counted(key, lambda p: np.array([func(q) for q in p]))  # noqa: E731
    Xb = VectorField(rows("func", X.func), 3, jacobian_func=rows("jacobian", X.jacobian_func),
                     name="counted-batched", batched=True)
    got = lie_derivative_flow(a, Xb).evaluator(x, [v])
    assert calls == {"func": 1, "jacobian": 1}
    assert np.array_equal(got, lie_derivative_flow(a, X).evaluator(x, [v]))


def test_lie_derivative_flow_matches_a_64_step_route():
    # the real route: central difference of 64-step RK4 pull-backs at +-t
    rng = np.random.default_rng(40)
    a = cat.random_form(3, 2, rng)
    X = _trig_field(3, rng)
    t = 1e-5
    fwd, bwd = pullback(a, X.flow(t, 64)), pullback(a, X.flow(-t, 64))
    x, (v, w, *_) = points(3, seed=41)
    want = (fwd.evaluator(x, [v, w]) - bwd.evaluator(x, [v, w])) / (2.0 * t)
    got = lie_derivative_flow(a, X).evaluator(x, [v, w])
    assert np.max(np.abs(got - want)) < 1e-9


def test_lie_derivative_flow_of_a_constant_is_zero():
    X = _trig_field(3, np.random.default_rng(43))
    x, _ = points(3, seed=44)
    got = lie_derivative_flow(constant_form(3, 0.7), X).evaluator(x, [])
    assert np.array_equal(got, np.zeros(N))


@pytest.mark.parametrize("j", [0, 1, 2])
def test_lie_derivative_flow_of_a_coordinate_is_the_field_component(j):
    X = _trig_field(3, np.random.default_rng(45))
    x, _ = points(3, seed=46)
    xj = coefficient_form(3, 0, {(): scalar_coordinate(j, 3)}, name=f"x{j}")
    got = lie_derivative_flow(xj, X).evaluator(x, [])
    # Im(x_j + ih X_j) / h: one rounding in the product by h, one in the quotient
    assert np.max(np.abs(got - X.rows(x)[:, j])) <= 4e-16 * np.max(np.abs(X.rows(x)[:, j]))


@pytest.mark.parametrize("steps", [0, -3, 2.5, True, "4"])
@pytest.mark.parametrize("affine", [False, True], ids=["rk4", "affine"])
def test_flow_rejects_bad_steps(steps, affine):
    X = affine_field(np.eye(2)) if affine else _trig_field(2, np.random.default_rng(42))
    with pytest.raises(ValueError, match="steps"):
        X.flow(0.5, steps)


def fd_jacobian_loop(func, x, step):
    """Central-difference Jacobian of a single-point func, column by column."""
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        cols.append((np.asarray(func(x + e)) - np.asarray(func(x - e))) / (2.0 * step))
    return np.column_stack(cols)


def test_fd_jacobian_rows_matches_per_point():
    def func(p):
        return np.array([np.sin(p[0]) * p[1], p[0] ** 2 - np.cos(p[2]), p[1] * p[2]])

    def func_rows(x):
        return np.column_stack([np.sin(x[:, 0]) * x[:, 1], x[:, 0] ** 2 - np.cos(x[:, 2]),
                                x[:, 1] * x[:, 2]])

    x, _ = points(3, seed=31)
    h = DEFAULT_FD_STEP
    want = [fd_jacobian_loop(func, xi, h) for xi in x]
    assert_rows_match(_fd_jacobian_rows(func_rows, x, h), want, RTOL / h)
    calls = []
    _fd_jacobian_rows(lambda y: calls.append(len(y)) or func_rows(y), x, h)
    assert calls == [2 * 3 * N]


# ---------------------------------------------------------------------------
# one evaluator call per chart-level sum: wedge shuffle terms and
# central-difference shifts, against the per-term loops kept as references

def counted(form, calls):
    """The form with every evaluator call recorded as its row count."""
    def ev(x, vs):
        calls.append(len(x))
        return form.evaluator(x, vs)
    return Form(form.degree, form.ambient_dim, ev, name=form.name)


def wedge_loop(a, b, x, vs):
    """The signed shuffle sum term by term: each factor is called once per
    shuffle term on the same points."""
    return sum((sign * a.evaluator(x, [vs[i] for i in left])
                * b.evaluator(x, [vs[i] for i in right])
                for left, right, sign in shuffles(a.degree, b.degree)), np.zeros(len(x)))


def directional_loop(func, x, v, step):
    """One central difference of func along v, one call per shifted copy."""
    return (func(x + step * v) - func(x - step * v)) / (2.0 * step)


def d_loop(a, x, vs, step):
    """The coordinate formula for d direction by direction."""
    total = np.zeros(len(x))
    for i in range(a.degree + 1):
        rest = list(vs[:i]) + list(vs[i + 1:])
        total += (-1.0) ** i * directional_loop(
            lambda y: a.evaluator(y, rest), x, vs[i], step)
    return total


@pytest.mark.parametrize("p, q", [(p, q) for p in range(6) for q in range(6 - p)])
def test_wedge_calls_each_factor_once(p, q):
    rng = np.random.default_rng(50 + 6 * p + q)
    a, b = cat.random_form(5, p, rng), cat.random_form(5, q, rng)
    x, vs = points(5, seed=51)
    calls_a, calls_b = [], []
    got = wedge(counted(a, calls_a), counted(b, calls_b)).evaluator(x, vs[:p + q])
    n_terms = len(shuffles(p, q))
    assert (calls_a, calls_b) == ([n_terms * N], [n_terms * N])
    ref_a, ref_b = [], []
    want = wedge_loop(counted(a, ref_a), counted(b, ref_b), x, vs[:p + q])
    assert (len(ref_a), len(ref_b)) == (n_terms, n_terms)
    assert_rows_match(got, want)


# The one-call tests of d and of L_X on a function keep the ids they had when
# they also ran Richardson extrapolation ("False" named that axis), so their
# history continues.
@pytest.mark.parametrize("p", [0, 1, 2, 3], ids=lambda p: f"{p}-False")
def test_fd_exterior_derivative_makes_one_call(p):
    rng = np.random.default_rng(60 + p)
    a = strip_analytic(cat.random_form(4, p, rng))
    x, vs = points(4, seed=61)
    h = DEFAULT_FD_STEP
    calls, ref = [], []
    got = exterior_derivative(counted(a, calls), h).evaluator(x, vs[:p + 1])
    assert calls == [2 * (p + 1) * N]
    want = d_loop(counted(a, ref), x, vs[:p + 1], h)
    assert len(ref) == 2 * (p + 1)
    assert_rows_match(got, want, RTOL / h)


@pytest.mark.parametrize("h", [DEFAULT_FD_STEP], ids=["False"])
def test_lie_derivative_of_a_function_makes_one_call(h):
    rng = np.random.default_rng(62)
    g = cat.random_form(3, 0, rng)
    X = affine_field(rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, 3))
    x, _ = points(3, seed=63)
    calls, ref = [], []
    got = lie_derivative(counted(g, calls), X, h).evaluator(x, [])
    assert calls == [2 * N]
    gc = counted(g, ref)
    want = directional_loop(lambda y: gc.evaluator(y, []), x, X.rows(x), h)
    assert len(ref) == 2
    assert_rows_match(got, want, RTOL / h)


def perm_sign(perm):
    """Sign of a permutation as the determinant of its permutation matrix."""
    return int(round(np.linalg.det(np.eye(len(perm))[list(perm)])))


@pytest.mark.parametrize("p, q", [(p, q) for p in range(5) for q in range(5 - p)])
def test_shuffles_are_built_once_and_match_a_permutation_reference(p, q):
    assert shuffles(p, q) is shuffles(p, q)
    want = [(perm[:p], perm[p:], perm_sign(perm))
            for perm in itertools.permutations(range(p + q))
            if list(perm[:p]) == sorted(perm[:p]) and list(perm[p:]) == sorted(perm[p:])]
    assert list(shuffles(p, q)) == want


def _step_constructors():
    W = hat_pairing(volume_form(2), 1.0, circle(16))
    a = strip_analytic(coordinate_form((0,), 2))
    X = constant_field(np.array([0.5, -0.2]))
    return {
        "exterior_derivative": lambda h: exterior_derivative(a, h),
        "lie_derivative": lambda h: lie_derivative(a, X, h),
        "map_space_d": lambda h: map_space_d(W, h),
        "map_space_lie": lambda h: map_space_lie(W, lambda g: generator_M(X, g), h),
    }


@pytest.mark.parametrize("step", [0, -1e-4, np.inf, np.nan, True, "1e-4", None])
@pytest.mark.parametrize("name", sorted(_step_constructors()))
def test_difference_constructors_reject_bad_steps(name, step):
    with pytest.raises(ValueError, match="step must be a finite positive number"):
        _step_constructors()[name](step)


def test_per_point_chart_map_through_pullback_and_actions():
    # built the way a caller writes a map from single-point lambdas
    h = trig_scalar(2, [[1.0, -2.0], [0.5, 1.0]], [0.7, -0.4], [0.3, 1.1])
    phi = ChartMap(lambda u: np.array([u[0], u[1], h.value(u[None])[0]]), 2, 3,
                   jacobian_func=lambda u: np.vstack([np.eye(2), h.grad(u[None])]),
                   name="graph")
    assert not phi.batched
    a = cat.random_form(3, 2, np.random.default_rng(32))
    z, vs = points(2, seed=33)
    want = [a(phi(zi), phi.jacobian(zi) @ v0, phi.jacobian(zi) @ v1)
            for zi, v0, v1 in zip(z, vs[0], vs[1])]
    assert_rows_match(pullback(a, phi).evaluator(z, vs[:2]), want)

    dom = torus2(8)
    f = cat.random_map(dom, 2, np.random.default_rng(34), amp=0.5)
    shift = np.array([0.4, -1.1])
    per_point = ChartMap(lambda s: s + shift, 2, 2, jacobian_func=lambda s: np.eye(2),
                         inverse=lambda s: s - shift, name="shift")
    moved = pullback_action(per_point, f).values
    assert np.array_equal(moved, pullback_action(cat.rigid_shift_2d(*shift), f).values)
    pushed = pushforward_action(phi, f)
    assert np.array_equal(pushed.values, np.array([phi(v) for v in f.values]))


def test_generators_and_push_forward_match_node_loops():
    dom = circle(16)
    rng = np.random.default_rng(35)
    f = cat.random_map(dom, 3, rng, amp=0.8)
    X = cat.random_affine_field(3, rng)
    Y = cat.random_tangent(f, rng)
    phi = rotation3([0.2, 0.5, 1.0], 0.9)
    assert_rows_match(generator_M(X, f).vectors, [X(v) for v in f.values])
    assert_rows_match(pushforward_tangent(phi, Y).vectors,
                      [phi.jacobian(v) @ y for v, y in zip(f.values, Y.vectors)])
    Z = VectorField(lambda s: np.array([np.sin(s[0]) + 0.5]), 1)
    Tf = f.jacobian()
    assert_rows_match(generator_S(Z, f).vectors,
                      [-Tf[i] @ Z(dom.nodes[i]) for i in range(dom.n_nodes)])


def hamiltonian_of_loop(sys, X, x, quad_points=24):
    """Line integration of the field point by point, with single-point
    calls of the field and the form."""
    nodes, weights = np.polynomial.legendre.leggauss(quad_points)
    x0 = sys.base_point
    out = []
    for xi in x:
        seg = xi - x0
        out.append(sum(0.5 * wq * sys.omega(x0 + 0.5 * (tq + 1.0) * seg,
                                            X(x0 + 0.5 * (tq + 1.0) * seg), seg)
                       for tq, wq in zip(nodes, weights)))
    return np.array(out)


def test_bracket_hamiltonian_matches_row_by_row_reference():
    sys = me.canonical_r2()
    dom = circle(48)
    f = cat.random_map(dom, 2, np.random.default_rng(36), amp=0.8)
    X, Y = sys.pair("xy").field, sys.pair("sin_x").field

    def opposite(p):
        # the Jacobi-Lie bracket with single-point calls, negated
        return -(Y.jacobian(p) @ X(p) - X.jacobian(p) @ Y(p))

    got = me.hamiltonian_of(sys, me.opposite_bracket(X, Y))(f.values)
    assert_rows_match(got, hamiltonian_of_loop(sys, opposite, f.values))


def test_lichnerowicz_on_nodal_fields_matches_node_loop():
    dom = torus2(8)
    rng = np.random.default_rng(37)
    Z1, Z2 = (exact_divfree_field(dom, cat.random_stream(dom, rng)) for _ in range(2))
    eta = cat.random_form(2, 2, rng, integer_modes=True)
    nu = volume_form(2, 1.0 / dom.volume)
    e = np.eye(2)
    loop = sum(dom.signed_weights[i] * eta(dom.nodes[i], Z1[i], Z2[i]) * nu(dom.nodes[i], *e)
               for i in range(dom.n_nodes))
    got = me.lichnerowicz(dom, eta, nodal_vector_field(dom, Z1), nodal_vector_field(dom, Z2), nu)
    assert got == pytest.approx(loop, rel=RTOL, abs=RTOL)
