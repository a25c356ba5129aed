"""The record builder of the identity suites, the marking of its gates, the
worst-case reduction of a record's cases, and oracle mutants: a flipped
flow route of the Lie derivative, and NaN cases that no finite case may
outvote."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from mapforms import mechanics as me
from mapforms import suites
from mapforms.charts import DEFAULT_FD_STEP, VectorField, worst
from mapforms.cli import main
from mapforms.domains import circle
from mapforms.report import TestRecord, fit_order
from mapforms.suites import (ORDER_STEPS, SUITES, SuiteConfig, _Records, run_cocycles,
                             run_hat_calculus, run_suite)


@pytest.mark.parametrize("trial_keys, ladder_key, calls", [
    ([(5,)], (5,), 1),                          # action-lie-M and action-lie-S
    ([(2, i) for i in range(3)], (3,), 4),      # the derivation-* ladders
    ([(2, 0), (2, 0)], (2, 0), 1),
])
def test_ladder_draws_each_distinct_key_once(trial_keys, ladder_key, calls):
    drawn = []

    def residual(rng):
        drawn.append(rng)
        c = rng.uniform(1.0, 2.0)
        return lambda h: 1e-3 * c + c * h ** 2

    records = _Records(SuiteConfig(seed=3))
    records.ladder("probe", "probe", circle(32), residual, trial_keys, ladder_key)
    assert len(drawn) == calls
    (rec,) = records
    # the worst trial residual, and the order of |r(h) - r(2e-5)| = c (h^2 - 4e-10)
    cs = {key: np.random.default_rng([3, *key]).uniform(1.0, 2.0) for key in trial_keys}
    assert rec.residual == worst(1e-3 * c + c * DEFAULT_FD_STEP ** 2 for c in cs.values())
    assert rec.order == pytest.approx(2.0, abs=1e-3)


def test_flipped_flow_sign_breaks_the_dual_route_record(monkeypatch):
    # the Cartan route of lie-dual-route-M must disagree with a flow route
    # that runs the push-forward flow backwards: the gap is then O(1)
    config = SuiteConfig(seed=3)
    before = {r.test_id: r for r in run_hat_calculus(config)}
    assert before["lie-dual-route-M"].residual < 1e-8
    real = VectorField.flow
    monkeypatch.setattr(VectorField, "flow", lambda X, t, steps=64: real(X, -t, steps))
    after = {r.test_id: r for r in run_hat_calculus(config)}
    assert after["lie-dual-route-M"].residual > 0.1
    assert not after["lie-dual-route-M"].passed
    # the flipped flow reaches no other record of the suite
    assert [k for k in before if before[k] != after[k]] == ["lie-dual-route-M"]


def test_gates_are_marked_and_name_their_threshold():
    # a 0/1 gate reads 0.0 whatever its margin, so its detail marks it as a
    # gate, and no record promises an O(1) defect that the gate does not test
    records = [r for name in SUITES for r in run_suite(name, SuiteConfig(seed=3))]
    assert [r.test_id for r in records if r.detail.startswith("gate: ")] == [
        "fiber-rule-boundary-sign-n1", "fiber-rule-boundary-sign-n2", "boundary-witness",
        "brane-r4-inconsistent", "brane-tangency-gate"]
    assert not [r.test_id for r in records if "O(1)" in r.statement + r.detail]


@pytest.mark.parametrize("values, expected", [
    ([0.5, 2.0, 1.0], 2.0),
    ([0.5, np.array([3.0, 1.0]), 1.0], 3.0),
    ([np.nan, 2.0, 1.0], math.nan),
    ([0.5, np.nan, 1.0], math.nan),
    ([0.5, 1.0, np.array([0.0, np.nan])], math.nan),
    ([0.5, np.inf, 1.0], math.inf),
    ([np.inf, np.nan], math.nan),
])
def test_worst_is_the_maximum_and_a_non_finite_case_is_worst(values, expected):
    got = worst(iter(values))
    assert type(got) is float
    assert got == expected or (math.isnan(expected) and math.isnan(got))


def test_fit_order_fails_on_a_non_finite_residual():
    steps = np.array(ORDER_STEPS)
    assert fit_order(steps, steps ** 2) == (pytest.approx(2.0), "")
    for bad in (np.nan, np.inf):
        residuals = steps ** 2
        residuals[1] = bad
        order, note = fit_order(steps, residuals)
        assert math.isnan(order) and note == "non-finite"

    # a NaN at one step of the ladder draw fails the record, though every
    # trial residual is within tolerance
    def residual(rng):
        c = rng.uniform(1.0, 2.0)
        return lambda h: math.nan if h == ORDER_STEPS[1] else 1e-8 * c + c * h ** 2

    records = _Records(SuiteConfig(seed=3))
    records.ladder("probe", "probe", circle(32), residual, [(1,)], (2,))
    (rec,) = records
    assert rec.residual < 1e-5 and math.isnan(rec.order) and not rec.passed


def _nan_on_second_call(func, nan):
    """func, except that its second call returns `nan`."""
    calls = []

    def wrapped(*args):
        calls.append(args)
        return nan if len(calls) == 2 else func(*args)

    return wrapped


def test_nan_on_a_derivation_trial_fails_the_record_and_verify(monkeypatch):
    config = SuiteConfig(seed=3)
    before = {r.test_id: r for r in run_hat_calculus(config)}
    real = suites.derivation_residual
    # each derivation ladder draws its three trials, then its ladder case:
    # NaN on the second trial draw of every ladder
    per_record = {}

    def second_trial_nan(dom, m, p, q, rng):
        key = (dom.kind, p, q)
        per_record.setdefault(key, _nan_on_second_call(real, lambda h: math.nan))
        return per_record[key](dom, m, p, q, rng)

    monkeypatch.setattr(suites, "derivation_residual", second_trial_nan)
    after = {r.test_id: r for r in run_hat_calculus(config)}
    changed = [k for k in before if before[k] != after[k]]
    assert changed == [f"derivation-{kind}-p{p}q{q}" for kind, _, p, q in suites.DERIVATION_CASES]
    for test_id in changed:
        assert math.isnan(after[test_id].residual) and not after[test_id].passed
        assert after[test_id].order == before[test_id].order
    per_record.clear()
    assert main(["verify", "--suite", "hat-calculus", "--seed", "3"]) == 1


def test_nan_on_a_map_fails_the_diffex_dual_route(monkeypatch):
    config = SuiteConfig(seed=3)
    before = {r.test_id: r for r in run_cocycles(config)}
    real = me.cocycle_diffex
    monkeypatch.setattr(me, "cocycle_diffex",
                        lambda *args: _nan_on_second_call(real(*args), math.nan))
    after = {r.test_id: r for r in run_cocycles(config)}
    assert [k for k in before if before[k] != after[k]] == ["cocycle-diffex-dual-route"]
    assert math.isnan(after["cocycle-diffex-dual-route"].residual)
    assert not after["cocycle-diffex-dual-route"].passed


def _sweep_module():
    path = Path(__file__).resolve().parent.parent / "scripts" / "sweep.py"
    spec = importlib.util.spec_from_file_location("sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_reports_a_non_finite_ratio_as_worst_and_exits_1(monkeypatch, capsys):
    sweep = _sweep_module()
    residuals = {0: 1e-7, 1: math.nan, 2: 5e-7}

    def run(name, config):
        r = residuals[config.seed]
        return [TestRecord(test_id="probe", statement="probe", residual=r, tolerance=1e-6,
                           passed=r < 1e-6, seed=config.seed, mesh={})]

    monkeypatch.setattr(sweep, "SEEDS", range(3))
    monkeypatch.setattr(sweep, "SUITES", {"probe": run})
    monkeypatch.setattr(sweep, "run_suite", run)
    assert sweep.main() == 1
    out, err = capsys.readouterr()
    assert [line.split() for line in out.splitlines() if line.startswith("probe")] == [
        ["probe", "nan", "1"]]
    assert "  seed 1: probe" in out
    assert "non-finite residual: probe at seed 1" in err

    residuals[1] = 2e-7
    assert sweep.main() == 0
    out, _ = capsys.readouterr()
    assert ["probe", "5.000e-01", "2"] in [line.split() for line in out.splitlines()]
