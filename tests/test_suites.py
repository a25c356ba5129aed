"""The record builder of the identity suites, and an oracle mutant of the
flow route of the Lie derivative."""

import numpy as np
import pytest

from mapforms.charts import DEFAULT_FD_STEP, VectorField
from mapforms.domains import circle
from mapforms.suites import SuiteConfig, _Records, run_hat_calculus


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
    assert rec.residual == max(1e-3 * c + c * DEFAULT_FD_STEP ** 2 for c in cs.values())
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
