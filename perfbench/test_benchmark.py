"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_benchmark.py -q

The oracles can disagree: each oracle test first shows that the program
passes, then plants a sign flip or a swapped slot in the program's outputs
(or its arguments) and shows that the oracle reports it.  The last test
keeps the traced metrics and BENCHMARK.json in step.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import mapforms as mf  # noqa: E402
import point_calculus  # noqa: E402
import spectral  # noqa: E402
import two_route  # noqa: E402
import verify_suites  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def route():
    inputs = two_route.build(SEED)
    return inputs, two_route.run_item(inputs)


def test_two_route_reference_accepts_the_program(route):
    inputs, out = route
    assert two_route.check(inputs, out) == []


def test_two_route_sign_flip_fails(route):
    inputs, out = route
    for i, case in enumerate(inputs.cases):
        flipped = list(out)
        flipped[i] = (-out[i][0], -out[i][1])
        assert two_route.check(inputs, flipped), f"{case.kind} p={case.p} q={case.q}"


def test_two_route_swapped_slot_fails(route):
    inputs, out = route
    swapped = 0
    for i, case in enumerate(inputs.cases):
        omega, alpha, dom, f, ts = case.program
        if len(ts) < 2:
            continue
        args = [ts[1], ts[0], *ts[2:]]
        bad = list(out)
        bad[i] = (mf.hat_pairing(omega, alpha, dom)(f, *args),
                  mf.hat_pairing_fiber(omega, alpha, dom)(f, *args))
        assert two_route.check(inputs, bad), f"{case.kind} p={case.p} q={case.q}"
        swapped += 1
    assert swapped == 4


def test_two_route_interval_bound_is_truncation_not_roundoff(route):
    inputs, _ = route
    for case, (value, tol) in zip(inputs.cases, inputs.reference):
        if case.kind == "interval" and case.q == 0:
            assert 1e-12 < tol < 1e-6 * max(1.0, abs(value))


@pytest.fixture(scope="module")
def spec():
    inputs = spectral.build(SEED)
    return inputs, spectral.run_item(inputs)


def test_spectral_oracle_accepts_the_program(spec):
    assert spectral.check(*spec) == []


@pytest.mark.parametrize("index", range(5))
def test_spectral_sign_flip_fails(spec, index):
    inputs, out = spec
    bad = list(out)
    bad[index] = -np.asarray(out[index])
    assert spectral.check(inputs, bad)


def test_spectral_swapped_slots_fail(spec):
    inputs, out = spec
    jac, field = out[2], out[3]
    for index, swapped in ((2, jac[:, :, ::-1]), (3, field[:, ::-1])):
        bad = list(out)
        bad[index] = swapped
        assert spectral.check(inputs, bad)


def test_spectral_shift_direction_fails(spec):
    inputs, out = spec
    g = inputs.program[4]
    back = mf.ChartMap(lambda s: s - inputs.shift, 2, 2,
                       inverse=lambda s: s + inputs.shift)
    bad = list(out)
    bad[4] = mf.pullback_action(back, g).values
    assert spectral.check(inputs, bad)


@pytest.fixture(scope="module")
def points():
    inputs = point_calculus.build(SEED)
    return inputs, point_calculus.run_item(inputs)


def test_point_calculus_oracle_accepts_the_program(points):
    assert point_calculus.check(*points) == []


def test_gram_sign_flip_and_transpose_fail(points):
    inputs, (vals, G) = points
    assert point_calculus.check(inputs, (vals, -G))
    assert point_calculus.check(inputs, (vals, G.T))


@pytest.mark.parametrize("column", range(12))
def test_point_value_sign_flip_fails(points, column):
    inputs, (vals, G) = points
    bad = vals.copy()
    bad[:, column] *= -1.0
    assert point_calculus.check(inputs, (bad, G))


def test_point_swapped_slot_fails(points):
    inputs, (vals, G) = points
    a2 = inputs.program[1]
    bad = vals.copy()
    bad[:, 1] = [a2(inputs.x[j], inputs.v[1, j], inputs.v[0, j])
                 for j in range(point_calculus.POINTS)]
    assert point_calculus.check(inputs, (bad, G))


def _report(records, passed=True) -> bytes:
    return json.dumps({"passed": passed, "records": records}, sort_keys=True).encode()


@pytest.fixture
def verify_case(tmp_path):
    ids = (verify_suites.HERE / "expected_ids.txt").read_text().split()
    records = [{"test_id": i, "passed": True, "order": None, "order_target": None}
               for i in ids]
    records[0].update(order=2.0, order_target=1.9)
    inputs = verify_suites.Inputs(0, ids)

    def check(recs, passed=True, code=0):
        path = tmp_path / "report.json"
        path.write_bytes(_report(recs, passed))
        return verify_suites.check(inputs, (code, path))

    assert check(records) == []
    return records, check


def test_verify_failed_record_fails(verify_case):
    records, check = verify_case
    bad = [dict(r) for r in records]
    bad[3]["passed"] = False
    assert check(bad, passed=False)


def test_verify_missing_record_fails(verify_case):
    records, check = verify_case
    assert check(records[1:])


def test_verify_low_order_fails(verify_case):
    records, check = verify_case
    bad = [dict(r) for r in records]
    bad[0]["order"] = 0.98
    assert check(bad)


def test_verify_exit_code_and_changed_report_fail(verify_case):
    records, check = verify_case
    assert check(records, code=1)
    assert check(list(reversed(records)))


def test_traced_metrics_match_benchmark_json():
    import run
    import tracer
    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = {*tracer.layer_metrics(tracer.Tracer(), verify_suites.SUITE_IDS),
             "trace.overhead_pct", "setup.import_s", "setup.inputs_s"}
    assert names == {m["name"] for m in bench["per_layer"]}
    assert all(run.unit_of(m["name"]) == m["unit"] for m in bench["per_layer"])
