"""Acceptance gate: one test per criterion, each printing a pass/fail line,
and a NaN mutant that criterion 1 must refuse.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import functools
import math
import sys
import time

import numpy as np
import pytest

from mapforms import catalog as cat
from mapforms.charts import worst
from mapforms.cli import main
from mapforms.domains import projection_P, right_inverse_b, torus2
from mapforms.suites import (ORDER_TARGET, SuiteConfig, run_boundary, run_branes,
                             run_cocycles, run_fiber_rules, run_hat_calculus,
                             run_momentum, run_tilda_calculus, two_route_sweep)

CONFIG = SuiteConfig(seed=7)


@functools.cache
def _records(run):
    """The records of one suite at CONFIG by id, run once per session."""
    return {r.test_id: r for r in run(CONFIG)}


def _criterion(number, label, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status}  {label}  [{detail}]")
    assert passed, f"criterion {number} failed: {detail}"


def _suite_detail(records):
    worst = max(records, key=lambda r: r.residual / max(r.tolerance, 1e-300))
    return (f"{sum(r.passed for r in records)}/{len(records)} checks, "
            f"worst residual {worst.residual:.2e} (tol {worst.tolerance:.1e}) "
            f"at {worst.test_id}")


def test_criterion_01_two_route_agreement():
    t0 = time.monotonic()
    rel = {}
    for kind in ("circle", "torus2", "interval"):
        rel[kind], dom = two_route_sweep(kind, 100, CONFIG)
        assert dom.n_nodes <= 256
    elapsed = time.monotonic() - t0
    top = worst(rel.values())
    ok = top < 1e-6 and elapsed < 60.0
    _criterion(1, "two-route pairing agreement, 100 cases per source",
               ok, f"worst rel {top:.2e}, {elapsed:.1f}s")


def test_a_nan_torus2_case_fails_criterion_01(monkeypatch, capsys):
    def sweep(kind, cases, config):
        return (math.nan if kind == "torus2" else 1e-9), torus2(16)

    monkeypatch.setattr(sys.modules[__name__], "two_route_sweep", sweep)
    with pytest.raises(AssertionError, match="criterion 1 failed: worst rel nan"):
        test_criterion_01_two_route_agreement()
    assert capsys.readouterr().out.startswith("ACCEPTANCE 1: FAIL")


def test_criterion_02_hat_calculus_suite():
    records = list(_records(run_hat_calculus).values())
    fd_records = [r for r in records if r.order is not None]
    ok = all(r.passed for r in records) and all(
        r.order >= ORDER_TARGET for r in fd_records)
    _criterion(2, "calculus identity suite with refinement orders",
               ok, _suite_detail(records) + f", {len(fd_records)} fitted orders")


def test_criterion_03_boundary_formula():
    records = run_boundary(CONFIG)
    witness = next(r for r in records if r.test_id == "boundary-witness")
    ok = all(r.passed for r in records)
    _criterion(3, "boundary correction term with sign sensitivity",
               ok, _suite_detail(records) + f"; witness: {witness.detail}")


def test_criterion_04_fiber_rules():
    records = run_fiber_rules(CONFIG)
    ok = all(r.passed for r in records)
    _criterion(4, "fiber integration rules incl. exact boundary sign",
               ok, _suite_detail(records))


def test_criterion_05_exact_closed_vanishing():
    rec = _records(run_hat_calculus)["exact-closed-vanishing"]
    _criterion(5, "exact-against-closed pairing vanishes on 20 loops",
               rec.passed, f"worst |value| {rec.residual:.2e}")


def test_criterion_06_loop_space_symplectic_values():
    rec = _records(run_tilda_calculus)
    value, horiz, closed = (rec[k] for k in (
        "mw-circle-value", "tilda-horizontality", "mw-closedness"))
    _criterion(6, "loop-space volume pairing: value, horizontality, closedness",
               value.passed and horiz.passed and closed.passed,
               f"value err {value.residual:.2e}, horiz {horiz.residual:.2e}, "
               f"closed {closed.residual:.2e}")


def test_criterion_07_momentum_and_cocycles():
    records = run_momentum(CONFIG) + run_cocycles(CONFIG)
    ok = all(r.passed for r in records)
    _criterion(7, "three hamiltonian identities and all cocycle properties",
               ok, _suite_detail(records))


def test_criterion_08_right_inverse_round_trip():
    dom = torus2(CONFIG.torus_side)
    rng = np.random.default_rng([CONFIG.seed, 202])
    round_trips, idempotency = [], []
    for _ in range(50):
        a0 = cat.random_stream(dom, rng, max_mode=3)
        beta = a0.d_components()
        alpha = right_inverse_b(dom, beta)
        round_trips.append(np.abs(alpha.d_components() - beta))
        P1 = projection_P(dom, a0.values + 1.7)
        P2 = projection_P(dom, P1)
        idempotency.append(np.abs(P2.values - P1.values))
    worst_rt, worst_P = worst(round_trips), worst(idempotency)
    ok = worst_rt < 1e-10 and worst_P < 1e-12
    _criterion(8, "spectral right-inverse round trip and idempotent projection",
               ok, f"round trip {worst_rt:.2e}, idempotency {worst_P:.2e}")


def test_criterion_09_brane_twist():
    records = run_branes(CONFIG)
    gate = next(r for r in records if r.test_id == "brane-r4-inconsistent")
    ok = all(r.passed for r in records)
    _criterion(9, "twist closedness on cataloged boundary data plus gates",
               ok, _suite_detail(records) + f"; {gate.detail[:54]}")


def test_criterion_10_deterministic_reports(tmp_path):
    blobs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        code = main(["verify", "--suite", "fiber-rules", "--suite", "branes",
                     "--seed", "13", "--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1]
    _criterion(10, "byte-identical reports for identical config and seed",
               ok, f"{len(blobs[0])} bytes compared")
