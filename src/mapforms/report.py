"""Structured verification records and deterministic report output.

Every record names the identity it checks (as a formula string), the
measured residual against its tolerance, the observed refinement order where
one is measurable, and the seed and mesh that produced it.  Reports are
plain JSON/CSV with stable key order, so identical configuration and seed
give byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

# ladders sitting entirely below this are roundoff, not a convergence signal
RESIDUAL_FLOOR = 1e-9

CONVENTIONS = {
    "interior_product": "tangent arguments fill the leading form slots in listed order",
    "fiber_integration": "insertion slots precede the source frame in the integrand",
    "hamiltonian_field": "i_{X_h} omega = dh",
    "cocycle_bracket": "opposite of the Jacobi-Lie bracket of the generators",
    "interval_boundary_signs": "-1 at 0, +1 at 1 (outward)",
    "potential_gauge": "zero-mean right inverse of d on the torus",
}


@dataclass
class TestRecord:
    __test__ = False  # not a pytest class

    test_id: str
    statement: str
    residual: float
    tolerance: float
    passed: bool
    seed: int
    mesh: dict
    order: Optional[float] = None
    order_target: Optional[float] = None
    order_note: str = ""
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = ""
        if self.order is not None:
            extra = f"  order={self.order:.2f}"
        elif self.order_note:
            extra = f"  order={self.order_note}"
        return (f"[{status}] {self.test_id}: residual {self.residual:.3e} "
                f"(tol {self.tolerance:.1e}){extra}  :: {self.statement}")


@dataclass
class VerificationReport:
    suite: str
    records: list
    environment: dict

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "environment": self.environment,
            "records": [asdict(r) for r in self.records],
        }

    def to_json(self) -> str:
        return json_text(self.to_dict())

    def to_csv(self) -> str:
        fields = ["test_id", "statement", "residual", "tolerance", "passed",
                  "order", "order_target", "order_note", "seed", "mesh", "detail"]
        rows = [fields]
        for r in self.records:
            d = asdict(r)
            d["mesh"] = json.dumps(d["mesh"], sort_keys=True)
            rows.append([d[k] for k in fields])
        return csv_text(rows)


def json_text(obj) -> str:
    """`obj` as JSON with sorted keys, a two-space indent and a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def csv_text(rows) -> str:
    """`rows` as CSV lines ending in a bare newline."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def fit_order(steps, residuals):
    """Least-squares slope of log(residual) vs log(step).

    Returns (order, note): the order is None with note "floor" when every
    residual sits below RESIDUAL_FLOOR (spectral tests), None with note
    "n/a" when fewer than two levels are available, and NaN (which fails
    any order target) with note "non-finite" when a residual is not finite.
    """
    steps = np.asarray(steps, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    if steps.size < 2:
        return None, "n/a"
    if not np.all(np.isfinite(residuals)):
        return float("nan"), "non-finite"
    if np.all(residuals < RESIDUAL_FLOOR):
        return None, "floor"
    keep = residuals > 0
    if keep.sum() < 2:
        return None, "floor"
    slope = np.polyfit(np.log(steps[keep]), np.log(residuals[keep]), 1)[0]
    return float(slope), ""
