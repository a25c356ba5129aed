"""Complex-step d through every suite: the map path keeps a complex input
complex (short and long axes, resampling, chart rows and RK4 flows), so a
d whose directional derivatives are Im W(f + ih Y)/h (Squire & Trapp, SIAM
Review, 1998) can stand in for the central differences of map_space_d in
every mapforms module, and all eight suites still pass.  A coercion that
drops the imaginary part raises a ComplexWarning, here an error."""

from dataclasses import replace

import numpy as np
import pytest

from mapforms import mapspace
from mapforms.mapspace import MapSpaceForm
from mapforms.suites import SUITES, SuiteConfig, run_suite
from test_conventions import _patch_everywhere

COMPLEX_STEP = 1e-30
N_RECORDS = 73


def complex_step_map_space_d(W: MapSpaceForm, step=None) -> MapSpaceForm:
    """dW(Y_0..Y_n)(f) = sum_i (-1)^i Im W(f + ih Y_i; ..ŷ_i..)/h at
    h = COMPLEX_STEP, whatever FD step is asked for: no difference is
    taken, so no digit cancels and the result does not depend on the step."""

    def ev(F, tangents):
        total = np.zeros(F.size)
        for i, Y in enumerate(tangents):
            moved = replace(F, values=F.values + 1j * COMPLEX_STEP * Y)
            rest = tuple(tangents[:i]) + tuple(tangents[i + 1:])
            total = total + (-1) ** i * W.evaluator(moved, rest).imag / COMPLEX_STEP
        return total

    return MapSpaceForm(W.degree + 1, ev, tag=f"d({W.tag})")


@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
@pytest.mark.parametrize("seed", range(5))
def test_every_suite_passes_with_complex_step_d(monkeypatch, seed):
    _patch_everywhere(monkeypatch, mapspace, "map_space_d", complex_step_map_space_d)
    records = [r for name in SUITES for r in run_suite(name, SuiteConfig(seed=seed))]
    assert len(records) == N_RECORDS
    assert [r.test_id for r in records if not r.passed] == []
