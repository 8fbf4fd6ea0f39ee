"""The benchmark's outside-in hooks must keep finding what they wrap.

perfbench/layertrace.py wraps rotorpair names by module and attribute
path; a refactor that renames one of them silently drops a layer from
the benchmark. This resolves every hook without installing a wrapper.
"""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.append(str(PERFBENCH))
layertrace = importlib.import_module("layertrace")


@pytest.mark.parametrize("layer, module, attr_path",
                         [hook[:3] for hook in layertrace.HOOKS],
                         ids=[hook[0] for hook in layertrace.HOOKS])
def test_every_hook_resolves(layer, module, attr_path):
    owner = importlib.import_module(module)
    for name in attr_path.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


def test_rk4_keeps_its_span_arguments_in_place():
    # the step counter reads (t0, t1, dt) from positional arguments 2-4
    from rotorpair.propagation import rk4_integrate

    names = list(inspect.signature(rk4_integrate).parameters)[:5]
    assert names == ["rhs", "y", "t0", "t1", "dt"]


def test_build_pieces_result_has_csr_h0_and_coupling():
    # the nnz counter adds result.h0.nnz and result.coupling's nnz
    from rotorpair.angular import TwoRotorBasis
    from rotorpair.runner import build_pieces

    pieces = build_pieces(TwoRotorBasis(2, 0), 0.1)
    assert pieces.h0.format == "csr" and pieces.coupling.format == "csr"
    assert layertrace._nnz((), {}, pieces)["nnz"] == pieces.h0.nnz + pieces.coupling.nnz


def test_rk4_step_counter_matches_the_derivatives_one_window_evaluates(monkeypatch):
    # one Lawson step evaluates deriv four times, so the per-layer step
    # count stays exact when a window is cut into step bands
    from rotorpair import propagation
    from rotorpair.angular import TwoRotorBasis
    from rotorpair.config import RunConfig
    from rotorpair.runner import build_pieces
    from rotorpair.units import to_reduced

    schedule, dipole, dt, _ = to_reduced(RunConfig())
    h0_s, coupling_s, energies_s = propagation.sector_operators(build_pieces(TwoRotorBasis(2, 0), dipole))
    rhs = propagation.schrodinger_rhs(h0_s, coupling_s, energies_s, schedule)
    evaluations = []
    counting = rhs._replace(deriv=lambda f, c: evaluations.append(f) or rhs.deriv(f, c))
    steps = []
    rk4_integrate = propagation.rk4_integrate

    def counted(*args):
        steps.append(layertrace._rk4_steps(args, {}, None)["steps"])
        return rk4_integrate(*args)

    monkeypatch.setattr(propagation, "rk4_integrate", counted)
    (t_a, t_b), = propagation.pulse_windows(schedule, propagation.WINDOW_HALFWIDTH, 10.0)
    c = np.zeros(h0_s.shape[0], dtype=complex)
    c[0] = 1.0
    for lo, hi in ((t_a, 0.5 * (t_a + t_b)), (0.5 * (t_a + t_b), t_b)):  # split at a sample
        c = propagation.integrate_window(counting, schedule, c, lo, hi, dt)
    assert len(steps) > 7
    assert sum(steps) == len(evaluations) / 4
