"""The benchmark's outside-in hooks must keep finding what they wrap.

perfbench/layertrace.py wraps rotorpair names by module and attribute
path; a refactor that renames one of them silently drops a layer from
the benchmark. This resolves every hook without installing a wrapper.
"""

import importlib
import inspect
import subprocess
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

    pieces = build_pieces(TwoRotorBasis(2), 0.1)
    assert pieces.h0.format == "csr" and pieces.coupling.format == "csr"
    assert layertrace._nnz((), {}, pieces)["nnz"] == pieces.h0.nnz + pieces.coupling.nnz


def test_rk4_step_counter_matches_the_steps_a_run_takes(monkeypatch):
    # each main step and each side step, one per sample before its call's last step end,
    # takes the field at its ten nodes in one call; the counter reads the main steps off (t0, t1, dt)
    import dataclasses

    from rotorpair import propagation
    from rotorpair.angular import TwoRotorBasis
    from rotorpair.config import RunConfig
    from rotorpair.runner import build_pieces
    from rotorpair.units import to_reduced

    schedule, dipole, dt, _ = to_reduced(RunConfig())
    train = dataclasses.replace(schedule, period_red=0.3, count=3)
    taken, steps, sides, calls = [], [], [], []
    schrodinger_rhs, rk4_integrate = propagation.schrodinger_rhs, propagation.rk4_integrate

    def counting_rhs(*args):
        rhs = schrodinger_rhs(*args)
        rhs.field = lambda t, field=rhs.field: taken.append(t.shape) or field(t)
        return rhs

    def counted(*args):
        steps.append(layertrace._rk4_steps(args, {}, None)["steps"])
        sides.append(len(args[5]))
        calls.append((args, rk4_integrate(*args)))
        return calls[-1][1]

    monkeypatch.setattr(propagation, "schrodinger_rhs", counting_rhs)
    monkeypatch.setattr(propagation, "rk4_integrate", counted)
    pieces = build_pieces(TwoRotorBasis(2), dipole)
    a, b, h = next((a, b, h) for a, b, h in propagation.step_plan(train, 0.8, dt) if b - a > 4 * h > 0)
    boundary = a + 3 * h  # the start of the segment's fourth step, as rk4_integrate computes it
    # a dozen samples inside each of the three windows, one on an interior step boundary, none on a segment's end
    samples = np.sort(np.append(np.arange(161) * 0.005, boundary))
    propagation.run_schedule(pieces, train, dt, 1e-8, samples)
    assert len(steps) > 7
    assert all(shape == propagation.GAUSS_NODES.shape for shape in taken)
    assert sum(sides) > 30
    assert sum(steps) + sum(sides) == len(taken)
    (args, (_, rows, _)), = [(args, result) for args, result in calls if boundary in args[5]]
    assert args[2:5] == (a, b, h)
    there, _, _ = rk4_integrate(args[0], args[1], a, boundary, h)  # three main steps
    assert np.array_equal(rows[args[5].tolist().index(boundary)], there)


def test_the_benchmark_self_test_passes():
    # smoke-runs every workload, traced and untraced, in fresh worker processes and checks the
    # gate, the metric names and the report of a missing hook against BENCHMARK.json (about 5 s)
    done = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--self-test"], cwd=PERFBENCH.parent,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-4000:]
