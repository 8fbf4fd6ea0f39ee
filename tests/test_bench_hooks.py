"""The benchmark's outside-in hooks must keep finding what they wrap.

perfbench/layertrace.py wraps rotorpair names by module and attribute
path; a refactor that renames one of them silently drops a layer from
the benchmark. This resolves every hook without installing a wrapper.
"""

import importlib
import inspect
import sys
from pathlib import Path

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
