"""Run-level properties over random small configurations.

Each example draws a basis of l_max 2-4, a separation (or none), a field
strength and a pulse width, runs a few ps in the M = 0 block and in the
full basis, and checks what must hold for every run: the norm, the
exchange symmetry, the entropy bounds, that nothing reaches M != 0, that
the two bases write the same CSV columns, and that the config survives
its JSON round trip.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorpair.config import build_config
from rotorpair.propagation import run_schedule
from rotorpair.runner import simulate
from rotorpair.units import to_reduced


def _document(l_max, R_m, E0_Vpm, sigma_fs):
    return {
        "geometry": {"R_m": R_m},
        "pulse": {"E0_Vpm": E0_Vpm, "sigma_fs": sigma_fs},
        "basis": {"l_max": l_max},
        "output": {"total_time_ps": 4.0, "sample_interval_ps": 0.25},
    }


DOCUMENTS = st.builds(
    _document,
    l_max=st.integers(2, 4),
    R_m=st.one_of(st.none(), st.floats(1.5e-8, 5e-8)),
    E0_Vpm=st.floats(1e6, 3e7),
    sigma_fs=st.floats(100.0, 400.0),
)


@settings(max_examples=8, deadline=None)
@given(doc=DOCUMENTS)
def test_random_runs_keep_their_invariants(doc):
    cfg = build_config(doc)
    assert build_config(cfg.to_json_dict()) == cfg

    result = simulate(cfg)
    rec = result.recorder
    tolerance = cfg.integrator.norm_tolerance
    drift = np.abs(rec.column("norm") - 1.0)
    assert np.all(drift <= tolerance)
    assert np.all(np.abs(rec.column("cos1") - rec.column("cos2")) <= 1e-12)
    entropy = rec.column("entropy")
    # a product state's one Schmidt weight can round above 1; the entropy
    # still never reads below 0
    assert np.all(entropy >= 0.0)
    assert np.all(entropy <= math.log(result.pieces.basis.d_single))

    full_cfg = build_config(dict(doc, basis={**doc["basis"], "restrict_total_m": None}))
    assert build_config(full_cfg.to_json_dict()) == full_cfg
    full = simulate(full_cfg)
    table, full_table = rec.table(), full.recorder.table()
    assert full_table.shape == table.shape
    assert np.all(np.abs(full_table - table) <= 1e-12 * np.maximum(1.0, np.abs(table)))

    # the full basis again, watching every sample for probability at m1 + m2 != 0
    off_block = full.pieces.basis.m1 + full.pieces.basis.m2 != 0
    leaked = []
    run_schedule(full.pieces, full.schedule, to_reduced(full_cfg)[2], tolerance,
                 full.recorder.column("t_red"),
                 observers=(lambda t, k, c: leaked.extend(np.abs(c[:, off_block]) ** 2),))
    assert len(leaked) == table.shape[0] and not np.any(leaked)
