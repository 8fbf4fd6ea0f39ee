"""Run-level properties over random small configurations.

Each example draws a basis of l_max 2-4, a separation (or none), a field
strength and a pulse width, runs a few ps, and checks what must hold for
every run: the norm, the exchange symmetry, the entropy bounds, and that
the config survives its JSON round trip.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorpair.config import build_config
from rotorpair.runner import simulate


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
    assert np.array_equal(rec.column("cos1"), rec.column("cos2"))
    entropy = rec.column("entropy")
    # a product state's one Schmidt weight can round above 1; the entropy
    # still never reads below 0
    assert np.all(entropy >= 0.0)
    assert np.all(entropy <= math.log(result.pieces.basis.d_single))
