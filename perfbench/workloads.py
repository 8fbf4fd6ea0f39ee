"""The benchmark's workloads.

Every run is a fixed JSON config document, written in the `sim run`
schema, equal to one of the paper's presets (see `rotorpair.config.preset`).
The seed only reorders the runs; it never changes a physics input, so the
committed references hold for every seed.
"""

from __future__ import annotations

import random

# label -> config document; labels match the preset run labels
CONFIGS: dict[str, dict] = {
    "fig1a": {"geometry": {"R_m": 3e-8}, "pulse": {"E0_Vpm": 3e7}},
    "fig1b": {"geometry": {"R_m": 2e-8}, "pulse": {"E0_Vpm": 3e7}},
    "fig3a": {"geometry": {"R_m": 5e-8}, "pulse": {"E0_Vpm": 3e7}},
    "fig3b": {"geometry": {"R_m": 1.5e-8}, "pulse": {"E0_Vpm": 3e7}},
    "fig4_E15": {"geometry": {"R_m": 1.5e-8}, "pulse": {"E0_Vpm": 1.5e7}},
    "fig4_E30": {"geometry": {"R_m": 1.5e-8}, "pulse": {"E0_Vpm": 3e7}},
    "fig2a_R30": {"geometry": {"R_m": 3e-8},
                  "pulse": {"E0_Vpm": 3e7, "period": "hbar_over_B", "count": 20}},
    # the criterion 9 convergence audit: fig1a at l_max = 10
    "fig1a_lmax10": {"geometry": {"R_m": 3e-8}, "pulse": {"E0_Vpm": 3e7}, "basis": {"l_max": 10}},
}

# name -> labels; a pass runs every label through run_config in one fresh
# process with OPENBLAS_NUM_THREADS=1
WORKLOADS: dict[str, tuple[str, ...]] = {
    "single_pulse": ("fig1a", "fig1b", "fig3a", "fig3b", "fig4_E15", "fig4_E30"),
    "pulse_train": ("fig2a_R30",),
    "truncation_audit": ("fig1a_lmax10",),
}


def config_doc(label: str, total_time_ps: float | None = None) -> dict:
    """The config document of one run; total_time_ps shortens it (smoke mode)."""
    doc = {key: dict(value) for key, value in CONFIGS[label].items()}
    if total_time_ps is not None:
        doc["output"] = {"total_time_ps": total_time_ps}
    return doc


def ordered_labels(workload: str, seed: int) -> list[str]:
    """The workload's run labels in the seed's order."""
    labels = list(WORKLOADS[workload])
    random.Random(seed).shuffle(labels)
    return labels


def d_single(label: str) -> int:
    """Single-rotor basis size (l_max + 1)^2, the entropy's upper bound argument."""
    l_max = CONFIGS[label].get("basis", {}).get("l_max", 8)
    return (l_max + 1) ** 2
