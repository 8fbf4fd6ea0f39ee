"""Conversion between laboratory units and the internal reduced units.

Everything downstream works in reduced units with hbar = 1 and B = 1:
energies are measured in the rotational constant B, times in hbar/B.
to_reduced makes every reduced-unit number a run uses.
The pulse-train periods T = hbar/B and T = pi*hbar/B are then exactly
1.0 and pi, which keeps the resonance condition free of unit rounding.

This module imports no numpy at load time: config takes the run length
from it, and the `sim` command parses configs without numpy.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .config import RunConfig
    from .operators import PulseSchedule

# CODATA-2018 figures. The primary literals below are the published
# values (h and c are exact SI definitions, hbar is CODATA's rounded
# h/2pi); the derived factors are computed from them once at import,
# which is just as bit-for-bit reproducible as spelling them out:
#   DEBYE_TO_CM = 3.33564095198152e-30 C m
#   INV_CM_TO_J = 1.9864458571489285e-23 J
#   COULOMB     = 8987551792.261171 J m / (C m)^2
HBAR = 1.054571817e-34                 # J s
C = 299792458.0                        # m / s
PLANCK = 6.62607015e-34                # J s
EPS0 = 8.8541878128e-12                # F / m
DEBYE_TO_CM = 1e-21 / C
INV_CM_TO_J = PLANCK * C * 100.0
COULOMB = 1.0 / (4.0 * math.pi * EPS0)

# symbolic pulse-train periods, in the reduced time unit hbar/B
SYMBOLIC_PERIODS = {"hbar_over_B": 1.0, "pi_hbar_over_B": math.pi}


def time_unit_seconds(B_cm1: float) -> float:
    """The reduced time unit hbar/B in seconds."""
    return HBAR / (B_cm1 * INV_CM_TO_J)


def fs_to_reduced(fs: float, B_cm1: float) -> float:
    """A time in femtoseconds in the reduced unit hbar/B."""
    return fs * 1e-15 / time_unit_seconds(B_cm1)


def _period_reduced(cfg: RunConfig) -> float:
    """The pulse period in units of hbar/B; 0.0 means "no period" (single pulse)."""
    period = cfg.pulse.period
    if period is None:
        return 0.0
    if isinstance(period, str):
        return SYMBOLIC_PERIODS[period]
    return float(period) / time_unit_seconds(cfg.molecule.B_cm1)


def run_length_ps(cfg: RunConfig) -> float:
    """output.total_time_ps if set, else 400 ps for a single pulse and
    count * T + 100 ps for a train."""
    if cfg.output.total_time_ps is not None:
        return cfg.output.total_time_ps
    if cfg.pulse.count <= 1:
        return 400.0
    time_unit_ps = time_unit_seconds(cfg.molecule.B_cm1) * 1e12
    return cfg.pulse.count * _period_reduced(cfg) * time_unit_ps + 100.0


def sample_count(length_ps: float, interval_ps: float) -> float:
    """How many of 0, interval, 2 interval, ... reach up to length, the last being length when it is whole intervals
    to within rounding (0.3 / 0.1 is 2.9999999999999996); a float, nan past the float range."""
    return (length_ps / interval_ps + 1e-9) // 1 + 1


def dipole_strength(cfg: RunConfig) -> float:
    """mu^2 / (4 pi eps0 R^3 B), the coupling in units of B; 0.0 when R_m is null."""
    if cfg.geometry.R_m is None:
        return 0.0
    mu = cfg.molecule.mu_debye * DEBYE_TO_CM
    return COULOMB * mu * mu / (cfg.geometry.R_m**3 * (cfg.molecule.B_cm1 * INV_CM_TO_J))


def to_reduced(cfg: RunConfig) -> tuple[PulseSchedule, float, float, np.ndarray]:
    """Map a validated RunConfig onto the hbar = B = 1 unit system: the
    pulse schedule, the dipole strength, the pulse-core step (integrator.dt_pulse_fs,
    or the default below) and the ascending sample times."""
    import numpy as np  # see the module docstring

    from .operators import PulseSchedule
    from .propagation import SWEEP_RATE

    B_joule = cfg.molecule.B_cm1 * INV_CM_TO_J
    mu = cfg.molecule.mu_debye * DEBYE_TO_CM
    omega_si = 2.0 * math.pi * C * 100.0 * cfg.pulse.omega_cm1
    schedule = PulseSchedule(
        kick_strength=mu * cfg.pulse.E0_Vpm / B_joule,
        sigma_red=fs_to_reduced(cfg.pulse.sigma_fs, cfg.molecule.B_cm1),
        t0_red=fs_to_reduced(cfg.pulse.t0_fs, cfg.molecule.B_cm1),
        carrier_omega=omega_si * HBAR / B_joule,
        period_red=_period_reduced(cfg),
        count=cfg.pulse.count,
    )
    dipole, dt_fs, sigma = dipole_strength(cfg), cfg.integrator.dt_pulse_fs, schedule.sigma_red
    # the default pulse-core step: sigma / 2, converged to about 1e-13, cut in strong fields so that the stage
    # sweeps contract by dt * SWEEP_RATE |H| <= 0.18 (|H| <= 2 kick peak + 3 dipole in the rotor frame, peak the
    # summed envelopes' largest value, to 1 % on 9 points over the period after the middle pulse; the presets
    # reach 0.175), but not below sigma / 400 (from E0 ~ 6.2e9 V/m), which bounds the work of a field that
    # stalls the sweeps
    middle = schedule.centers()[(schedule.count - 1) // 2]
    peak = schedule.envelope(middle + schedule.period_red * np.linspace(0.0, 1.0, 9)).max()
    strength = SWEEP_RATE * (2.0 * abs(schedule.kick_strength) * peak + 3.0 * dipole)  # 0.0 if both underflow
    core = min(sigma / 2.0, max(sigma / 400.0, 0.18 / strength)) if strength else sigma / 2.0
    dt = core if dt_fs is None else fs_to_reduced(dt_fs, cfg.molecule.B_cm1)
    interval_ps = cfg.output.sample_interval_ps
    sample_ps = np.arange(sample_count(run_length_ps(cfg), interval_ps)) * interval_ps
    return schedule, dipole, dt, sample_ps / (time_unit_seconds(cfg.molecule.B_cm1) * 1e12)
