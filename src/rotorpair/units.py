"""Conversion between laboratory units and the internal reduced units.

Everything downstream works in reduced units with hbar = 1 and B = 1:
energies are measured in the rotational constant B, times in hbar/B.
The pulse-train periods T = hbar/B and T = pi*hbar/B are then exactly
1.0 and pi, which keeps the resonance condition free of unit rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exceptions import InvalidConfigError

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

PERIOD_HBAR_OVER_B = "hbar_over_B"
PERIOD_PI_HBAR_OVER_B = "pi_hbar_over_B"
SYMBOLIC_PERIODS = (PERIOD_HBAR_OVER_B, PERIOD_PI_HBAR_OVER_B)


@dataclass(frozen=True)
class PhysicalSetup:
    """Laboratory-unit description of one run.

    R_m = None switches the dipole-dipole coupling off entirely (an
    uncoupled pair), which is distinct from any finite separation.
    period is None for a single pulse, a float in seconds, or one of
    the symbolic names "hbar_over_B" / "pi_hbar_over_B".
    """

    mu_debye: float = 9.2
    B_cm1: float = 0.12
    R_m: float | None = 3e-8
    E0_Vpm: float = 3e7
    sigma_fs: float = 279.0
    t0_fs: float = 1200.0
    omega_cm1: float = 30.0
    period: float | str | None = None
    count: int = 1


@dataclass(frozen=True)
class ReducedParameters:
    """Dimensionless couplings of the reduced-unit Hamiltonian."""

    kick_strength: float      # mu * E0 / B
    dipole_strength: float    # mu^2 / (4 pi eps0 R^3 B)
    carrier_omega: float      # omega * hbar / B
    sigma_red: float          # sigma * B / hbar
    t0_red: float
    period_red: float         # 0.0 means "no period" (single pulse)


def time_unit_seconds(B_cm1: float) -> float:
    """The reduced time unit hbar/B in seconds."""
    if not B_cm1 > 0:
        raise InvalidConfigError("B_cm1 must be positive")
    return HBAR / (B_cm1 * INV_CM_TO_J)


def to_reduced(setup: PhysicalSetup) -> ReducedParameters:
    """Map a laboratory setup onto the hbar = B = 1 unit system; the setup
    comes from a validated RunConfig."""
    B_joule = setup.B_cm1 * INV_CM_TO_J
    time_unit = HBAR / B_joule
    mu = setup.mu_debye * DEBYE_TO_CM

    kick = mu * setup.E0_Vpm / B_joule
    if setup.R_m is None:
        dipole = 0.0
    else:
        dipole = COULOMB * mu * mu / (setup.R_m**3 * B_joule)
    omega_si = 2.0 * math.pi * C * 100.0 * setup.omega_cm1
    carrier = omega_si * HBAR / B_joule

    if setup.period is None:
        period_red = 0.0
    elif setup.period == PERIOD_HBAR_OVER_B:
        period_red = 1.0
    elif setup.period == PERIOD_PI_HBAR_OVER_B:
        period_red = math.pi
    else:
        period_red = float(setup.period) / time_unit

    return ReducedParameters(
        kick_strength=kick,
        dipole_strength=dipole,
        carrier_omega=carrier,
        sigma_red=setup.sigma_fs * 1e-15 / time_unit,
        t0_red=setup.t0_fs * 1e-15 / time_unit,
        period_red=period_red,
    )


def from_reduced(
    red: ReducedParameters,
    mu_debye: float,
    B_cm1: float,
    count: int = 1,
) -> PhysicalSetup:
    """Invert to_reduced given the two anchor quantities mu and B."""
    B_joule = B_cm1 * INV_CM_TO_J
    time_unit = HBAR / B_joule
    mu = mu_debye * DEBYE_TO_CM

    if red.dipole_strength == 0.0:
        R_m = None
    else:
        R_m = (COULOMB * mu * mu / (red.dipole_strength * B_joule)) ** (1.0 / 3.0)
    omega_si = red.carrier_omega * B_joule / HBAR

    return PhysicalSetup(
        mu_debye=mu_debye,
        B_cm1=B_cm1,
        R_m=R_m,
        E0_Vpm=red.kick_strength * B_joule / mu,
        sigma_fs=red.sigma_red * time_unit * 1e15,
        t0_fs=red.t0_red * time_unit * 1e15,
        omega_cm1=omega_si / (2.0 * math.pi * C * 100.0),
        period=red.period_red * time_unit if red.period_red > 0 else None,
        count=count,
    )
