import dataclasses
import math

import numpy as np
import pytest

from rotorpair import units
from rotorpair.config import RunConfig
from rotorpair.exceptions import InvalidConfigError
from rotorpair.propagation import GAUSS_MATRIX, SWEEP_RATE
from rotorpair.units import time_unit_seconds, to_reduced


def test_constants_are_the_codata_2018_values():
    # primary literals: exact SI definitions plus CODATA's rounded hbar
    assert units.C == 299792458.0
    assert units.HBAR == 1.054571817e-34
    # derived factors come from the primaries, documented decimals agree
    assert units.DEBYE_TO_CM == 1e-21 / units.C
    assert units.INV_CM_TO_J == 6.62607015e-34 * units.C * 100.0
    assert units.COULOMB == 1.0 / (4.0 * math.pi * 8.8541878128e-12)
    assert units.DEBYE_TO_CM == pytest.approx(3.33564095198152e-30, rel=1e-15)
    assert units.INV_CM_TO_J == pytest.approx(1.9864458571489285e-23, rel=1e-15)
    assert units.COULOMB == pytest.approx(8987551792.261171, rel=1e-15)


def test_time_unit_for_the_default_molecule():
    tu = time_unit_seconds(0.12)
    assert tu == pytest.approx(4.4240312130194325e-11, rel=1e-12)
    # ~44.24 ps, the number quoted for B = 0.12 cm^-1
    assert abs(tu * 1e12 - 44.24) < 0.01


def test_time_unit_rejects_nonpositive_B():
    with pytest.raises(InvalidConfigError):
        time_unit_seconds(0.0)
    with pytest.raises(InvalidConfigError):
        time_unit_seconds(-0.12)


def _with(section, **fields):
    """The default RunConfig with some fields of one section replaced."""
    base = RunConfig()
    return dataclasses.replace(base, **{section: dataclasses.replace(getattr(base, section), **fields)})


def test_reduced_parameters_for_the_default_setup():
    red, dipole, *_ = to_reduced(RunConfig())
    # frozen against a hand-checked arithmetic chain (mu*E0/B etc.)
    assert red.kick_strength == pytest.approx(386.21612373411443, rel=1e-12)
    assert dipole == pytest.approx(0.13150852670024232, rel=1e-12)
    assert red.sigma_red == pytest.approx(0.006306465451214133, rel=1e-12)
    assert red.t0_red == pytest.approx(0.027124582585867238, rel=1e-12)
    assert red.period_red == 0.0
    assert red.count == 1
    # 30 cm^-1 / 0.12 cm^-1 puts the carrier at 250/hbar in reduced units;
    # the tiny offset is CODATA's rounding of hbar vs the exact h/2pi.
    assert red.carrier_omega == pytest.approx(249.9999998468202, rel=1e-12)
    assert abs(red.carrier_omega - 250.0) < 1e-5
    # rounded sanity values
    assert abs(red.kick_strength - 386.2) < 0.1
    assert abs(dipole - 0.132) < 5e-4


@pytest.mark.parametrize("R_m, expected", [
    (2e-8, 0.44384127761331765),
    (1.5e-8, 1.0520682136019386),
    (5e-8, 0.028405841767252336),
])
def test_dipole_strength_scales_as_inverse_cube(R_m, expected):
    _, dipole, *_ = to_reduced(_with("geometry", R_m=R_m))
    assert dipole == pytest.approx(expected, rel=1e-12)


def test_no_separation_means_no_coupling():
    _, dipole, *_ = to_reduced(_with("geometry", R_m=None))
    assert dipole == 0.0


def test_symbolic_periods_are_exact():
    one, *_ = to_reduced(_with("pulse", period="hbar_over_B", count=2))
    assert one.period_red == 1.0
    assert one.count == 2
    pi, *_ = to_reduced(_with("pulse", period="pi_hbar_over_B", count=2))
    assert pi.period_red == math.pi


def test_period_in_seconds_is_divided_by_the_time_unit():
    tu = time_unit_seconds(0.12)
    red, *_ = to_reduced(_with("pulse", period=2.0 * tu, count=2))
    assert red.period_red == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("field, value", [
    ("mu_debye", -9.2),
    ("mu_debye", 0.0),
    ("B_cm1", 0.0),
    ("E0_Vpm", -3e7),
    ("sigma_fs", 0.0),
    ("omega_cm1", -30.0),
    ("R_m", 0.0),
    ("R_m", -1e-8),
    ("t0_fs", -1.0),
    ("count", 0),
    ("period", "two_hbar_over_B"),
    ("period", -1e-12),
    ("period", 0.0),
])
def test_invalid_setups_are_rejected(field, value):
    # a setup comes from a RunConfig, which checks its fields when it is built
    base = RunConfig()
    section = next(f.name for f in dataclasses.fields(base)
                   if field in {g.name for g in dataclasses.fields(getattr(base, f.name))})
    with pytest.raises(InvalidConfigError, match=field):
        _with(section, **{field: value})


def test_a_train_needs_a_period():
    with pytest.raises(InvalidConfigError, match="period"):
        dataclasses.replace(RunConfig(), pulse=dataclasses.replace(RunConfig().pulse, count=5))


def test_to_reduced_makes_the_step_and_the_sample_times():
    schedule, _, dt, samples = to_reduced(_with("output", total_time_ps=20.3, sample_interval_ps=2.0))
    assert dt == schedule.sigma_red / 2.0  # the default step
    # floor(20.3 / 2) + 1 samples, 2 ps apart, in units of hbar/B
    assert np.array_equal(samples, np.arange(11) * 2.0 / (time_unit_seconds(0.12) * 1e12))
    _, _, dt, _ = to_reduced(_with("integrator", dt_pulse_fs=0.5))
    assert dt == pytest.approx(0.5e-15 / time_unit_seconds(0.12), rel=1e-15)


def test_the_default_step_shrinks_with_the_field_down_to_sigma_over_400():
    # the sweep rate is the spectral radius of GAUSS_MATRIX, 0.0717 at ten stages
    assert SWEEP_RATE == np.abs(np.linalg.eigvals(GAUSS_MATRIX)).max() == pytest.approx(0.0717, abs=5e-5)
    steps = {}
    for E0 in (3e7, 3.2e7, 3e8, 3e9, 6e9, 6.4e9, 1e14):
        schedule, dipole, dt, _ = to_reduced(_with("pulse", E0_Vpm=E0))
        cap = 0.18 / (SWEEP_RATE * (2.0 * schedule.kick_strength + 3.0 * dipole))
        assert dt == min(schedule.sigma_red / 2.0, max(schedule.sigma_red / 400.0, cap))
        steps[E0] = [dt == schedule.sigma_red / 2.0, dt == schedule.sigma_red / 400.0]
    # sigma / 2 up to about 3.09e7 V/m, then 0.18 / (SWEEP_RATE (2 kick + 3 dipole)), which reaches sigma / 400 at
    # about 6.18e9 V/m, and never below that
    assert steps == {3e7: [True, False], 3.2e7: [False, False], 3e8: [False, False], 3e9: [False, False],
                     6e9: [False, False], 6.4e9: [False, True], 1e14: [False, True]}
    # a set integrator.dt_pulse_fs wins whatever the field
    cfg = dataclasses.replace(_with("integrator", dt_pulse_fs=27.9), pulse=_with("pulse", E0_Vpm=1e14).pulse)
    assert to_reduced(cfg)[2] == pytest.approx(27.9e-15 / time_unit_seconds(0.12), rel=1e-15)


def test_to_reduced_inverts_to_the_laboratory_numbers():
    cfg = _with("pulse", period=2.5e-11, count=3)
    red, dipole, *_ = to_reduced(cfg)
    B_joule = 0.12 * units.INV_CM_TO_J
    tu = time_unit_seconds(0.12)
    mu = 9.2 * units.DEBYE_TO_CM
    assert (units.COULOMB * mu * mu / (dipole * B_joule)) ** (1.0 / 3.0) == pytest.approx(3e-8, rel=1e-9)
    assert red.kick_strength * B_joule / mu == pytest.approx(3e7, rel=1e-12)
    assert red.sigma_red * tu * 1e15 == pytest.approx(279.0, rel=1e-12)
    assert red.t0_red * tu * 1e15 == pytest.approx(1200.0, rel=1e-12)
    omega_cm1 = red.carrier_omega / tu / (2.0 * math.pi * units.C * 100.0)
    assert omega_cm1 == pytest.approx(30.0, rel=1e-12)
    assert red.period_red * tu == pytest.approx(2.5e-11, rel=1e-12)
    assert red.count == 3
