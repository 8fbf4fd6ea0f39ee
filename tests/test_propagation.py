import dataclasses
import math

import numpy as np
import pytest

import oracles
from rotorpair import propagation
from rotorpair.angular import TwoRotorBasis
from rotorpair.config import IntegratorSettings, PulseConfig, RunConfig
from rotorpair.exceptions import ConsistencyError, InvalidConfigError, StepSizeError
from rotorpair.observables import COLUMNS, TimeSeriesRecorder
from rotorpair.operators import PulseSchedule, build_costheta_single, build_pieces, expectation
from rotorpair.propagation import (
    SAMPLE_BLOCK,
    WINDOW_HALFWIDTH,
    FreeEvolution,
    RightHandSide,
    initial_state,
    pulse_windows,
    rk4_integrate,
    run_schedule,
    schrodinger_rhs,
    sector_operators,
)
from rotorpair.units import run_length_ps, time_unit_seconds, to_reduced

# reduced parameters of the default molecule pair, rounded is fine here:
# these tests probe the integrator, not the unit conversion
KICK = 386.21612373411443
SIGMA = 0.006306465451214133
T0 = 0.027124582585867238
OMEGA = 249.9999998468202
DT = SIGMA / 400.0  # the default RK4 step
TOL = IntegratorSettings().norm_tolerance


def _single_pulse(kick=KICK):
    return PulseSchedule(kick_strength=kick, sigma_red=SIGMA, t0_red=T0, carrier_omega=OMEGA)


def _free(h0, coeffs, tau):
    """exp(-i H0 tau) c through a fresh FreeEvolution."""
    free = FreeEvolution(h0)
    return free.advance(free.project(coeffs), np.array([tau]))[0]


# --- wavefunction and config -------------------------------------------------

def test_initial_state_is_a_fresh_unit_ground_state():
    basis = TwoRotorBasis(1, 0)
    c = initial_state(basis)
    assert c.dtype == np.complex128 and c.shape == (basis.size,)
    assert np.linalg.norm(c) == 1.0
    assert c[basis.index_of(0, 0, 0, 0)] == 1.0
    c[basis.index_of(0, 0, 0, 0)] = 0.0
    assert initial_state(basis)[basis.index_of(0, 0, 0, 0)] == 1.0


def test_initial_state_needs_the_ground_state():
    with pytest.raises(InvalidConfigError):
        initial_state(TwoRotorBasis(1, 1))


def test_integrator_settings_defaults_and_validation():
    settings = IntegratorSettings()
    assert settings.dt_pulse_fs is None
    assert WINDOW_HALFWIDTH == 5.0
    assert settings.norm_tolerance == 1e-8
    assert to_reduced(RunConfig())[2] == pytest.approx(DT)
    # the step and the tolerance are checked where a run is configured
    for settings in (IntegratorSettings(dt_pulse_fs=0.0), IntegratorSettings(norm_tolerance=0.0)):
        with pytest.raises(InvalidConfigError):
            RunConfig(integrator=settings)


# --- free evolution ----------------------------------------------------------

def test_free_evolution_applies_the_energy_phase():
    basis = TwoRotorBasis(1, 0)
    pieces = build_pieces(basis, 0.0)
    c = np.zeros(basis.size, dtype=complex)
    k = basis.index_of(1, 0, 1, 0)
    c[k] = 1.0
    tau = 0.37
    out = _free(pieces.h0, c, tau)
    # E = l1(l1+1) + l2(l2+1) = 4
    assert out[k] == pytest.approx(np.exp(-1j * 4.0 * tau), rel=1e-12)
    assert abs(out[basis.index_of(0, 0, 0, 0)]) < 1e-15


def test_free_evolution_beats_at_the_level_splitting():
    # (|00> + |10>)/sqrt(2) on molecule 1: <cos th1>(t) = cos(2t)/sqrt(3)
    basis = TwoRotorBasis(1, None)
    pieces = build_pieces(basis, 0.0)
    cos1 = build_costheta_single(basis, "mol1")
    c = np.zeros(basis.size, dtype=complex)
    c[basis.index_of(0, 0, 0, 0)] = 1.0 / math.sqrt(2.0)
    c[basis.index_of(1, 0, 0, 0)] = 1.0 / math.sqrt(2.0)
    for tau in (0.0, 0.3, 1.1):
        out = _free(pieces.h0, c, tau)
        expected = math.cos(2.0 * tau) / math.sqrt(3.0)
        assert expectation(cos1, out).real == pytest.approx(expected, abs=1e-12)


def test_free_evolution_reuse_matches_fresh_construction():
    basis = TwoRotorBasis(2, 0)
    pieces = build_pieces(basis, 0.5)
    free = FreeEvolution(pieces.h0)
    c = initial_state(basis)
    first = free.advance(free.project(c), np.array([0.8]))[0]
    again = free.advance(free.project(c), np.array([0.8]))[0]
    assert np.array_equal(first, again)
    assert np.allclose(first, _free(pieces.h0, c, 0.8), atol=1e-15)


def test_free_block_rows_match_one_advance_each():
    basis = TwoRotorBasis(2, 0)
    pieces = build_pieces(basis, 0.5)
    free = FreeEvolution(pieces.h0)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    taus = np.array([0.0, 0.1, 0.7, 2.3])
    block = free.advance(free.project(c), taus)
    assert block.shape == (4, basis.size)
    energies, vectors = np.linalg.eigh(pieces.h0.toarray())
    for tau, row in zip(taus, block):
        ref = vectors @ (np.exp(-1j * energies * tau) * (vectors.conj().T @ c))
        assert np.abs(row - ref).max() < 1e-13


def test_free_evolution_rejects_a_complex_h0():
    pieces = build_pieces(TwoRotorBasis(1, 0), 0.0)
    skewed = pieces.h0.copy()
    skewed.data[0] += 1e-3j
    with pytest.raises(ConsistencyError, match="imaginary"):
        FreeEvolution(skewed)


# --- RK4 ---------------------------------------------------------------------

def test_rk4_scalar_convergence_is_fourth_order():
    lam = -1.0
    rhs = RightHandSide(field=np.zeros_like, deriv=lambda f, y: lam * y)
    y0 = np.array([1.0 + 0.0j])
    exact = math.exp(-2.0)
    err = []
    for dt in (0.1, 0.05):
        y = rk4_integrate(rhs, y0, 0.0, 2.0, dt)
        err.append(abs(y[0] - exact))
    assert 12.0 < err[0] / err[1] < 20.0


def test_rk4_partial_final_step_lands_on_t1():
    # the field is t itself, so dy/dt = 2t
    rhs = RightHandSide(field=lambda t: t, deriv=lambda f, y: np.array([2.0 * f]))
    # 0.37 is not a multiple of 0.1: a 0.07 closing step is needed
    y = rk4_integrate(rhs, np.array([0.0]), 0.0, 0.37, 0.1)
    assert y[0] == pytest.approx(0.37**2, rel=1e-12)


def test_rk4_rejects_bad_spans():
    rhs = RightHandSide(field=np.zeros_like, deriv=lambda f, y: y)
    with pytest.raises(ValueError):
        rk4_integrate(rhs, np.array([1.0]), 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        rk4_integrate(rhs, np.array([1.0]), 1.0, 0.0, 0.1)


def test_rk4_exact_step_count_adds_no_extra_step():
    calls = []
    fields = []

    def field(t):
        fields.append(t.shape)
        return t

    def deriv(f, y):
        calls.append(f)
        return np.zeros_like(y)

    rk4_integrate(RightHandSide(field, deriv), np.array([0.0]), 0.0, 0.5, 0.1)
    # 5 full steps, 4 calls each, no closing fragment
    assert len(calls) == 20
    # the stage fields of all 5 steps come from one call
    assert fields == [(3, 5)]


@pytest.mark.parametrize("case", ["clipped_at_zero", "merged_train", "partial_step"])
def test_window_kernel_matches_the_per_stage_reference(case):
    pieces = build_pieces(TwoRotorBasis(4 if case == "clipped_at_zero" else 2, 0),
                          0.13150852670024232)
    pulse = _single_pulse()
    if case == "merged_train":
        # period 6 sigma < 10 sigma: the three windows fuse and the Gaussians overlap
        pulse = PulseSchedule(kick_strength=KICK, sigma_red=SIGMA, t0_red=T0,
                              carrier_omega=OMEGA, period_red=6.0 * SIGMA, count=3)
    (t_a, t_b), = pulse_windows(pulse, 5.0, 1.0)
    assert t_a == 0.0
    if case == "partial_step":
        t_a, t_b = T0 - 0.7 * SIGMA, T0 + 1.3137 * SIGMA
        span = (t_b - t_a) / DT
        assert span - math.floor(span) > 0.1
    # a random state of the symmetric sector, stepped there and unfolded
    s = pieces.basis.sector_isometry
    rng = np.random.default_rng(5)
    c = rng.standard_normal(s.shape[1]) + 1j * rng.standard_normal(s.shape[1])
    c /= np.linalg.norm(c)
    got = s @ rk4_integrate(schrodinger_rhs(*sector_operators(pieces), pulse), c, t_a, t_b, DT)
    ref = oracles.per_stage_rk4(pieces, pulse, s @ c, t_a, t_b, DT)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


# --- windowed pulse integration ----------------------------------------------

def test_window_with_zero_kick_matches_free_evolution():
    basis = TwoRotorBasis(2, 0)
    pieces = build_pieces(basis, 0.5)
    pulse = _single_pulse(kick=0.0)
    c = initial_state(basis)
    stepped = rk4_integrate(schrodinger_rhs(pieces.h0, pieces.coupling, pulse), c, 0.0, 0.2, 2e-4)
    assert np.abs(stepped - _free(pieces.h0, c, 0.2)).max() < 1e-10


def test_window_step_halving_is_fourth_order():
    basis = TwoRotorBasis(2, 0)
    pieces = build_pieces(basis, 0.13150852670024232)
    pulse = _single_pulse()
    c0 = basis.sector_isometry.T @ initial_state(basis)
    t_b = T0 + 5.0 * SIGMA
    rhs = schrodinger_rhs(*sector_operators(pieces), pulse)

    def integrate(dt):
        return rk4_integrate(rhs, c0, 0.0, t_b, dt)

    ref = integrate(SIGMA / 160.0)
    err_coarse = np.abs(integrate(SIGMA / 10.0) - ref).max()
    err_fine = np.abs(integrate(SIGMA / 20.0) - ref).max()
    assert err_coarse > err_fine > 0.0
    assert 10.0 < err_coarse / err_fine < 25.0


def test_window_integration_is_time_reversible():
    basis = TwoRotorBasis(2, 0)
    pieces = build_pieces(basis, 0.13150852670024232)
    pulse = _single_pulse()
    c0 = basis.sector_isometry.T @ initial_state(basis)
    t_b = T0 + 5.0 * SIGMA
    ahead = schrodinger_rhs(*sector_operators(pieces), pulse)
    forward = rk4_integrate(ahead, c0, 0.0, t_b, DT)

    # s = t_b - t runs the window backwards: dg/ds = +i H(t_b - s) g
    backwards = RightHandSide(field=lambda s: ahead.field(t_b - s),
                              deriv=lambda f, g: -ahead.deriv(f, g))
    back = rk4_integrate(backwards, forward, 0.0, t_b, DT)
    assert np.abs(back - c0).max() < 1e-6


def test_window_raises_on_norm_drift():
    basis = TwoRotorBasis(2, 0)
    pieces = build_pieces(basis, 0.13150852670024232)
    t_b = T0 + 5 * SIGMA
    with pytest.raises(StepSizeError, match="at t = 0.0586"):
        run_schedule(pieces, _single_pulse(), 0.02, TOL,
                     np.array([0.0, t_b]))
    # a NaN state must fail the check too, not slip past a "drift > tol" test:
    # a NaN field turns the window's first sample into NaN
    with pytest.raises(StepSizeError, match="by nan at t = 0.01 "):
        run_schedule(pieces, _single_pulse(kick=np.nan), DT, TOL,
                     np.array([0.0, 0.01]))


# --- window placement ----------------------------------------------------------

def test_pulse_windows_zero_kick_has_none():
    assert pulse_windows(_single_pulse(kick=0.0), 5.0, 10.0) == []


def test_pulse_windows_single_pulse_clipped_at_zero():
    w = pulse_windows(_single_pulse(), 5.0, 10.0)
    assert len(w) == 1
    a, b = w[0]
    assert a == 0.0  # t0 < 5 sigma, so the left edge clips
    assert b == pytest.approx(T0 + 5.0 * SIGMA)


def test_pulse_windows_merge_overlapping_pulses():
    pulse = PulseSchedule(kick_strength=1.0, sigma_red=0.1, t0_red=0.5,
                          carrier_omega=1.0, period_red=0.3, count=3)
    # 5 sigma = 0.5 > period, so all three windows fuse into one
    w = pulse_windows(pulse, 5.0, 10.0)
    assert len(w) == 1
    assert w[0] == (0.0, pytest.approx(0.5 + 2 * 0.3 + 0.5))


def test_pulse_windows_clip_and_drop_beyond_t_end():
    pulse = PulseSchedule(kick_strength=1.0, sigma_red=0.01, t0_red=1.0,
                          carrier_omega=1.0, period_red=2.0, count=3)
    w = pulse_windows(pulse, 5.0, 3.5)
    assert len(w) == 2
    assert w[1] == (pytest.approx(2.95), pytest.approx(3.05))
    # the center at t = 5 lies wholly past t_end and is dropped
    assert all(b <= 3.5 for _, b in w)


# --- full schedule -----------------------------------------------------------

def test_run_schedule_validates_samples():
    basis = TwoRotorBasis(1, 0)
    pieces = build_pieces(basis, 0.0)
    pulse = _single_pulse(kick=0.0)
    with pytest.raises(InvalidConfigError):
        run_schedule(pieces, pulse, DT, TOL, np.array([]))
    with pytest.raises(InvalidConfigError):
        run_schedule(pieces, pulse, DT, TOL, np.array([0.5, 1.0]))
    with pytest.raises(InvalidConfigError):
        run_schedule(pieces, pulse, DT, TOL, np.array([0.0, 1.0, 1.0]))


def test_run_schedule_without_field_is_pure_free_evolution():
    basis = TwoRotorBasis(2, 0)
    pieces = build_pieces(basis, 0.5)
    pulse = _single_pulse(kick=0.0)
    samples = np.array([0.0, 0.5, 1.3])
    traj = run_schedule(pieces, pulse, DT, TOL, samples)
    assert traj.windows == []
    assert np.allclose(traj.norms, 1.0, atol=1e-12)
    assert np.ptp(traj.h0_expect) < 1e-12
    free = _free(pieces.h0, initial_state(basis), 1.3)
    assert np.abs(traj.psi_final - free).max() < 1e-12


def test_run_schedule_matches_a_hand_composed_run():
    # free to the window edge, RK4 across it, free to the end
    basis = TwoRotorBasis(2, 0)
    pieces = build_pieces(basis, 0.13150852670024232)
    pulse = _single_pulse()
    t_end = 0.5
    samples = np.array([0.0, 0.25, t_end])  # no sample inside the window
    traj = run_schedule(pieces, pulse, DT, TOL, samples)
    assert len(traj.windows) == 1
    a, b = traj.windows[0]

    # composed in the symmetric sector, as run_schedule propagates
    s = basis.sector_isometry
    h0_s, coupling_s = sector_operators(pieces)
    free = FreeEvolution(h0_s)
    c = s.T @ initial_state(basis)
    if a > 0:
        c = free.advance(free.project(c), np.array([a]))[0]
    c = rk4_integrate(schrodinger_rhs(h0_s, coupling_s, pulse), c, a, b, DT)
    c = free.advance(free.project(c), np.array([t_end - b]))[0]
    assert np.abs(traj.psi_final - s @ c).max() < 1e-9
    assert traj.max_norm_drift < 1e-9
    assert traj.windows == [(max(T0 - 5.0 * SIGMA, 0.0), T0 + 5.0 * SIGMA)]


def test_run_schedule_advances_once_per_free_block_and_window_start(monkeypatch):
    # the closing free segment ends on the last sample, so it needs no extra
    # advance: psi_final is the last row the observers saw
    basis = TwoRotorBasis(2, 0)
    pulse = PulseSchedule(kick_strength=KICK, sigma_red=SIGMA, t0_red=0.5, carrier_omega=OMEGA)
    samples = np.arange(150) * 0.0113  # samples 1-41 free, 42-47 in the window, 48-149 free
    durations, rows = [], []
    advance = FreeEvolution.advance
    monkeypatch.setattr(FreeEvolution, "advance",
                        lambda self, amp, taus: durations.append(len(taus)) or advance(self, amp, taus))
    traj = run_schedule(build_pieces(basis, 0.13150852670024232), pulse, DT, TOL,
                        samples, observers=(lambda t, k, c: rows.append(c[-1]),))
    assert np.searchsorted(samples, traj.windows[0], side="right").tolist() == [42, 48]
    assert durations == [41, 1, 64, 38]  # a block, the window start, two blocks
    assert np.array_equal(traj.psi_final, rows[-1])


def test_run_schedule_records_the_violating_sample_then_raises():
    basis = TwoRotorBasis(2, 0)
    pieces = build_pieces(basis, 0.13150852670024232)
    pulse = _single_pulse()
    seen = []

    def observer(t_red, indices, coeffs):
        seen.extend(zip(indices.tolist(), np.linalg.norm(coeffs, axis=1)))

    with pytest.raises(StepSizeError, match="at t = 0.5 "):
        # a step of 0.02 is far too coarse for the carrier
        run_schedule(pieces, pulse, 0.02, TOL, np.array([0.0, 0.5, 1.0]), observers=(observer,))
    # sample 1 is the first of a two-sample free block; sample 2 is never shown
    assert [k for k, _ in seen] == [0, 1]
    assert abs(seen[-1][1] - 1.0) > 1e-8


def test_run_schedule_stops_a_window_block_at_the_violating_sample():
    basis = TwoRotorBasis(2, 0)
    pieces = build_pieces(basis, 0.13150852670024232)
    seen = []
    samples = np.linspace(0.0, 0.05, 11)  # all inside the pulse window
    with pytest.raises(StepSizeError):
        run_schedule(pieces, _single_pulse(), 0.02, TOL, samples,
                     observers=(lambda t, k, c: seen.append((k, np.linalg.norm(c, axis=1))),))
    indices = np.concatenate([k for k, _ in seen])
    norms = np.concatenate([n for _, n in seen])
    assert np.array_equal(indices, np.arange(indices.size))
    assert indices.size < samples.size
    assert abs(norms[-1] - 1.0) > 1e-8
    assert np.all(np.abs(norms[:-1] - 1.0) <= 1e-8)


def test_run_schedule_fails_a_nan_state_at_sample_zero(monkeypatch):
    basis = TwoRotorBasis(2, 0)
    pieces = build_pieces(basis, 0.13150852670024232)
    psi = initial_state(basis)
    psi[1] = np.nan
    monkeypatch.setattr(propagation, "initial_state", lambda basis: psi)
    recorder = TimeSeriesRecorder(basis, ())
    with pytest.raises(StepSizeError, match="by nan at t = 0 "):
        run_schedule(pieces, _single_pulse(), DT, TOL, np.array([0.0, 0.5, 1.0]),
                     observers=(recorder,))
    assert recorder.column("t_ps").tolist() == [0.0]
    assert np.isnan(recorder.column("norm")[0])
    assert np.isnan(recorder.column("entropy")[0])


def test_run_schedule_with_one_sample_records_only_the_start():
    basis = TwoRotorBasis(2, 0)
    pieces = build_pieces(basis, 0.13150852670024232)
    recorder = TimeSeriesRecorder(basis, ((0, 0, 0, 0),))
    traj = run_schedule(pieces, _single_pulse(), DT, TOL, np.array([0.0]),
                        observers=(recorder,))
    assert traj.windows == []
    assert traj.norms.tolist() == [1.0]
    assert traj.max_norm_drift == 0.0
    assert np.array_equal(traj.psi_final, initial_state(basis))
    assert recorder.column("t_ps").tolist() == [0.0]
    assert recorder.population_column((0, 0, 0, 0)).tolist() == [1.0]


def _assert_matches_the_per_sample_loop(pieces, pulse, samples, watch):
    blocks = []
    recorder = TimeSeriesRecorder(pieces.basis, watch)
    traj = run_schedule(pieces, pulse, DT, TOL, samples,
                        observers=(recorder, lambda t, k, c: blocks.append(k.size)))
    states, norms, h0_expect = oracles.per_sample_schedule(pieces, pulse, DT, samples)
    ref = oracles.per_sample_columns(pieces.basis, states, watch)

    def assert_close(got, want, what):
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert got.shape == want.shape and err.max() <= 1e-10, (what, err.max())

    for name in COLUMNS:
        assert_close(recorder.column(name), ref[name], name)
    for entry in watch:
        assert_close(recorder.population_column(entry), ref[tuple(entry)], entry)
    assert_close(traj.h0_expect, h0_expect, "h0_expect")
    assert_close(traj.norms, norms, "norms")
    assert np.abs(traj.psi_final - states[-1]).max() <= 1e-10
    assert max(blocks) <= SAMPLE_BLOCK and sum(blocks) == samples.size
    return blocks


WATCH = ((0, 0, 0, 0), (1, 0, 1, 0), (2, 0, 1, 0))


@pytest.mark.parametrize("total_m", [0, None])
def test_block_run_of_a_single_pulse_matches_the_per_sample_loop(total_m):
    basis = TwoRotorBasis(4 if total_m is not None else 2, total_m)
    pieces = build_pieces(basis, 0.13150852670024232)
    samples = np.arange(200) * 0.0113  # 0.5 ps steps, several free blocks
    blocks = _assert_matches_the_per_sample_loop(pieces, _single_pulse(), samples, WATCH)
    assert len(blocks) >= 4


def test_block_run_of_a_pulse_train_matches_the_per_sample_loop():
    pieces = build_pieces(TwoRotorBasis(4, 0), 0.13150852670024232)
    train = PulseSchedule(kick_strength=KICK, sigma_red=SIGMA, t0_red=T0,
                          carrier_omega=OMEGA, period_red=0.3, count=2)
    # dense enough that each window holds more than one block of samples
    samples = np.arange(1400) * 0.0005
    windows = pulse_windows(train, 5.0, samples[-1])
    assert len(windows) == 2
    for a, b in windows:
        assert np.count_nonzero((samples > a) & (samples <= b)) > SAMPLE_BLOCK
    _assert_matches_the_per_sample_loop(pieces, train, samples, WATCH)


# --- run-length default ---------------------------------------------------------

def test_default_total_time():
    def length(**pulse):
        return run_length_ps(dataclasses.replace(RunConfig(), pulse=PulseConfig(**pulse)))

    tu_ps = time_unit_seconds(0.12) * 1e12
    assert length() == 400.0
    assert length(period="hbar_over_B", count=2) == pytest.approx(2 * tu_ps + 100.0)
    assert length(period="pi_hbar_over_B", count=20) == pytest.approx(20 * math.pi * tu_ps + 100.0)
    assert length(period=1e-11, count=3) == pytest.approx(3 * 10.0 + 100.0)
    assert length(period=1e-11) == 400.0  # a period without a train changes nothing
    output = dataclasses.replace(RunConfig().output, total_time_ps=20.3)
    assert run_length_ps(dataclasses.replace(RunConfig(), output=output)) == 20.3
