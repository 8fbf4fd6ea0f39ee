import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import oracles
from rotorpair import propagation
from rotorpair.angular import TwoRotorBasis
from rotorpair.config import IntegratorSettings, OutputConfig, PulseConfig, RunConfig
from rotorpair.exceptions import ConsistencyError, InvalidConfigError, StepSizeError
from rotorpair.observables import COLUMNS, TimeSeriesRecorder
from rotorpair.operators import PulseSchedule, build_pieces, expectation
from rotorpair.propagation import (
    GAUSS_MATRIX,
    GAUSS_NODES,
    GAUSS_STAGES,
    GAUSS_WEIGHTS,
    SAMPLE_BLOCK,
    STEP_BAND_EDGES,
    SWEEP_RATE,
    FreeEvolution,
    RightHandSide,
    initial_state,
    rk4_integrate,
    run_schedule,
    schrodinger_rhs,
    step_plan,
)
from rotorpair.units import run_length_ps, time_unit_seconds, to_reduced

# reduced parameters of the default molecule pair, rounded is fine here:
# these tests probe the integrator, not the unit conversion
KICK = 386.21612373411443
SIGMA = 0.006306465451214133
T0 = 0.027124582585867238
OMEGA = 249.9999998468202
DT = SIGMA / 2.0  # the default pulse-core step
TOL = IntegratorSettings().norm_tolerance


def _single_pulse(kick=KICK):
    return PulseSchedule(kick_strength=kick, sigma_red=SIGMA, t0_red=T0, carrier_omega=OMEGA)


def _windows(pulse, t_end):
    return oracles.rk4_windows(step_plan(pulse, t_end, DT))


def _step_to(rhs, pulse, y, t_end, dt):
    """y stepped over a plan of [0, t_end] that holds no free segment."""
    for a, b, h in step_plan(pulse, t_end, dt):
        assert h > 0.0
        y = oracles.strict_rk4(rhs, y, a, b, h)[0]
    return y


def _free(h0, split, coeffs, tau):
    """exp(-i H0 tau) c through a fresh FreeEvolution on the blocks [0, split) and [split, n)."""
    free = FreeEvolution(h0, split)
    return free.advance(free.project(coeffs), np.array([tau]))[0]


# --- wavefunction and config -------------------------------------------------

def test_initial_state_is_a_fresh_unit_ground_state():
    basis = TwoRotorBasis(1)
    n_s = oracles.sector_isometry(basis).shape[1]
    c = initial_state(n_s)
    assert c.dtype == np.complex128 and c.shape == (n_s,)
    assert np.linalg.norm(c) == 1.0
    # the sector row of |00;00>, with weight 1 on it and on no other basis state
    unfolded = oracles.sector_isometry(basis) @ c
    assert np.array_equal(np.flatnonzero(unfolded), [basis.index_of(0, 0, 0, 0)])
    assert unfolded[basis.index_of(0, 0, 0, 0)] == 1.0
    c[0] = 0.0
    assert initial_state(n_s)[0] == 1.0


def test_integrator_settings_defaults_and_validation():
    settings = IntegratorSettings()
    assert settings.dt_pulse_fs is None
    assert STEP_BAND_EDGES[-1] == 5.0
    assert settings.norm_tolerance == 1e-8
    assert to_reduced(RunConfig())[2] == pytest.approx(DT)
    # the step and the tolerance are checked where a run is configured
    for settings in (IntegratorSettings(dt_pulse_fs=0.0), IntegratorSettings(norm_tolerance=0.0)):
        with pytest.raises(InvalidConfigError):
            RunConfig(integrator=settings)


# --- free evolution ----------------------------------------------------------

def test_free_evolution_applies_the_energy_phase():
    basis = TwoRotorBasis(1)
    ops = oracles.basis_operators(basis, 0.0)
    c = np.zeros(basis.size, dtype=complex)
    k = basis.index_of(1, 0, 1, 0)
    c[k] = 1.0
    tau = 0.37
    out = _free(ops.h0, basis.size, c, tau)  # the whole basis as one block
    # E = l1(l1+1) + l2(l2+1) = 4
    assert out[k] == pytest.approx(np.exp(-1j * 4.0 * tau), rel=1e-12)
    assert abs(out[basis.index_of(0, 0, 0, 0)]) < 1e-15


def test_free_evolution_beats_at_the_level_splitting():
    # (|00> + |10>)/sqrt(2) on molecule 1: <cos th1>(t) = cos(2t)/sqrt(3)
    basis = TwoRotorBasis(1)
    ops = oracles.basis_operators(basis, 0.0)
    cos1, _ = oracles.orientation_pair(basis)
    c = np.zeros(basis.size, dtype=complex)
    c[basis.index_of(0, 0, 0, 0)] = 1.0 / math.sqrt(2.0)
    c[basis.index_of(1, 0, 0, 0)] = 1.0 / math.sqrt(2.0)
    for tau in (0.0, 0.3, 1.1):
        out = _free(ops.h0, basis.size, c, tau)
        expected = math.cos(2.0 * tau) / math.sqrt(3.0)
        assert expectation(cos1, out).real == pytest.approx(expected, abs=1e-12)


def test_free_evolution_reuse_matches_fresh_construction():
    pieces = build_pieces(TwoRotorBasis(2), 0.5)
    free = FreeEvolution(pieces.h0, pieces.basis.sector_split)
    c = initial_state(pieces.h0.shape[0])
    first = free.advance(free.project(c), np.array([0.8]))[0]
    again = free.advance(free.project(c), np.array([0.8]))[0]
    assert np.array_equal(first, again)
    assert np.allclose(first, _free(pieces.h0, pieces.basis.sector_split, c, 0.8), atol=1e-15)


def test_free_block_rows_match_one_advance_each():
    pieces = build_pieces(TwoRotorBasis(2), 0.5)
    free = FreeEvolution(pieces.h0, pieces.basis.sector_split)
    n_s = pieces.h0.shape[0]
    rng = np.random.default_rng(3)
    c = rng.standard_normal(n_s) + 1j * rng.standard_normal(n_s)
    taus = np.array([0.0, 0.1, 0.7, 2.3])
    block = free.advance(free.project(c), taus)
    assert block.shape == (4, n_s)
    energies, vectors = np.linalg.eigh(pieces.h0.toarray())
    for tau, row in zip(taus, block):
        ref = vectors @ (np.exp(-1j * energies * tau) * (vectors.conj().T @ c))
        assert np.abs(row - ref).max() < 1e-13


def test_blocked_free_evolution_matches_the_dense_exponential():
    pieces = build_pieces(TwoRotorBasis(6), 0.444)
    n_s, split = pieces.h0.shape[0], pieces.basis.sector_split
    free = FreeEvolution(pieces.h0, split)
    assert len(free.energies) == n_s  # the dimension a run reports
    assert [vectors.shape for vectors in free.vectors] == [(split, split), (n_s - split, n_s - split)]
    rng = np.random.default_rng(11)
    c = rng.standard_normal(n_s) + 1j * rng.standard_normal(n_s)
    c /= np.linalg.norm(c)
    taus = np.array([0.0, 0.013, 0.4])
    for tau, row in zip(taus, free.advance(free.project(c), taus)):
        assert np.abs(row - expm(-1j * tau * pieces.h0.toarray()) @ c).max() <= 1e-13


def test_free_evolution_and_the_window_product_reject_a_complex_h0():
    pieces = build_pieces(TwoRotorBasis(1), 0.0)
    skewed = pieces.h0.astype(np.complex128)  # the pieces are real
    skewed.data[0] += 1e-3j
    with pytest.raises(ConsistencyError, match="imaginary"):
        FreeEvolution(skewed, pieces.basis.sector_split)
    # the window product is real too: a complex operator is refused, a complex-typed real one is taken
    with pytest.raises(ConsistencyError, match="imaginary"):
        schrodinger_rhs(oracles.BasisOperators(skewed, pieces.coupling, pieces.energies), _single_pulse())
    complex_typed = schrodinger_rhs(oracles.BasisOperators(pieces.h0.astype(np.complex128), pieces.coupling,
                                                           pieces.energies), _single_pulse())
    c = initial_state(pieces.h0.shape[0])
    assert np.array_equal(complex_typed.deriv(1.0, c), schrodinger_rhs(pieces, _single_pulse()).deriv(1.0, c))


# --- Gauss collocation ---------------------------------------------------------

def test_gauss_tableau_has_order_20_and_is_symplectic():
    c, b, a, s = GAUSS_NODES, GAUSS_WEIGHTS, GAUSS_MATRIX, GAUSS_STAGES
    assert s == 10 and c.shape == b.shape == (s,) and a.shape == (s, s)
    # B(2s): the weights integrate t^(k-1) exactly; C(s): so does each stage row up to c_i
    assert max(abs(b @ c ** (k - 1) - 1.0 / k) for k in range(1, 2 * s + 1)) <= 1e-15
    assert max(np.abs(a @ c ** (k - 1) - c**k / k).max() for k in range(1, s + 1)) <= 1e-15
    # b_i a_ij + b_j a_ji = b_i b_j: the condition that makes the method unitary
    assert np.abs(b[:, None] * a + (b[:, None] * a).T - np.outer(b, b)).max() <= 1e-15


def test_rk4_two_level_convergence_is_order_20():
    # i y' = (D + V) y, D = diag(0, 1) taken exactly as the rates and V = 0.3 sigma_x in deriv: in the rotor
    # frame the derivative is -i V(t) y, V(t) turning at frequency 1, so it depends on the state and the
    # stages need sweeps, and every step of the constant H makes the same error. Steps 4.8 and 4 (10 and 12
    # over [0, 48]) cut the error by 0.92 x 1.2^(2s); nine stages give 0.64 x, eleven 1.34 x. (On y' = -i y
    # alone a step is exact to rounding up to the largest step whose sweeps converge.)
    v = 0.3 * np.array([[0.0, 1.0], [1.0, 0.0]])
    rhs = RightHandSide(field=np.ones_like, deriv=lambda f, y: -1j * f * (v @ y), rates=np.array([0.0, 1.0]))
    y0 = np.array([1.0 + 0.0j, 0.0j])
    exact = expm(-48.0j * (np.diag([0.0, 1.0]) + v)) @ y0
    err = [np.abs(oracles.strict_rk4(rhs, y0, 0.0, 48.0, dt)[0] - exact).max() for dt in (4.8, 4.0)]
    assert err[1] > 1e-13
    fall = 1.2 ** (2 * GAUSS_STAGES)
    assert 0.75 * fall < err[0] / err[1] < 1.25 * fall


def test_rk4_partial_final_step_lands_on_t1():
    # the field is t itself, so dy/dt = 2t
    rhs = RightHandSide(field=lambda t: t, deriv=lambda f, y: np.array([2.0 * f]))
    # 0.37 is not a multiple of 0.1: a 0.07 closing step is needed
    y, _ = oracles.strict_rk4(rhs, np.array([0.0]), 0.0, 0.37, 0.1)
    assert y[0] == pytest.approx(0.37**2, rel=1e-12)


@pytest.mark.parametrize("leftover", [5e-13, -5e-14])
def test_rk4_a_leftover_under_the_threshold_goes_to_the_last_step(leftover):
    # ten steps of 0.1 over [0, 1 + leftover]: 5e-13 is under 1e-12 max(|t1|, 1), and -5e-14 floors to ten
    # steps; either way the leftover is no step of its own, and the rotor phase E t shows where the span ends
    energy, calls = 1e4, []
    rhs = RightHandSide(field=np.zeros_like, deriv=lambda f, y: calls.append(f) or np.zeros_like(y),
                        rates=np.array([energy]))
    t1 = 1.0 + leftover
    y, _ = oracles.strict_rk4(rhs, np.array([1.0 + 0.0j]), 0.0, t1, 0.1)
    assert len(calls) == 10
    assert abs(y[0] - np.exp(-1j * energy * t1)) <= 1e-11  # energy * |leftover| >= 5e-10


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
    # 5 full steps and no closing fragment; a zero derivative converges in one sweep
    assert len(calls) == 5
    # the stage fields of all 5 steps come from one call
    assert fields == [(5, GAUSS_STAGES)]


def test_sweeps_that_contract_too_slowly_return_their_stall_with_the_state_reached():
    # on y' = -i y the sweeps contract by h SWEEP_RATE: 0.75 here, so they need
    # about 120 sweeps and stop at MAX_SWEEPS
    rhs = RightHandSide(field=np.zeros_like, deriv=lambda f, y: -1j * y)
    dt = 0.75 / SWEEP_RATE
    state, rows, (t, _) = rk4_integrate(rhs, np.array([1.0 + 0.0j]), 0.0, 2.0 * dt, dt, [0.5 * dt, 1.5 * dt])
    assert state.shape == (1,) and np.isfinite(state[0])
    # the span still ends: every sample has its row, and the first stalled step starts at 0
    assert rows.shape == (2, 1) and np.all(np.isfinite(rows))
    assert t == 0.0
    # a quarter of that step converges
    y, _ = oracles.strict_rk4(rhs, np.array([1.0 + 0.0j]), 0.0, 2.0 * dt, dt / 4.0)
    assert abs(y[0] - np.exp(-2j * dt)) <= 1e-7


@pytest.mark.parametrize("case", ["clipped_at_zero", "merged_train", "partial_step"])
def test_window_kernel_matches_the_dense_stage_solve(case):
    pieces = build_pieces(TwoRotorBasis(4 if case == "clipped_at_zero" else 2),
                          0.13150852670024232)
    pulse = _single_pulse()
    if case == "merged_train":
        # period 6 sigma < 10 sigma: the three windows fuse and the Gaussians overlap
        pulse = PulseSchedule(kick_strength=KICK, sigma_red=SIGMA, t0_red=T0,
                              carrier_omega=OMEGA, period_red=6.0 * SIGMA, count=3)
    (t_a, t_b), = _windows(pulse, 1.0)
    assert t_a == 0.0
    if case == "partial_step":
        t_a, t_b = T0 - 0.7 * SIGMA, T0 + 1.5137 * SIGMA
        span = (t_b - t_a) / DT
        assert span - math.floor(span) > 0.1
    # a random state of the symmetric sector, stepped there and unfolded
    s = oracles.sector_isometry(pieces.basis)
    rng = np.random.default_rng(5)
    c = rng.standard_normal(s.shape[1]) + 1j * rng.standard_normal(s.shape[1])
    c /= np.linalg.norm(c)
    got = s @ oracles.strict_rk4(schrodinger_rhs(pieces, pulse), c, t_a, t_b, DT)[0]
    ref = oracles.dense_collocation(oracles.basis_operators(pieces.basis, 0.13150852670024232), pulse,
                                    s @ c, t_a, t_b, DT)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


# --- windowed pulse integration ----------------------------------------------

def test_window_with_zero_kick_matches_free_evolution():
    ops = oracles.basis_operators(TwoRotorBasis(2), 0.5)
    pulse = _single_pulse(kick=0.0)
    c = oracles.ground_state(ops)
    rhs = schrodinger_rhs(ops, pulse)
    stepped, _ = oracles.strict_rk4(rhs, c, 0.0, 0.2, 2e-4)
    assert np.abs(stepped - _free(ops.h0, ops.h0.shape[0], c, 0.2)).max() < 1e-10


def _assert_order_near_2s(integrate, measured_log2_fall):
    """Steps sigma and sigma / sqrt 2 against sigma / 16: asymptotically the error falls by 2^s. No pair of
    steps whose sweeps converge and whose finer error is above rounding is that far in (at sigma the sweeps
    stall from 1.3 times the default kick, and a quarter-octave falls by 2^4.3 to 2^4.6, not 2^5), so the
    fall is held to within 0.75 of the measured 2^measured_log2_fall: 2^8.5 on the plain window and 2^9.6
    on the banded one, against 2^6 for an order-12 method."""
    ref = integrate(SIGMA / 16.0)
    err_coarse = np.abs(integrate(SIGMA) - ref).max()
    err_fine = np.abs(integrate(SIGMA / math.sqrt(2.0)) - ref).max()
    assert err_coarse > err_fine > 1e-13
    assert 0.75 * 2.0**measured_log2_fall < err_coarse / err_fine < 1.25 * 2.0**GAUSS_STAGES


def test_window_step_refinement_is_high_order():
    pieces = build_pieces(TwoRotorBasis(2), 0.13150852670024232)
    c0 = initial_state(pieces.h0.shape[0])
    rhs = schrodinger_rhs(pieces, _single_pulse())
    _assert_order_near_2s(lambda dt: oracles.strict_rk4(rhs, c0, 0.0, T0 + 5.0 * SIGMA, dt)[0], 8.5)


def test_window_integration_is_time_reversible():
    basis = TwoRotorBasis(2)
    pieces = build_pieces(basis, 0.13150852670024232)
    pulse = _single_pulse()
    c0 = initial_state(pieces.h0.shape[0])
    t_b = T0 + 5.0 * SIGMA
    ahead = schrodinger_rhs(pieces, pulse)
    forward, _ = oracles.strict_rk4(ahead, c0, 0.0, t_b, DT)

    # s = t_b - t runs the window backwards: dg/ds = +i H(t_b - s) g
    backwards = RightHandSide(field=lambda s: ahead.field(t_b - s),
                              deriv=lambda f, g: -ahead.deriv(f, g), rates=-ahead.rates)
    back, _ = oracles.strict_rk4(backwards, forward, 0.0, t_b, DT)
    assert np.abs(back - c0).max() < 1e-6


def test_samples_inside_steps_match_the_cut_steps_they_replace():
    # samples inside core and banded steps of the pulse window, against the state stepped to each
    # sample, which ends in a partial step there
    pieces, c = _spread_sector_state(4)
    pulse = _single_pulse()
    rhs = schrodinger_rhs(pieces, pulse)
    t_a, t_b = T0 - 1.3 * SIGMA, T0 + 1.4 * SIGMA
    samples = t_a + np.array([0.05, 0.5, 0.99, 2.0, 3.7, 5.3]) * DT
    end, rows = oracles.strict_rk4(rhs, c, t_a, t_b, DT, samples)
    assert np.array_equal(end, oracles.strict_rk4(rhs, c, t_a, t_b, DT)[0])
    for t, row in zip(samples, rows):
        assert np.abs(row - oracles.strict_rk4(rhs, c, t_a, t, DT)[0]).max() <= 1e-13
    # a sample on a step's end is that step's end state
    assert np.array_equal(oracles.strict_rk4(rhs, c, t_a, t_b, DT, [(t_a + DT) + DT])[1][0],
                          oracles.strict_rk4(rhs, c, t_a, (t_a + DT) + DT, DT)[0])


@pytest.mark.parametrize("theta", [0.3, 0.8])
@pytest.mark.parametrize("offset, h", [(SIGMA, DT), (1.6 * SIGMA, 2.0 * DT)], ids=["core", "first_band"])
def test_a_side_step_started_on_the_step_polynomial_sweeps_half_as_often(offset, h, theta):
    # a step on either side of the 1.5 sigma edge; at the peak, where the polynomial's stage order
    # shows most, the start saves a third to a half of the sweeps, and over a window about half
    pieces, c = _spread_sector_state(4)
    rhs, calls = schrodinger_rhs(pieces, _single_pulse()), []
    rhs.deriv = lambda f, y, deriv=rhs.deriv: calls.append(1) or deriv(f, y)
    t = T0 + offset
    rk4_integrate(rhs, c, t, t + h, h)
    main = len(calls)
    _, (row,) = oracles.strict_rk4(rhs, c, t, t + h, h, [t + theta * h])
    polynomial = len(calls) - 2 * main
    from_start, _ = oracles.strict_rk4(rhs, c, t, t + theta * h, theta * h)
    from_y = len(calls) - 2 * main - polynomial
    assert 1 <= polynomial <= 0.5 * from_y
    assert np.abs(row - from_start).max() <= 1e-14


def test_run_schedule_calls_the_stepper_once_per_collocation_segment(monkeypatch):
    train = PulseSchedule(kick_strength=KICK, sigma_red=SIGMA, t0_red=T0, carrier_omega=OMEGA,
                          period_red=0.3, count=2)
    samples = np.arange(200) * 0.004
    calls = []
    integrate = propagation.rk4_integrate
    monkeypatch.setattr(propagation, "rk4_integrate", lambda rhs, y, t0, t1, dt, times: calls.append(
        (t0, t1, dt, times.tolist())) or integrate(rhs, y, t0, t1, dt, times))
    run_schedule(build_pieces(TwoRotorBasis(2), 0.13150852670024232), train, DT, TOL, samples)
    segments = [(a, b, h, samples[(samples > a) & (samples <= b)].tolist())
                for a, b, h in step_plan(train, samples[-1], DT) if h > 0.0]
    assert len(segments) == 14 and calls == segments


def test_a_run_frees_its_right_hand_side_without_the_cycle_collector(monkeypatch):
    # the right-hand side holds the run's [W; V] and its band frames; a reference cycle through it
    # would keep them alive after the run, until the next collection
    made, build = [], propagation.schrodinger_rhs

    def weakly_kept(*args):
        rhs = build(*args)
        made.append(weakref.ref(rhs))
        return rhs

    monkeypatch.setattr(propagation, "schrodinger_rhs", weakly_kept)
    pieces, collecting = build_pieces(TwoRotorBasis(2), 0.13150852670024232), gc.isenabled()
    gc.disable()
    try:
        run_schedule(pieces, _single_pulse(), DT, TOL, np.arange(20) * 0.004)
    finally:
        if collecting:
            gc.enable()
    assert len(made) == 1 and made[0]() is None


def test_window_raises_on_norm_drift():
    basis = TwoRotorBasis(2)
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


# --- rotor frame and step bands -------------------------------------------------

def _spread_sector_state(l_max, seed=11):
    """A unit state of the symmetric sector with weight on every sector state."""
    pieces = build_pieces(TwoRotorBasis(l_max), 0.13150852670024232)
    n_s = pieces.h0.shape[0]
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n_s) + 1j * rng.standard_normal(n_s)
    return pieces, c / np.linalg.norm(c)


def test_rk4_with_zero_rates_is_expm_of_a_constant_h():
    pieces, c = _spread_sector_state(2)
    # H frozen at a peak field value, with the rotor energies inside deriv
    h = (pieces.h0 + KICK * pieces.coupling).toarray()
    constant = RightHandSide(np.zeros_like, lambda f, y: -1j * (h @ y))
    t_a, t_b = T0 - 0.7 * SIGMA, T0 + 1.3137 * SIGMA
    got, _ = oracles.strict_rk4(constant, c, t_a, t_b, DT)
    assert np.abs(got - expm(-1j * h * (t_b - t_a)) @ c).max() <= 1e-14


def test_a_diagonal_only_problem_is_exact_at_eight_core_steps():
    energies = build_pieces(TwoRotorBasis(8), 0.13150852670024232).energies
    rhs = RightHandSide(np.zeros_like, lambda f, y: np.zeros_like(y), energies)
    c = np.full(energies.size, energies.size**-0.5, dtype=complex)
    t_a, t_b = T0 - 5.0 * SIGMA, T0 + 5.0 * SIGMA
    got, _ = oracles.strict_rk4(rhs, c, t_a, t_b, 8.0 * DT)
    assert np.abs(got - np.exp(-1j * energies * (t_b - t_a)) * c).max() <= 1e-13


def test_banded_window_step_refinement_is_high_order():
    pieces, c = _spread_sector_state(2)
    pulse = _single_pulse()
    rhs = schrodinger_rhs(pieces, pulse)
    _assert_order_near_2s(lambda dt: _step_to(rhs, pulse, c, T0 + 5.0 * SIGMA, dt), 9.6)


@pytest.mark.parametrize("count", [1, 2])
def test_plan_bands_tile_the_run_and_keep_the_core_at_dt(count):
    # period 6 sigma < 10 sigma: two pulses share one window
    pulse = PulseSchedule(kick_strength=KICK, sigma_red=SIGMA, t0_red=T0, carrier_omega=OMEGA,
                          period_red=6.0 * SIGMA, count=count)
    plan = step_plan(pulse, 1.0, DT)
    assert plan[0][0] == 0.0 and plan[-1][1] == 1.0
    assert all(prev[1] == nxt[0] < nxt[1] for prev, nxt in zip(plan, plan[1:]))
    for a, b, h in plan:
        d = np.abs(pulse.centers() - 0.5 * (a + b)).min() / SIGMA
        assert h == (DT * 2 ** sum(d > edge for edge in STEP_BAND_EDGES) if d <= 5.0 else 0.0)
        if h > DT or h == 0.0:  # no coarse step comes within 1.5 sigma of any center
            assert np.all((pulse.centers() + 1.5 * SIGMA <= a) | (pulse.centers() - 1.5 * SIGMA >= b))
    # the window opens at t = 0, 4.3 sigma before the first center; a free segment closes the run
    assert [h / DT for _, _, h in plan] == ([8, 4, 2, 1, 2, 4, 8, 0] if count == 1
                                            else [8, 4, 2, 1, 2, 4, 2, 1, 2, 4, 8, 0])


def _sigmas(lo, hi):
    return st.floats(lo, hi).map(lambda x: x * SIGMA)


@settings(max_examples=200, deadline=None)
@given(count=st.integers(1, 30), period=_sigmas(0.5, 30.0), t0=_sigmas(-20.0, 60.0),
       t_end=_sigmas(0.01, 1000.0), dt=_sigmas(1e-3, 0.1), where=st.lists(st.floats(0.0, 1.0), max_size=5))
def test_step_plan_tiles_the_run_with_graded_steps(count, period, t0, t_end, dt, where):
    pulse = PulseSchedule(kick_strength=KICK, sigma_red=SIGMA, t0_red=t0, carrier_omega=OMEGA,
                          period_red=period, count=count)
    centers = pulse.centers()
    plan = step_plan(pulse, t_end, dt)
    assert plan[0][0] == 0.0 and plan[-1][1] == t_end
    assert all(a < b for a, b, _ in plan)
    assert all(prev[1] == nxt[0] for prev, nxt in zip(plan, plan[1:]))
    assert not any(prev[2] == nxt[2] == 0.0 for prev, nxt in zip(plan, plan[1:]))
    slack = 1e-9 * SIGMA  # the cuts are c +- edge in floating point
    for a, b, h in plan:
        if h == 0.0:  # every point of a free segment is more than 5 sigma from every center
            assert np.all((centers + 5.0 * SIGMA <= a + slack) | (centers - 5.0 * SIGMA >= b - slack))
        if h == 0.0 or h > dt:  # no step above dt within 1.5 sigma of any center
            assert np.all((centers + 1.5 * SIGMA <= a + slack) | (centers - 1.5 * SIGMA >= b - slack))
        for u in [0.5, *where]:
            t = a + u * (b - a)
            d = np.abs(centers - t).min()
            if h > 0.0 and not np.any(np.abs(d - SIGMA * np.array(STEP_BAND_EDGES)) <= slack):
                assert h == dt * 2 ** sum(d > SIGMA * edge for edge in STEP_BAND_EDGES)


def _classical_window_error(ops, pulse, dt, y, t_a, t_b):
    """The banded collocation run at dt against uniform classical RK4 at
    sigma / 400, the step and method it replaced, with the H0, V and rotor
    energies of ops: the pieces of a sector, or the operators of a basis."""
    rhs = schrodinger_rhs(ops, pulse)
    assert t_a == 0.0
    got = _step_to(rhs, pulse, y, t_b, dt)
    return np.abs(got - oracles.classical_rk4(rhs, y, t_a, t_b, pulse.sigma_red / 400.0)).max()


def test_rotor_frame_bands_stay_within_1e10_of_classical_rk4():
    # criterion 2's window: fig1a on the l_max 2 basis, unfolded, from the ground state
    schedule, dipole, dt, _ = to_reduced(RunConfig())
    assert dt == schedule.sigma_red / 2.0
    ops = oracles.basis_operators(TwoRotorBasis(2), dipole)
    (t_a, t_b), = oracles.rk4_windows(step_plan(schedule, 10.0, dt))
    err = _classical_window_error(ops, schedule, dt, oracles.ground_state(ops), t_a, t_b)
    assert err <= 1e-10
    # every sector state at l_max 6 carries weight, up to rotor energy 84
    pieces, c = _spread_sector_state(6)
    assert _classical_window_error(pieces, schedule, dt, c, t_a, t_b) <= 1e-10


# --- step plan ---------------------------------------------------------------

def test_step_plan_zero_kick_is_one_free_segment():
    assert step_plan(_single_pulse(kick=0.0), 10.0, DT) == [(0.0, 10.0, 0.0)]


def test_step_plan_single_pulse_clipped_at_zero():
    w = _windows(_single_pulse(), 10.0)
    assert len(w) == 1
    a, b = w[0]
    assert a == 0.0  # t0 < 5 sigma, so the left edge clips
    assert b == pytest.approx(T0 + 5.0 * SIGMA)


def test_step_plan_has_no_free_segment_between_overlapping_pulses():
    pulse = PulseSchedule(kick_strength=1.0, sigma_red=0.1, t0_red=0.5,
                          carrier_omega=1.0, period_red=0.3, count=3)
    # 5 sigma = 0.5 > period, so all three windows fuse into one
    plan = step_plan(pulse, 10.0, DT)
    w = oracles.rk4_windows(plan)
    assert len(w) == 1
    assert w[0] == (0.0, pytest.approx(0.5 + 2 * 0.3 + 0.5))
    assert [h for _, _, h in plan].count(0.0) == 1  # only the closing segment is free


def test_step_plan_clips_and_drops_beyond_t_end():
    pulse = PulseSchedule(kick_strength=1.0, sigma_red=0.01, t0_red=1.0,
                          carrier_omega=1.0, period_red=2.0, count=3)
    plan = step_plan(pulse, 3.5, DT)
    w = oracles.rk4_windows(plan)
    assert len(w) == 2
    assert w[1] == (pytest.approx(2.95), pytest.approx(3.05))
    # the center at t = 5 lies wholly past t_end and is dropped
    assert all(b <= 3.5 for _, b in w)
    assert plan[-1] == (w[1][1], 3.5, 0.0)


# --- full schedule -----------------------------------------------------------

def test_run_schedule_validates_samples():
    basis = TwoRotorBasis(1)
    pieces = build_pieces(basis, 0.0)
    pulse = _single_pulse(kick=0.0)
    with pytest.raises(InvalidConfigError):
        run_schedule(pieces, pulse, DT, TOL, np.array([]))
    with pytest.raises(InvalidConfigError):
        run_schedule(pieces, pulse, DT, TOL, np.array([0.5, 1.0]))
    with pytest.raises(InvalidConfigError):
        run_schedule(pieces, pulse, DT, TOL, np.array([0.0, 1.0, 1.0]))


def test_run_schedule_without_field_is_pure_free_evolution():
    basis = TwoRotorBasis(2)
    pieces = build_pieces(basis, 0.5)
    pulse = _single_pulse(kick=0.0)
    samples = np.array([0.0, 0.5, 1.3])
    recorder = TimeSeriesRecorder(pieces, OutputConfig(watch_populations=()))
    traj = run_schedule(pieces, pulse, DT, TOL, samples, observers=(recorder,))
    assert step_plan(pulse, 1.3, DT) == [(0.0, 1.3, 0.0)]
    assert np.allclose(traj.norms, 1.0, atol=1e-12)
    assert np.ptp(recorder.column("h0_expect")) < 1e-12
    c0 = initial_state(pieces.h0.shape[0])
    free = oracles.sector_isometry(basis) @ _free(pieces.h0, basis.sector_split, c0, 1.3)
    assert np.abs(traj.psi_final - free).max() < 1e-12


def test_run_schedule_matches_a_hand_composed_run():
    # free to the window edge, RK4 across it, free to the end
    basis = TwoRotorBasis(2)
    pieces = build_pieces(basis, 0.13150852670024232)
    pulse = _single_pulse()
    t_end = 0.5
    samples = np.array([0.0, 0.25, t_end])  # no sample inside the window
    traj = run_schedule(pieces, pulse, DT, TOL, samples)
    windows = _windows(pulse, t_end)
    assert len(windows) == 1
    a, b = windows[0]

    # composed in the symmetric sector, as run_schedule propagates
    s = oracles.sector_isometry(basis)
    free = FreeEvolution(pieces.h0, pieces.basis.sector_split)
    c = initial_state(pieces.h0.shape[0])
    if a > 0:
        c = free.advance(free.project(c), np.array([a]))[0]
    c = _step_to(schrodinger_rhs(pieces, pulse), pulse, c, b, DT)
    c = free.advance(free.project(c), np.array([t_end - b]))[0]
    assert np.abs(traj.psi_final - s @ c).max() < 1e-9
    assert traj.max_norm_drift < 1e-9
    assert windows == [(max(T0 - 5.0 * SIGMA, 0.0), T0 + 5.0 * SIGMA)]


def test_run_schedule_advances_once_per_free_block_and_window_start(monkeypatch):
    # the closing free segment ends on the last sample, so it needs no extra
    # advance: psi_final is the last sector row the observers saw, unfolded
    basis = TwoRotorBasis(2)
    pulse = PulseSchedule(kick_strength=KICK, sigma_red=SIGMA, t0_red=0.5, carrier_omega=OMEGA)
    samples = np.arange(150) * 0.0113  # samples 1-41 free, 42-47 in the window, 48-149 free
    durations, rows = [], []
    advance = FreeEvolution.advance
    monkeypatch.setattr(FreeEvolution, "advance",
                        lambda self, amp, taus: durations.append(len(taus)) or advance(self, amp, taus))
    traj = run_schedule(build_pieces(basis, 0.13150852670024232), pulse, DT, TOL,
                        samples, observers=(lambda t, k, c: rows.append(c[-1]),))
    assert np.searchsorted(samples, _windows(pulse, samples[-1])[0], side="right").tolist() == [42, 48]
    assert durations == [41, 1, 64, 38]  # a block, the window start, two blocks
    assert np.array_equal(traj.psi_final, oracles.sector_isometry(basis) @ rows[-1])


def test_run_schedule_records_the_violating_sample_then_raises():
    basis = TwoRotorBasis(2)
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
    basis = TwoRotorBasis(2)
    pieces = build_pieces(basis, 0.13150852670024232)
    seen = []
    samples = np.linspace(0.0, 0.05, 11)  # all inside the pulse window
    with pytest.raises(StepSizeError, match="norm drifted"):
        # at a 1000-fold kick the stage sweeps diverge as the field ramps up
        run_schedule(pieces, _single_pulse(kick=1000.0 * KICK), DT, TOL, samples,
                     observers=(lambda t, k, c: seen.append((k, np.linalg.norm(c, axis=1))),))
    indices = np.concatenate([k for k, _ in seen])
    norms = np.concatenate([n for _, n in seen])
    assert np.array_equal(indices, np.arange(indices.size))
    assert indices.size < samples.size
    assert abs(norms[-1] - 1.0) > 1e-8
    assert np.all(np.abs(norms[:-1] - 1.0) <= 1e-8)


@pytest.mark.parametrize("samples", [np.array([0.0, 0.25, 0.5]), np.linspace(0.0, 0.05, 11)],
                         ids=["after_the_window", "inside_the_window"])
def test_run_schedule_fails_at_the_first_sample_after_stalled_sweeps(monkeypatch, samples):
    # sixteen sweeps leave the pulse-core steps short of the sweep tolerance by
    # far less than the norm tolerance: the stall itself must end the run
    monkeypatch.setattr(propagation, "MAX_SWEEPS", 16)
    pieces = build_pieces(TwoRotorBasis(2), 0.13150852670024232)
    seen, spans = [], []
    integrate = propagation.rk4_integrate
    monkeypatch.setattr(propagation, "rk4_integrate",
                        lambda rhs, y, t0, *rest: spans.append(t0) or integrate(rhs, y, t0, *rest))
    with pytest.raises(StepSizeError, match=r"^the collocation sweeps did not converge at t = \S+ \(update \S+ after 16 "
                                            r"sweeps\); reduce integrator\.dt_pulse_fs$"):
        run_schedule(pieces, _single_pulse(), DT, TOL, samples,
                     observers=(lambda t, k, c: seen.append((k, np.linalg.norm(c, axis=1))),))
    indices = np.concatenate([k for k, _ in seen])
    norms = np.concatenate([n for _, n in seen])
    assert np.array_equal(indices, np.arange(indices.size)) and 1 < indices.size < samples.size
    assert np.all(np.abs(norms - 1.0) <= 1e-8)
    # the last sample shown is the first past a stalled step, which lies in the window
    assert samples[indices[-1]] > T0 - 1.5 * SIGMA and samples[indices[-2]] < T0 + 5.0 * SIGMA
    # and no stepper call starts past it
    assert max(spans) < samples[indices[-1]]


def _three_pulse_train():
    return PulseSchedule(kick_strength=KICK, sigma_red=SIGMA, t0_red=T0, carrier_omega=OMEGA,
                         period_red=0.3, count=3)


def test_run_schedule_hands_the_observers_full_blocks_across_window_edges():
    train, samples = _three_pulse_train(), np.arange(200) * 0.004
    plan = step_plan(train, samples[-1], DT)
    free = [h == 0.0 for _, _, h in plan]
    assert free.count(True) == 3 and free[-1] and not free[0]  # windows and free segments alternate
    blocks = []
    run_schedule(build_pieces(TwoRotorBasis(2), 0.13150852670024232), train, DT, TOL, samples,
                 observers=(lambda t, k, c: blocks.append(k),))
    assert [k.size for k in blocks] == [SAMPLE_BLOCK] * 3 + [200 - 3 * SAMPLE_BLOCK]
    assert np.array_equal(np.concatenate(blocks), np.arange(200))


def test_run_schedule_shows_the_queued_window_rows_with_a_free_row_that_drifted(monkeypatch):
    # samples 1-14 are window rows; the free chunk that starts at sample 15 spoils its third row
    train, samples = _three_pulse_train(), np.arange(200) * 0.004
    events, seen = [], []
    integrate, advance = propagation.rk4_integrate, FreeEvolution.advance

    def spoiled(self, amplitudes, taus):
        rows = advance(self, amplitudes, taus)
        if taus.size > 1 and not any(e == "advance" for e, _ in events):
            rows[2] *= 1.001
        events.append(("advance", taus.size))
        return rows

    monkeypatch.setattr(FreeEvolution, "advance", spoiled)
    monkeypatch.setattr(propagation, "rk4_integrate",
                        lambda rhs, y, t0, *rest: events.append(("step", t0)) or integrate(rhs, y, t0, *rest))
    with pytest.raises(StepSizeError, match=r"norm drifted by 1\.000e-03 at t = 0\.068 "):
        run_schedule(build_pieces(TwoRotorBasis(2), 0.13150852670024232), train, DT, TOL, samples,
                     observers=(lambda t, k, c: seen.append((k, np.linalg.norm(c, axis=1))),))
    assert [k.tolist() for k, _ in seen] == [list(range(18))]  # one block: queued rows, then the bad one
    norms = seen[0][1]
    assert np.all(np.abs(norms[:-1] - 1.0) <= 1e-12) and abs(norms[-1] - 1.001) <= 1e-12
    assert events[-1][0] == "advance"  # no stepper call after the failing row
    assert max(t0 for e, t0 in events if e == "step") < samples[17]


def test_run_schedule_fails_a_nan_state_at_sample_zero(monkeypatch):
    basis = TwoRotorBasis(2)
    pieces = build_pieces(basis, 0.13150852670024232)
    psi = initial_state(pieces.h0.shape[0])
    psi[1] = np.nan
    monkeypatch.setattr(propagation, "initial_state", lambda n_s: psi)
    recorder = TimeSeriesRecorder(pieces, OutputConfig(watch_populations=()))
    with pytest.raises(StepSizeError, match="by nan at t = 0 "):
        run_schedule(pieces, _single_pulse(), DT, TOL, np.array([0.0, 0.5, 1.0]),
                     observers=(recorder,))
    assert recorder.column("t_ps").tolist() == [0.0]
    assert np.isnan(recorder.column("norm")[0])
    assert np.isnan(recorder.column("entropy")[0])


def test_run_schedule_with_one_sample_records_only_the_start():
    basis = TwoRotorBasis(2)
    pieces = build_pieces(basis, 0.13150852670024232)
    recorder = TimeSeriesRecorder(pieces, OutputConfig(watch_populations=((0, 0, 0, 0),)))
    traj = run_schedule(pieces, _single_pulse(), DT, TOL, np.array([0.0]),
                        observers=(recorder,))
    assert step_plan(_single_pulse(), 0.0, DT) == []
    assert traj.norms.tolist() == [1.0]
    assert traj.max_norm_drift == 0.0
    assert np.array_equal(traj.psi_final, np.eye(basis.size)[basis.index_of(0, 0, 0, 0)])
    assert recorder.column("t_ps").tolist() == [0.0]
    assert recorder.population_column((0, 0, 0, 0)).tolist() == [1.0]


def _assert_matches_the_per_sample_loop(basis, pulse, samples, watch, dipole=0.13150852670024232):
    blocks = []
    pieces = build_pieces(basis, dipole)
    recorder = TimeSeriesRecorder(pieces, OutputConfig(watch_populations=watch))
    traj = run_schedule(pieces, pulse, DT, TOL, samples,
                        observers=(recorder, lambda t, k, c: blocks.append(k.size)))
    states, norms, h0_expect = oracles.per_sample_schedule(oracles.basis_operators(basis, dipole), pulse, DT, samples)
    ref = oracles.per_sample_columns(pieces.basis, states, watch)

    def assert_close(got, want, what):
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert got.shape == want.shape and err.max() <= 1e-10, (what, err.max())

    for name in COLUMNS:
        assert_close(recorder.column(name), ref[name], name)
    for entry in watch:
        assert_close(recorder.population_column(entry), ref[tuple(entry)], entry)
    assert_close(recorder.column("h0_expect"), h0_expect, "h0_expect")
    assert_close(traj.norms, norms, "norms")
    assert np.abs(traj.psi_final - states[-1]).max() <= 1e-10
    assert max(blocks) <= SAMPLE_BLOCK and sum(blocks) == samples.size
    return blocks


WATCH = ((0, 0, 0, 0), (1, 0, 1, 0), (2, 0, 1, 0))


@pytest.mark.parametrize("l_max", [2, 4])
def test_block_run_of_a_single_pulse_matches_the_per_sample_loop(l_max):
    samples = np.arange(200) * 0.0113  # 0.5 ps steps, several free blocks
    blocks = _assert_matches_the_per_sample_loop(TwoRotorBasis(l_max), _single_pulse(), samples, WATCH)
    assert len(blocks) >= 4


def test_block_run_of_a_pulse_train_matches_the_per_sample_loop():
    train = PulseSchedule(kick_strength=KICK, sigma_red=SIGMA, t0_red=T0,
                          carrier_omega=OMEGA, period_red=0.3, count=2)
    # dense enough that each window holds more than one block of samples
    samples = np.arange(1400) * 0.0005
    windows = _windows(train, samples[-1])
    assert len(windows) == 2
    for a, b in windows:
        assert np.count_nonzero((samples > a) & (samples <= b)) > SAMPLE_BLOCK
    _assert_matches_the_per_sample_loop(TwoRotorBasis(4), train, samples, WATCH)


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
