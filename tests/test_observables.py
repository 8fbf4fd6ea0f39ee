import math

import numpy as np
import pytest

import oracles
from rotorpair.angular import TwoRotorBasis
from rotorpair.config import OutputConfig
from rotorpair.exceptions import QueryError
from rotorpair.observables import (
    DEFAULT_MIN_LAG_RED,
    RegularityMetrics,
    TimeSeriesRecorder,
    regularity_metrics,
)
from rotorpair.operators import build_pieces, expectation
from rotorpair.propagation import initial_state


def _superposition(basis):
    coeffs = np.zeros(basis.size, dtype=complex)
    coeffs[basis.index_of(0, 0, 0, 0)] = 1.0 / math.sqrt(2.0)
    coeffs[basis.index_of(1, 0, 0, 0)] = 1.0 / math.sqrt(2.0)
    return coeffs


def test_orientation_of_a_cos_coherence():
    # the quadrature cos(theta_1) and cos(theta_2) that the per-sample oracle columns use
    basis = TwoRotorBasis(1)
    psi = _superposition(basis)
    cos1, cos2 = (expectation(op, psi) for op in oracles.orientation_pair(basis))
    assert cos1.real == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-14)
    assert cos2.real == pytest.approx(0.0, abs=1e-14)


def _recorder(basis, watch, **output):
    return TimeSeriesRecorder(build_pieces(basis, 0.1), OutputConfig(watch_populations=watch, **output))


def _fold(basis, coeffs):
    """The sector row S^T c of a basis state c that lies in the sector."""
    s = oracles.sector_isometry(basis)
    folded = s.T @ coeffs
    assert np.abs(s @ folded - coeffs).max() <= 1e-15
    return folded


def test_population_lookup():
    basis = TwoRotorBasis(1)
    rec = _recorder(basis, ((0, 0, 0, 0), (1, 0, 1, 0)))
    rec(np.array([0.0]), np.array([0]), initial_state(oracles.sector_isometry(basis).shape[1])[None, :])
    assert rec.column((0, 0, 0, 0)).tolist() == [1.0]
    assert rec.column((1, 0, 1, 0)).tolist() == [0.0]
    # a watched entry as JSON gives it, a list, is the same column
    assert rec.column([1, 0, 1, 0]).tolist() == [0.0]
    # an entry of the basis that is not watched, or an unknown name, names the columns
    with pytest.raises(QueryError, match=r"no column \(1, -1, 1, 1\); the columns are \('t_red', .*\(1, 0, 1, 0\)\)"):
        rec.column((1, -1, 1, 1))
    with pytest.raises(QueryError, match=r"no column 'cos3'; the columns are \('t_red', 'h0_expect', 't_ps'"):
        rec.column("cos3")
    with pytest.raises(QueryError):
        _recorder(basis, ((1, 1, 0, 0),))


def test_rotational_energy():
    basis = TwoRotorBasis(1)
    coeffs = np.zeros(basis.size, dtype=complex)
    coeffs[basis.index_of(1, 0, 1, 0)] = math.sqrt(0.5)
    coeffs[basis.index_of(0, 0, 0, 0)] = math.sqrt(0.5)
    rec = _recorder(basis, ())
    rec(np.array([0.0]), np.array([0]), _fold(basis, coeffs)[None, :])
    assert rec.column("energy_rot")[0] == pytest.approx(2.0, abs=1e-14)


def test_the_recorder_reads_basis_quantities_off_the_sector_rows():
    # the columns of sector rows f equal what the basis states S f give
    basis = TwoRotorBasis(3)
    s = oracles.sector_isometry(basis)
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((5, s.shape[1])) + 1j * rng.standard_normal((5, s.shape[1]))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    watch = ((0, 0, 0, 0), (2, 1, 1, -1), (3, -2, 2, 2))
    rec = _recorder(basis, watch)
    rec(np.arange(5.0), np.arange(5), rows)
    full = (s @ rows.T).T
    # the quadrature cos(theta) carries rounding of a few 1e-15 per element
    for name, op in zip(("cos1", "cos2"), oracles.orientation_pair(basis)):
        assert np.abs(rec.column(name) - expectation(op, full).real).max() <= 1e-14
    assert np.array_equal(rec.column("cos1"), rec.column("cos2"))
    assert np.abs(rec.column("energy_rot") - np.abs(full) ** 2 @ basis.rotor_diagonal).max() <= 1e-13
    assert np.abs(rec.column("norm") - np.linalg.norm(full, axis=1)).max() <= 1e-15
    for entry in watch:
        assert np.array_equal(rec.column(entry), np.abs(full[:, basis.index_of(*entry)]) ** 2)


# --- recorder -----------------------------------------------------------------

def test_recorder_collects_samples():
    basis = TwoRotorBasis(1)
    rec = _recorder(basis, ((0, 0, 0, 0), (1, 0, 0, 0)), sample_interval_ps=0.5)
    # |00;00> / sqrt(2) + (|10;00> + |00;10>) / 2, even under the swap
    psi = _superposition(basis)
    psi[basis.index_of(1, 0, 0, 0)] = psi[basis.index_of(0, 0, 1, 0)] = 0.5
    psi = _fold(basis, psi)
    rec(np.array([0.0]), np.array([0]), initial_state(oracles.sector_isometry(basis).shape[1])[None, :])
    rec(np.array([0.011, 0.022]), np.array([1, 2]), np.stack([psi, psi]))

    assert rec.column("t_ps").tolist() == [0.0, 0.5, 1.0]
    assert rec.column("t_red").tolist() == [0.0, 0.011, 0.022]
    assert rec.column((0, 0, 0, 0))[0] == 1.0
    assert rec.column((0, 0, 0, 0))[1] == pytest.approx(0.5, abs=1e-14)
    # 2 Re(c_00 c_10 <00|cos|10>) = 2 (1/sqrt 2)(1/2)(1/sqrt 3) on each molecule
    assert rec.column("cos1") == pytest.approx([0.0] + [1.0 / math.sqrt(6.0)] * 2, abs=1e-14)
    assert np.array_equal(rec.column("cos2"), rec.column("cos1"))
    assert rec.column("entropy")[0] == pytest.approx(0.0, abs=1e-12)
    assert rec.column("norm") == pytest.approx([1.0] * 3, abs=1e-14)
    assert rec.column("energy_rot") == pytest.approx([0.0, 1.0, 1.0], abs=1e-14)
    assert np.allclose(rec.column((1, 0, 0, 0)), [0.0, 0.25, 0.25], atol=1e-14)
    # one CSV row per sample: the six base columns, then the watch list
    assert rec.table().shape == (3, 8)
    assert np.array_equal(rec.table()[:, 3], rec.column("entropy"))


def test_recorder_columns_do_not_depend_on_the_block_size():
    # the run's queue decides where a sample falls in its block; no column may round differently for it
    basis = TwoRotorBasis(8)
    n_s = oracles.sector_isometry(basis).shape[1]
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((130, n_s)) + 1j * rng.standard_normal((130, n_s))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    times = np.arange(130) * 0.0113

    def table(sizes):
        rec = _recorder(basis, ((0, 0, 0, 0), (1, 0, 1, 0)))
        for lo, hi in zip(np.cumsum([0] + sizes[:-1]), np.cumsum(sizes)):
            rec(times[lo:hi], np.arange(lo, hi), rows[lo:hi])
        return np.column_stack([rec.table(), rec.column("h0_expect")])

    whole = table([130])
    for sizes in ([1] * 130, [7] * 18 + [4], [64, 64, 2]):
        assert np.array_equal(table(sizes), whole)


def test_recorder_starts_empty():
    rec = _recorder(TwoRotorBasis(1), ((0, 0, 0, 0),))
    assert rec.column("cos1").size == 0
    assert rec.table().shape == (0, 7)


def test_recorder_rejects_watch_entries_outside_the_basis():
    basis = TwoRotorBasis(1)
    with pytest.raises(QueryError):
        _recorder(basis, ((2, 0, 0, 0),))
    with pytest.raises(QueryError):
        _recorder(basis, ((1, 1, 0, 0),))  # wrong total M


# --- regularity metrics ---------------------------------------------------------

def _uniform_times(n, dt):
    return np.arange(n) * dt


def test_autocorr_peak_of_a_periodic_signal_is_high():
    t = _uniform_times(256, 0.1)
    x = np.sin(2.0 * np.pi * t / 3.2)  # period = 32 samples, 8 full cycles
    m = regularity_metrics(t, x, np.zeros_like(t), np.array([]))
    assert m.autocorr_peak > 0.99
    assert m.energy_growth_rate == 0.0  # fewer than two pulses


def test_autocorr_peak_of_white_noise_is_low():
    rng = np.random.default_rng(42)
    t = _uniform_times(512, 0.1)
    x = rng.standard_normal(512)
    m = regularity_metrics(t, x, np.zeros_like(t), np.array([]))
    assert m.autocorr_peak < 0.3
    assert isinstance(m, RegularityMetrics)


def test_min_lag_excludes_trivial_short_lags():
    # a slow drift autocorrelates strongly at tiny lags; the default floor
    # (half the orientation revival) must skip those
    t = _uniform_times(128, 0.05)
    dt = 0.05
    k_min = math.ceil(DEFAULT_MIN_LAG_RED / dt)
    assert k_min > 1
    x = np.sin(2.0 * np.pi * t / (t[-1] * 4.0))  # quarter-cycle drift
    m_default = regularity_metrics(t, x, np.zeros_like(t), np.array([]))
    m_tiny = regularity_metrics(t, x, np.zeros_like(t), np.array([]), min_lag_red=dt)
    assert m_tiny.autocorr_peak >= m_default.autocorr_peak


def test_energy_growth_rate_of_a_staircase():
    t = _uniform_times(200, 0.5)
    centers = np.array([10.0, 30.0, 50.0, 70.0])
    energy = 2.0 * np.searchsorted(centers, t, side="right").astype(float)
    m = regularity_metrics(t, np.sin(t), energy, centers)
    # after pulse k the energy sits at 2(k+1): slope 2 per pulse
    assert m.energy_growth_rate == pytest.approx(2.0, abs=1e-10)


def test_constant_series_has_zero_scores():
    t = _uniform_times(128, 0.1)
    x = np.ones(128)
    m = regularity_metrics(t, x, np.zeros_like(t), np.array([]))
    assert m.autocorr_peak == 0.0


def test_regularity_metrics_input_validation():
    t = _uniform_times(128, 0.1)
    x = np.zeros(128)
    with pytest.raises(QueryError):
        regularity_metrics(t, x[:-1], x, np.array([]))
    with pytest.raises(QueryError):
        regularity_metrics(t[:32], x[:32], x[:32], np.array([]))  # too short
    with pytest.raises(QueryError):
        jitter = t.copy()
        jitter[64] += 0.03
        regularity_metrics(jitter, x, x, np.array([]))
    with pytest.raises(QueryError):
        regularity_metrics(t, x, x, np.array([]), min_lag_red=100.0)  # lag beyond N/2


def test_growth_rate_needs_a_sample_before_each_center():
    t = _uniform_times(128, 0.1)
    x = np.zeros(128)
    with pytest.raises(QueryError):
        regularity_metrics(t, x, x, np.array([-2.0, -1.0]))


def test_growth_rate_needs_a_sample_after_each_center():
    x = np.zeros(128)
    with pytest.raises(QueryError):  # the series ends at 12.7, before the last two centers
        regularity_metrics(_uniform_times(128, 0.1), x, x, np.array([1.0, 5.0, 10.0, 15.0, 20.0]))
    with pytest.raises(QueryError):  # samples every 1.5, pulses every 1.0: none between 3.25 and 4.25
        regularity_metrics(_uniform_times(128, 1.5), x, x, 0.25 + np.arange(10.0))
