import math

import numpy as np
import pytest

from rotorpair.angular import TwoRotorBasis
from rotorpair.exceptions import QueryError
from rotorpair.observables import (
    DEFAULT_MIN_LAG_RED,
    RegularityMetrics,
    TimeSeriesRecorder,
    regularity_metrics,
)
from rotorpair.operators import build_costheta_single, expectation
from rotorpair.propagation import initial_state


def _superposition(basis):
    coeffs = np.zeros(basis.size, dtype=complex)
    coeffs[basis.index_of(0, 0, 0, 0)] = 1.0 / math.sqrt(2.0)
    coeffs[basis.index_of(1, 0, 0, 0)] = 1.0 / math.sqrt(2.0)
    return coeffs


def test_orientation_of_a_cos_coherence():
    basis = TwoRotorBasis(1, None)
    psi = _superposition(basis)
    cos1 = expectation(build_costheta_single(basis, "mol1"), psi)
    cos2 = expectation(build_costheta_single(basis, "mol2"), psi)
    assert cos1.real == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-14)
    assert cos2.real == pytest.approx(0.0, abs=1e-14)


def test_population_lookup():
    basis = TwoRotorBasis(1, 0)
    rec = TimeSeriesRecorder(basis, watch=((0, 0, 0, 0), (1, 0, 1, 0)))
    rec(np.array([0.0]), np.array([0]), initial_state(basis)[None, :])
    assert rec.population_column((0, 0, 0, 0)).tolist() == [1.0]
    assert rec.population_column((1, 0, 1, 0)).tolist() == [0.0]
    # an entry of the basis that is not watched names the watch list
    with pytest.raises(QueryError, match=r"\(1, -1, 1, 1\) is not in the watch list"):
        rec.population_column((1, -1, 1, 1))
    with pytest.raises(QueryError):
        TimeSeriesRecorder(basis, watch=((1, 1, 0, 0),))


def test_rotational_energy():
    basis = TwoRotorBasis(1, 0)
    coeffs = np.zeros(basis.size, dtype=complex)
    coeffs[basis.index_of(1, 0, 1, 0)] = math.sqrt(0.5)
    coeffs[basis.index_of(0, 0, 0, 0)] = math.sqrt(0.5)
    rec = TimeSeriesRecorder(basis, watch=())
    rec(np.array([0.0]), np.array([0]), coeffs[None, :])
    assert rec.column("energy_rot")[0] == pytest.approx(2.0, abs=1e-14)


# --- recorder -----------------------------------------------------------------

def test_recorder_collects_samples():
    basis = TwoRotorBasis(1, None)
    rec = TimeSeriesRecorder(basis, watch=((0, 0, 0, 0), (1, 0, 0, 0)),
                             sample_interval_ps=0.5)
    psi = _superposition(basis)
    rec(np.array([0.0]), np.array([0]), initial_state(basis)[None, :])
    rec(np.array([0.011, 0.022]), np.array([1, 2]), np.stack([psi, psi]))

    assert rec.column("t_ps").tolist() == [0.0, 0.5, 1.0]
    assert rec.column("t_red").tolist() == [0.0, 0.011, 0.022]
    assert rec.population_column((0, 0, 0, 0))[0] == 1.0
    assert rec.population_column((0, 0, 0, 0))[1] == pytest.approx(0.5, abs=1e-14)
    assert rec.column("cos1")[1:] == pytest.approx([1.0 / math.sqrt(3.0)] * 2, abs=1e-14)
    assert rec.column("entropy")[0] == pytest.approx(0.0, abs=1e-12)
    assert rec.column("norm") == pytest.approx([1.0] * 3, abs=1e-14)
    assert rec.column("energy_rot") == pytest.approx([0.0, 1.0, 1.0], abs=1e-14)
    assert np.allclose(rec.column("cos2"), [0.0] * 3, atol=1e-14)
    assert np.allclose(rec.population_column((1, 0, 0, 0)), [0.0, 0.5, 0.5], atol=1e-14)
    # one CSV row per sample: the six base columns, then the watch list
    assert rec.table().shape == (3, 8)
    assert np.array_equal(rec.table()[:, 3], rec.column("entropy"))


def test_recorder_starts_empty():
    rec = TimeSeriesRecorder(TwoRotorBasis(1, 0), watch=((0, 0, 0, 0),))
    assert rec.column("cos1").size == 0
    assert rec.table().shape == (0, 7)


def test_recorder_rejects_watch_entries_outside_the_basis():
    basis = TwoRotorBasis(1, 0)
    with pytest.raises(QueryError):
        TimeSeriesRecorder(basis, watch=((2, 0, 0, 0),))
    with pytest.raises(QueryError):
        TimeSeriesRecorder(basis, watch=((1, 1, 0, 0),))  # wrong total M


def test_recorder_rejects_a_repeated_watch_entry():
    # it would write two pop_1_0_0_0 columns
    with pytest.raises(QueryError, match="repeats an entry"):
        TimeSeriesRecorder(TwoRotorBasis(2, 0), watch=((1, 0, 0, 0), (1, 0, 0, 0)))


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
