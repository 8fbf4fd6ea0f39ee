"""The acceptance gate: ten numbered end-to-end checks over the presets.

Each check computes its quantities, records a PASS/FAIL verdict with the
measured numbers through `criteria` (printed in the terminal summary),
and then asserts.  Expensive simulations are shared through a
session-scoped cache keyed by configuration, so reruns of the same
physical setup cost nothing.
"""

import dataclasses
import functools
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import criteria
import oracles
from rotorpair import output
from rotorpair.angular import TwoRotorBasis
from rotorpair.config import PRESET_NAMES, build_config, preset
from rotorpair.observables import regularity_metrics
from rotorpair.operators import build_pieces
from rotorpair.propagation import run_schedule, step_plan
from rotorpair.runner import run_config, simulate
from rotorpair.units import time_unit_seconds, to_reduced

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
check = importlib.import_module("check")
workloads = importlib.import_module("workloads")

# every panel of every preset, i.e. one label per required run
PRESET_RUN_LABELS = ("fig1a", "fig1b", "fig2a_R30", "fig2a_R20", "fig2b_R30",
                     "fig2b_R20", "fig3a", "fig3b", "fig4_E15", "fig4_E30")


def _config_table():
    table = {}
    for name in PRESET_NAMES:
        for label, cfg in preset(name):
            table[label] = cfg
    base = table["fig1a"]
    table["fig1a_uncoupled"] = dataclasses.replace(
        base, geometry=dataclasses.replace(base.geometry, R_m=None))
    table["fig1a_lmax10"] = dataclasses.replace(
        base, basis=dataclasses.replace(base.basis, l_max=10))
    return table


class _SimCache:
    def __init__(self):
        self.configs = _config_table()
        self._results = {}

    def get(self, label):
        cfg = self.configs[label]
        if cfg not in self._results:
            self._results[cfg] = simulate(cfg)
        return self._results[cfg]


@pytest.fixture(scope="session")
def sims():
    return _SimCache()


def _criterion(number):
    """Record the verdict (or the error) before the assertion fires."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                ok, detail = fn(*args, **kwargs)
            except Exception as exc:
                criteria.record(number, False,
                                f"errored before evaluation: {type(exc).__name__}: {exc}")
                raise
            criteria.record(number, ok, detail)
            assert ok, detail
        return run
    return wrap


@_criterion(1)
def test_criterion_1_closed_form_elements_match_quadrature():
    grid = oracles.QuadratureGrid(5)
    worst = 0.0
    checked = 0
    for symbol, closed in oracles.one_rotor_dense(5).items():
        quad = oracles.single_rotor_matrix(symbol, 5, grid)
        worst = max(worst, float(np.abs(quad - closed).max()))
        checked += quad.size
    return worst <= 1e-10, (
        f"max |closed form - quadrature| = {worst:.2e}"
        f" over {checked} elements up to l = 5 (tolerance 1e-10)"
    )


@_criterion(2)
def test_criterion_2_pulse_window_matches_dense_reference(sims):
    cfg = sims.configs["fig1a"]
    schedule, dipole, dt, _ = to_reduced(cfg)
    basis = TwoRotorBasis(2)
    pieces = build_pieces(basis, dipole)
    window = oracles.rk4_windows(step_plan(schedule, 10.0, dt))[0]
    assert window[0] == 0.0  # clipped: the run steps the whole window from t = 0
    pkg = run_schedule(pieces, schedule, dt, cfg.integrator.norm_tolerance, [0.0, window[1]])

    def hermitized(full):
        # the quadrature operator on the M = 0 block; criterion 3 shows that nothing leaves it
        block = oracles.restrict(full, basis)
        return (0.5 * (block + block.conj().T)).real

    h0 = hermitized(np.diag(oracles.two_rotor_free_diagonal(2))
                    + oracles.two_rotor_dipole(dipole, 2))
    v = hermitized(oracles.two_rotor_coupling(2))
    ref = oracles.dense_propagate(
        np.eye(pkg.size)[0], lambda t: h0 + schedule.field_scalar(t) * v,
        window[0], window[1], 100_000)

    diff = float(np.max(np.abs(pkg - ref)))
    return diff <= 1e-6, (
        f"max coefficient difference vs 1e5-step dense reference = {diff:.2e}"
        f" across the pulse window, on the {pkg.size}-state M = 0 block (tolerance 1e-6)"
    )


def _free_segment_drift(result) -> float:
    """Largest relative wander of <H0> over the samples of each free segment
    of the run's step plan, its end points included."""
    _, _, dt, t = to_reduced(result.config)
    h0_expect = result.recorder.column("h0_expect")
    worst = 0.0
    for a, b, h in step_plan(result.schedule, t[-1], dt):
        sel = (t >= a) & (t <= b)
        if h != 0.0 or np.count_nonzero(sel) < 2:
            continue
        vals = h0_expect[sel]
        scale = max(abs(float(vals.mean())), 1.0)
        worst = max(worst, float(vals.max() - vals.min()) / scale)
    return worst


def _offblock_leakage(cfg) -> float:
    """Drive the whole l_max = 3 product space (every M) with the quadrature
    operators and watch probability at m1+m2 != 0, which the M = 0 basis of
    every run leaves out."""
    schedule, dipole, dt, _ = to_reduced(cfg)
    time_unit_ps = time_unit_seconds(cfg.molecule.B_cm1) * 1e12
    samples_red = np.arange(61) * (1.0 / time_unit_ps)
    off_block = oracles.product_total_m(3) != 0
    leak = []

    def watch_leak(t_red, indices, coeffs):
        leak.extend(np.sum(np.abs(coeffs[:, off_block]) ** 2, axis=1))

    oracles.full_space_schedule(oracles.product_operators(3, dipole), schedule, dt, cfg.integrator.norm_tolerance,
                                samples_red, observers=(watch_leak,))
    assert len(leak) == samples_red.size
    return float(max(leak))


@_criterion(3)
def test_criterion_3_unitarity_and_conservation(sims):
    worst_norm = 0.0
    worst_drift = 0.0
    for label in PRESET_RUN_LABELS:
        result = sims.get(label)
        worst_norm = max(worst_norm, float(np.max(np.abs(result.recorder.column("norm") - 1.0))))
        worst_drift = max(worst_drift, _free_segment_drift(result))
    leak = _offblock_leakage(sims.configs["fig1a"])
    ok = worst_norm <= 1e-8 and leak <= 1e-12 and worst_drift <= 1e-10
    return ok, (
        f"max |norm - 1| = {worst_norm:.2e} (<= 1e-8);"
        f" max probability at m1+m2 != 0 = {leak:.2e} (<= 1e-12);"
        f" max field-free <H0> drift = {worst_drift:.2e} relative (<= 1e-10)"
    )


@_criterion(4)
def test_criterion_4_uncoupled_pair_stays_a_product_state(sims):
    entropy = sims.get("fig1a_uncoupled").recorder.column("entropy")
    worst = float(np.max(entropy))
    return worst < 1e-10, (
        f"max entropy with the coupling switched off = {worst:.2e} (< 1e-10)"
    )


@_criterion(5)
def test_criterion_5_weak_coupling_tracks_the_free_rotor(sims):
    n = 301  # first 150 ps at the 0.5 ps default sampling
    free = sims.get("fig1a_uncoupled").recorder.column("cos1")[:n]
    r30 = float(np.corrcoef(sims.get("fig1a").recorder.column("cos1")[:n], free)[0, 1])
    r20 = float(np.corrcoef(sims.get("fig1b").recorder.column("cos1")[:n], free)[0, 1])
    ok = r30 >= 0.9 and r20 <= r30 - 0.1
    return ok, (
        f"corr(coupled at R = 3e-8 m, free rotor) = {r30:.4f} (>= 0.9);"
        f" corr at R = 2e-8 m = {r20:.4f} (<= {r30 - 0.1:.4f})"
    )


def _train_metrics(result):
    rec = result.recorder
    return regularity_metrics(
        rec.column("t_red"), rec.column("cos1"), rec.column("energy_rot"),
        result.schedule.centers())


@_criterion(6)
def test_criterion_6_pulse_train_regimes(sims):
    m = {label: _train_metrics(sims.get(label))
         for label in ("fig2a_R30", "fig2a_R20", "fig2b_R30", "fig2b_R20")}
    peak_gap = m["fig2b_R30"].autocorr_peak - m["fig2a_R30"].autocorr_peak
    growth_one = m["fig2a_R30"].energy_growth_rate
    growth_pi = m["fig2b_R30"].energy_growth_rate
    degrades = m["fig2b_R20"].autocorr_peak < m["fig2b_R30"].autocorr_peak
    ok = peak_gap >= 0.2 and growth_one > growth_pi and degrades
    return ok, (
        f"autocorr peak {m['fig2b_R30'].autocorr_peak:.3f} (pi-period) vs"
        f" {m['fig2a_R30'].autocorr_peak:.3f} (one-period), gap {peak_gap:.3f} (>= 0.2);"
        f" energy growth {growth_one:.3f}/pulse (one-period) vs {growth_pi:.3f} (pi-period)"
        f" (one-period must exceed); pi-period peak at R = 2e-8 m"
        f" {m['fig2b_R20'].autocorr_peak:.3f} (< {m['fig2b_R30'].autocorr_peak:.3f})"
    )


def _first_crossing_ps(result, level):
    t = result.recorder.column("t_ps")
    entropy = result.recorder.column("entropy")
    hit = np.nonzero(entropy >= level)[0]
    return float(t[hit[0]]) if hit.size else None


@_criterion(7)
def test_criterion_7_close_pair_entangles_faster(sims):
    t_close = _first_crossing_ps(sims.get("fig3b"), 0.2)
    t_far = _first_crossing_ps(sims.get("fig3a"), 0.2)
    crossing_ok = t_close is not None and (t_far is None or t_close < t_far)

    entropy = sims.get("fig3b").recorder.column("entropy")
    tail = entropy[-(entropy.size // 4):]
    band = float(tail.max() - tail.min())
    half_mean = 0.5 * float(tail.mean())
    ok = crossing_ok and band < half_mean
    close_text = "never" if t_close is None else f"{t_close:.1f} ps"
    far_text = "never" if t_far is None else f"{t_far:.1f} ps"
    return ok, (
        f"entropy reaches 0.2 at {close_text} (R = 1.5e-8 m) vs {far_text} (R = 5e-8 m);"
        f" late-time band {band:.3f} vs half the mean {half_mean:.3f}"
    )


@_criterion(8)
def test_criterion_8_stronger_field_entangles_more(sims):
    def late_mean(label):
        entropy = sims.get(label).recorder.column("entropy")
        return float(entropy[entropy.size // 2:].mean())

    weak = late_mean("fig4_E15")
    strong = late_mean("fig4_E30")
    return strong > weak, (
        f"mean entropy over the last half: {strong:.3f} at E0 = 3e7 V/m"
        f" vs {weak:.3f} at 1.5e7 V/m"
    )


@_criterion(9)
def test_criterion_9_truncation_is_converged(sims):
    lo = sims.get("fig1a").recorder.column("cos1")
    hi = sims.get("fig1a_lmax10").recorder.column("cos1")
    sup = float(np.max(np.abs(lo - hi)))
    return sup < 1e-3, f"sup |cos1 at l_max 8 - cos1 at l_max 10| = {sup:.2e} (< 1e-3)"


@_criterion(10)
def test_criterion_10_reruns_are_byte_identical(sims, tmp_path):
    same = {}
    for label in ("fig1a", "fig3b"):
        cfg = sims.configs[label]
        first = run_config(cfg, tmp_path / label / "a").csv_path.read_bytes()
        second = run_config(cfg, tmp_path / label / "b").csv_path.read_bytes()
        same[label] = first == second
    ok = all(same.values())
    return ok, (
        "independent reruns give byte-identical CSVs for fig1a and fig3b" if ok
        else f"byte differences in {[k for k, v in same.items() if not v]}"
    )


@pytest.mark.parametrize("label", list(workloads.CONFIGS))
def test_each_benchmark_run_matches_its_reference(sims, label, tmp_path):
    # the benchmark's correctness gate, on the run the benchmark makes
    assert build_config(workloads.config_doc(label)) == sims.configs[label]
    recorder = sims.get(label).recorder
    path = output.write_timeseries_csv(tmp_path / f"{label}.csv", recorder.watch, recorder.table())
    verdict = check.check_csv(str(path), check.load_ref(label), workloads.d_single(label))
    assert verdict["ok"], verdict["problems"]


def test_a_step_a_hair_under_sigma_over_2_lands_on_the_sigma_over_2_run(sims):
    # dt = sigma / 2.0000000002 leaves each pi-train segment a leftover under rk4_integrate's 1e-12 max(|t1|, 1)
    # threshold; the last full step takes it up, so no segment ends off its t1 (dropping the leftovers moved the
    # watched populations by 4.2e-11). cos1 and the energy sit at the 20-pulse rounding floor, about 5e-12 for
    # any offset from 1e-11 to 1e-9, so the populations are the columns compared.
    cfg = sims.configs["fig2b_R30"]
    shifted = dataclasses.replace(cfg, integrator=dataclasses.replace(
        cfg.integrator, dt_pulse_fs=cfg.pulse.sigma_fs / 2.0000000002))
    assert to_reduced(shifted)[2] < to_reduced(cfg)[2]
    base, hair = sims.get("fig2b_R30").recorder, simulate(shifted).recorder
    for entry in base.watch:
        assert np.abs(hair.column(entry) - base.column(entry)).max() <= 5e-12
