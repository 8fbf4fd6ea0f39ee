import json
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import oracles
from rotorpair import output, propagation
from rotorpair.angular import TwoRotorBasis
from rotorpair.config import BasisConfig, RunConfig, build_config
from rotorpair.exceptions import InvalidConfigError, StepSizeError
from rotorpair.operators import build_pieces
from rotorpair.output import read_timeseries_csv
from rotorpair.propagation import SWEEP_RATE, step_plan
from rotorpair.runner import CONFIG_ECHO_NAME, CSV_NAME, run_config, simulate
from rotorpair.units import run_length_ps, time_unit_seconds, to_reduced

# small and fast: 19 states, 20 ps, one pulse
TINY = {
    "basis": {"l_max": 2},
    "output": {
        "sample_interval_ps": 1.0,
        "total_time_ps": 20.0,
        "watch_populations": [[1, 0, 1, 0]],
    },
}


def _tiny(**overrides):
    doc = json.loads(json.dumps(TINY))
    for section, fields in overrides.items():
        doc.setdefault(section, {}).update(fields)
    return build_config(doc)


def test_simulate_samples_on_the_requested_grid():
    result = simulate(_tiny())
    t_ps = result.recorder.column("t_ps")
    assert t_ps.size == 21  # floor(20/1) + 1
    assert np.array_equal(t_ps, np.arange(21.0))
    assert result.pieces.basis.size == 19
    assert run_length_ps(result.config) == 20.0
    assert result.csv_path is None
    # the sample grid in reduced time matches t_ps through the time unit
    time_unit_ps = time_unit_seconds(result.config.molecule.B_cm1) * 1e12
    assert np.allclose(result.recorder.column("t_red") * time_unit_ps, t_ps, atol=1e-12)


def test_simulate_row_count_rounds_down():
    result = simulate(_tiny(output={"total_time_ps": 20.3}))
    t_ps = result.recorder.column("t_ps")
    assert t_ps.size == 21
    assert t_ps[-1] == 20.0


def test_simulate_is_physically_sane():
    result = simulate(_tiny())
    assert np.abs(result.recorder.column("norm") - 1.0).max() < 1e-8
    _, _, dt, samples = to_reduced(result.config)
    windows = oracles.rk4_windows(step_plan(result.schedule, samples[-1], dt))
    assert len(windows) == 1
    a, b = windows[0]
    assert a == 0.0  # t0 = 1200 fs sits closer than 5 sigma to t = 0
    assert b == pytest.approx(result.schedule.t0_red + 5 * result.schedule.sigma_red)
    # the kick leaves the molecules rotating faster than the ground state
    assert result.recorder.column("energy_rot")[-1] > 0.1


def test_run_config_writes_csv_and_echo(tmp_path):
    out = tmp_path / "here"
    result = run_config(_tiny(), out)
    assert result.csv_path == out / CSV_NAME
    header, columns, failure = read_timeseries_csv(result.csv_path)
    assert failure is None
    assert header[-1] == "pop_1_0_1_0"
    assert columns["cos1"] == result.recorder.column("cos1").tolist()
    assert columns["norm"] == result.recorder.column("norm").tolist()

    echo = json.loads((out / CONFIG_ECHO_NAME).read_text())
    assert echo["output"]["out_dir"] == str(out)
    echo["output"]["out_dir"] = None
    assert build_config(echo) == _tiny()


def test_run_config_writes_through_the_output_module(tmp_path, monkeypatch):
    # wrappers installed on rotorpair.output after import (the benchmark's
    # output.csv layer) must see every CSV the runner writes
    calls = []
    real = output.write_timeseries_csv
    monkeypatch.setattr(output, "write_timeseries_csv", lambda *a, **kw: calls.append(a[0]) or real(*a, **kw))
    result = run_config(_tiny(), tmp_path)
    assert calls == [result.csv_path]


def test_a_hand_built_non_integer_l_max_writes_nothing(tmp_path):
    # at l_max 2.5 the basis would be built at 2 and the echo would say 2.5
    with pytest.raises(InvalidConfigError, match="basis.l_max must be an integer"):
        run_config(RunConfig(basis=BasisConfig(l_max=2.5)), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_run_config_honors_the_configured_out_dir(tmp_path):
    cfg = _tiny(output={"out_dir": str(tmp_path / "configured")})
    result = run_config(cfg)
    assert result.csv_path == tmp_path / "configured" / CSV_NAME
    # an explicit argument wins over the config
    result = run_config(cfg, tmp_path / "arg")
    assert result.csv_path == tmp_path / "arg" / CSV_NAME


def test_run_config_defaults_to_sim_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run_config(_tiny())
    assert result.csv_path == Path("sim_out") / CSV_NAME
    assert (tmp_path / "sim_out" / CSV_NAME).exists()


def test_failed_run_keeps_a_marked_partial_csv(tmp_path):
    # at 100 times the default field the stage sweeps of a sigma / 10 step
    # diverge: the norm blows up at once
    cfg = _tiny(pulse={"E0_Vpm": 3e9}, integrator={"dt_pulse_fs": 27.9})
    with pytest.raises(StepSizeError):
        run_config(cfg, tmp_path)
    header, columns, failure = read_timeseries_csv(tmp_path / CSV_NAME)
    assert failure is not None
    assert "norm drifted" in failure
    assert 0 < len(columns["t_ps"]) < 21
    # rows run up to and including the first sample that broke the tolerance
    drift = np.abs(np.array(columns["norm"]) - 1.0)
    assert drift[-1] > 1e-8
    assert np.all(drift[:-1] <= 1e-8)
    # the message's drift is taken from the rows run_schedule checks, the column from the recorder's table
    assert f"norm drifted by {drift[-1]:.3e} at t = " in failure
    # no config echo for a failed run
    assert not (tmp_path / CONFIG_ECHO_NAME).exists()


def _sweep_rate(cfg):
    """SWEEP_RATE * |H| at the peak field: the stage sweeps of a step of width dt
    at the pulse center contract by dt times this."""
    schedule, dipole, _, samples = to_reduced(cfg)
    pieces = build_pieces(TwoRotorBasis(cfg.basis.l_max), dipole)
    peak = np.abs(schedule.field_scalar(np.linspace(0.0, samples[-1], 200_001))).max()
    generator = (pieces.h0 - sparse.diags(pieces.energies) + peak * pieces.coupling).toarray()
    return SWEEP_RATE * np.abs(np.linalg.eigvalsh(generator)).max()


def _sweep_contraction(cfg):
    """The rate at which the stage sweeps of a step of cfg's core dt, at the pulse center, contract."""
    return to_reduced(cfg)[2] * _sweep_rate(cfg)


def test_sweeps_that_contract_too_slowly_fail_the_run_with_a_partial_csv(tmp_path):
    # at E0 = 4e8 V/m, a 45 fs step (sigma / 6.2) whose stage sweeps contract by
    # 0.55 at the peak field converges too slowly for MAX_SWEEPS; the state
    # they leave drifts by 7.3e-6, within this run's norm tolerance
    dt_fs = 0.55 / _sweep_rate(_tiny(pulse={"E0_Vpm": 4e8})) * time_unit_seconds(0.12) * 1e15
    cfg = _tiny(pulse={"E0_Vpm": 4e8}, integrator={"dt_pulse_fs": dt_fs, "norm_tolerance": 1e-4})
    assert 0.5 < _sweep_contraction(cfg) < 1.0
    with pytest.raises(StepSizeError, match="collocation sweeps did not converge"):
        run_config(cfg, tmp_path)
    _, columns, failure = read_timeseries_csv(tmp_path / CSV_NAME)
    assert failure.endswith("reduce integrator.dt_pulse_fs")
    assert 0 < len(columns["t_ps"]) < 21
    assert np.all(np.abs(np.array(columns["norm"]) - 1.0) <= 1e-4)
    assert not (tmp_path / CONFIG_ECHO_NAME).exists()


@pytest.mark.parametrize("E0_Vpm", [3e8, 3e9])
def test_strong_fields_run_clean_at_the_default_step(E0_Vpm):
    # 10 and 100 times the presets' field: the default step shrinks below
    # sigma / 2 so that the stage sweeps still contract by 0.18 or less
    cfg = _tiny(pulse={"E0_Vpm": E0_Vpm})
    schedule, _, dt, _ = to_reduced(cfg)
    assert schedule.sigma_red / 400.0 < dt < schedule.sigma_red / 2.0
    assert _sweep_contraction(cfg) <= 0.18
    result = simulate(cfg)
    assert np.abs(result.recorder.column("norm") - 1.0).max() < 1e-13
    half_fs = 0.5 * dt * time_unit_seconds(0.12) * 1e15
    finer = simulate(_tiny(pulse={"E0_Vpm": E0_Vpm}, integrator={"dt_pulse_fs": half_fs}))
    assert np.abs(result.psi_final - finer.psi_final).max() < 1e-11


def test_the_preset_field_converges_with_sweeps_to_spare(monkeypatch):
    # fig4_E30's field and dipole, the presets' fastest-contracting pair, at
    # the default core step sigma / 2: with the cap five sweeps lower no step
    # stalls, and halving the step moves the final state by rounding only
    cfg = _tiny(geometry={"R_m": 1.5e-8})
    schedule, _, dt, _ = to_reduced(cfg)
    assert dt == schedule.sigma_red / 2.0
    with monkeypatch.context() as patch:
        patch.setattr(propagation, "MAX_SWEEPS", propagation.MAX_SWEEPS - 5)
        result = simulate(cfg)
    half_fs = 0.5 * dt * time_unit_seconds(0.12) * 1e15
    finer = simulate(_tiny(geometry={"R_m": 1.5e-8}, integrator={"dt_pulse_fs": half_fs}))
    assert np.abs(result.psi_final - finer.psi_final).max() < 1e-12
