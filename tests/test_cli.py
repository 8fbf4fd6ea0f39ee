import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rotorpair
from rotorpair.cli import main
from rotorpair.output import read_timeseries_csv

TINY = {
    "basis": {"l_max": 2},
    "output": {"sample_interval_ps": 1.0, "total_time_ps": 20.0, "watch_populations": []},
}


def _write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "run" in capsys.readouterr().out


def test_run_writes_artifacts(tmp_path, capsys):
    cfg = _write_json(tmp_path / "cfg.json", TINY)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert (out / "timeseries.csv").exists()
    assert (out / "run_config.json").exists()
    header, columns, failure = read_timeseries_csv(out / "timeseries.csv")
    assert failure is None
    assert len(columns["t_ps"]) == 21


def test_run_rejects_malformed_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json", encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_rejects_bad_physics(tmp_path, capsys):
    cfg = _write_json(tmp_path / "cfg.json", {"geometry": {"R_m": -1.0}})
    assert main(["run", "--config", cfg]) == 2
    assert "R_m" in capsys.readouterr().err


@pytest.mark.parametrize("value", [0, None])
def test_run_rejects_the_removed_basis_choice(tmp_path, capsys, value):
    # every run holds the M = 0 states, so a document that still picks a basis is refused
    cfg = _write_json(tmp_path / "cfg.json", {"basis": {"restrict_total_m": value}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "unknown key 'basis.restrict_total_m'" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_run_rejects_an_off_block_watch_entry_before_the_basis_is_built(tmp_path, capsys, monkeypatch):
    from rotorpair import runner

    built = []
    monkeypatch.setattr(runner, "TwoRotorBasis", lambda *args: built.append(args))
    doc = dict(TINY, output={**TINY["output"], "watch_populations": [[1, 1, 1, 0]]})
    cfg = _write_json(tmp_path / "cfg.json", doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "(1, 1, 1, 0) has m1 + m2 = 1; a run holds only M = 0 states" in err and "Traceback" not in err
    assert built == [] and not (tmp_path / "out").exists()


def test_run_rejects_an_infinite_total_time(tmp_path):
    # json reads Infinity as a float; it must stop at the config boundary
    cfg = _write_json(tmp_path / "cfg.json", {"output": {"total_time_ps": float("inf")}})
    assert "Infinity" in Path(cfg).read_text()
    env = dict(os.environ, PYTHONPATH=str(Path(rotorpair.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "rotorpair.cli", "run", "--config", cfg,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "output.total_time_ps must be finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_run_rejects_a_sample_grid_past_the_bound(tmp_path):
    # 1e300 ps is finite, but its sample grid could never be allocated
    cfg = _write_json(tmp_path / "cfg.json", {"output": {"total_time_ps": 1e300}})
    env = dict(os.environ, PYTHONPATH=str(Path(rotorpair.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "rotorpair.cli", "run", "--config", cfg,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "MAX_SAMPLES" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, bound", [
    # 1e12 pulse centers are 7.3 TiB; an l_max of 400 never leaves the basis loop
    ({"pulse": {"count": 10**12, "period": "hbar_over_B"}, "output": {"total_time_ps": 10}}, "MAX_PULSES"),
    ({"basis": {"l_max": 400}, "output": {"total_time_ps": 1}}, "MAX_L_MAX"),
])
def test_run_rejects_a_basis_or_pulse_train_past_the_bound(tmp_path, doc, bound):
    cfg = _write_json(tmp_path / "cfg.json", doc)
    env = dict(os.environ, PYTHONPATH=str(Path(rotorpair.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "rotorpair.cli", "run", "--config", cfg,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert bound in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("B_cm1", [1e-320, 1e-300])
def test_run_rejects_a_rotational_constant_that_underflows(tmp_path, B_cm1):
    # 1e-320 cm^-1 is 0 J; at 1e-300 the dipole strength's R^3 B is 0
    cfg = _write_json(tmp_path / "cfg.json",
                      {"molecule": {"B_cm1": B_cm1}, "output": {"total_time_ps": 10}})
    env = dict(os.environ, PYTHONPATH=str(Path(rotorpair.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "rotorpair.cli", "run", "--config", cfg,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "molecule.B_cm1" in proc.stderr and "outside the float range" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_run_missing_config_file_is_an_io_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 4
    assert "I/O failure" in capsys.readouterr().err


def test_run_numerical_failure_exits_3_and_keeps_partial_csv(tmp_path, capsys):
    doc = dict(TINY, pulse={"E0_Vpm": 3e9}, integrator={"dt_pulse_fs": 27.9})
    cfg = _write_json(tmp_path / "cfg.json", doc)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    _, columns, failure = read_timeseries_csv(out / "timeseries.csv")
    assert failure is not None
    assert len(columns["t_ps"]) >= 1
    assert not (out / "run_config.json").exists()


def _failing_run_stderr(tmp_path, doc):
    """stderr of a `sim run` subprocess that must exit 3, with numpy's
    RuntimeWarnings switched on and none printed."""
    cfg = _write_json(tmp_path / "cfg.json", doc)
    env = dict(os.environ, PYTHONPATH=str(Path(rotorpair.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-W", "always::RuntimeWarning", "-m", "rotorpair.cli", "run",
                           "--config", cfg, "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert "RuntimeWarning" not in proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stderr


def test_a_diverging_run_reports_its_failure_without_numpy_warnings(tmp_path):
    # at 1e14 V/m the state overflows inside the first window: no step size is the fix
    doc = {"pulse": {"E0_Vpm": 1e14}, "basis": {"l_max": 3}, "output": {"total_time_ps": 3}}
    stderr = _failing_run_stderr(tmp_path, doc)
    assert re.search(r"numerical failure: norm drifted by (nan|inf) at t = \S+"
                     r" \(tolerance 1\.0e-08\); the state diverged$", stderr, re.M)
    assert "dt_pulse" not in stderr


def test_a_too_coarse_step_names_its_config_key(tmp_path):
    # at 100 times the default field, sigma / 10 (27.9 fs) is far too coarse a step
    stderr = _failing_run_stderr(tmp_path, dict(TINY, pulse={"E0_Vpm": 3e9}, integrator={"dt_pulse_fs": 27.9}))
    assert re.search(r"numerical failure: norm drifted by \d\.\d{3}e[-+]\d+ at t = \S+"
                     r" \(tolerance 1\.0e-08\); reduce integrator\.dt_pulse_fs$", stderr, re.M)


def test_preset_runs_every_panel(tmp_path, capsys):
    out = tmp_path / "presets"
    assert main(["preset", "fig1a", "--out", str(out)]) == 0
    assert "fig1a: wrote" in capsys.readouterr().out
    header, columns, failure = read_timeseries_csv(out / "fig1a" / "timeseries.csv")
    assert failure is None
    assert len(columns["t_ps"]) == 801  # 400 ps sampled every 0.5 ps
    assert (out / "fig1a" / "run_config.json").exists()


def test_unknown_preset_is_a_usage_error(capsys):
    assert main(["preset", "fig9z"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_plot_renders_svg(tmp_path, capsys):
    cfg = _write_json(tmp_path / "cfg.json", TINY)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert main(["plot", "--csv", str(out / "timeseries.csv"), "--out", str(tmp_path / "fig")]) == 0
    assert "wrote" in capsys.readouterr().out
    svg = (tmp_path / "fig" / "timeseries.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg


def test_plot_missing_csv_is_an_io_error(tmp_path, capsys):
    code = main(["plot", "--csv", str(tmp_path / "absent.csv"), "--out", str(tmp_path)])
    assert code == 4
    assert "I/O failure" in capsys.readouterr().err


def test_sweep_runs_the_grid(tmp_path, capsys):
    spec = _write_json(tmp_path / "spec.json", {
        "base": TINY,
        "axis1": {"name": "R_m", "values": [3e-8, None]},
        "parallelism": 1,
        "out_dir": str(tmp_path / "grid"),
    })
    assert main(["sweep", "--spec", spec]) == 0
    assert "2/2 points ok" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "grid" / "manifest.json").read_text())
    assert manifest["n_ok"] == 2


def test_sweep_with_every_point_failing_exits_3(tmp_path, capsys):
    base = dict(TINY, pulse={"E0_Vpm": 3e9}, integrator={"dt_pulse_fs": 27.9})
    spec = _write_json(tmp_path / "spec.json", {
        "base": base,
        "axis1": {"name": "R_m", "values": [3e-8]},
        "parallelism": 1,
        "out_dir": str(tmp_path / "grid"),
    })
    assert main(["sweep", "--spec", spec]) == 3
    assert "every sweep point failed" in capsys.readouterr().err
    # the manifest still records what happened
    manifest = json.loads((tmp_path / "grid" / "manifest.json").read_text())
    assert manifest["n_failed"] == 1


def test_sweep_with_an_off_block_watch_entry_runs_no_point(tmp_path, capsys):
    base = dict(TINY, output={**TINY["output"], "watch_populations": [[1, 1, 1, 0]]})
    spec = _write_json(tmp_path / "spec.json", {
        "base": base,
        "axis1": {"name": "R_m", "values": [3e-8, 2e-8]},
        "parallelism": 1,
        "out_dir": str(tmp_path / "grid"),
    })
    assert main(["sweep", "--spec", spec]) == 2
    err = capsys.readouterr().err
    assert "has m1 + m2 = 1; a run holds only M = 0 states" in err and "Traceback" not in err
    assert not (tmp_path / "grid").exists()


def test_sweep_rejects_a_bad_spec(tmp_path, capsys):
    spec = _write_json(tmp_path / "spec.json", {"base": TINY})
    assert main(["sweep", "--spec", spec]) == 2
    assert "axis1" in capsys.readouterr().err
