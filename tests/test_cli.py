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


@pytest.mark.parametrize("command, data", [
    ("run", b'{"basis": {"l_max": 2}}\xff'),  # bytes that are not UTF-8
    ("sweep", b'{"axis1": {"name": "R_m", "values": [1e-8]}}\xff'),
    ("run", b"[" * 100_000 + b"]" * 100_000),  # nesting past the recursion limit
    ("run", b'{"basis": {"l_max": ' + b"9" * 5_000 + b"}}"),  # an integer past Python's 4,300 digits
], ids=["config-not-utf8", "spec-not-utf8", "deep-nesting", "5000-digit-integer"])
def test_undecodable_documents_are_config_errors(tmp_path, capsys, command, data):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    flag = {"run": "--config", "sweep": "--spec"}[command]
    assert main([command, flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "is not valid JSON" in err and "Traceback" not in err


def test_a_byte_order_mark_is_still_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xef\xbb\xbf{}")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "config error: config is not valid JSON: Unexpected UTF-8 BOM" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_out_and_output_out_dir_write_the_same_files(tmp_path):
    by_flag, by_doc = tmp_path / "by_flag", tmp_path / "by_doc"
    assert main(["run", "--config", _write_json(tmp_path / "a.json", TINY), "--out", str(by_flag)]) == 0
    doc = dict(TINY, output={**TINY["output"], "out_dir": str(by_doc)})
    assert main(["run", "--config", _write_json(tmp_path / "b.json", doc)]) == 0
    assert (by_flag / "timeseries.csv").read_bytes() == (by_doc / "timeseries.csv").read_bytes()
    for out in (by_flag, by_doc):  # the echo names the directory the run wrote to
        assert json.loads((out / "run_config.json").read_text())["output"]["out_dir"] == str(out)


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


@pytest.mark.parametrize("dt_pulse_fs", [5e-324, 1e-300])
def test_run_rejects_a_pulse_core_step_too_fine_to_run(tmp_path, capsys, dt_pulse_fs):
    # 5e-324 fs is 0.0 in units of hbar/B and would skip the pulse; 1e-300 fs would overflow the step list
    cfg = _write_json(tmp_path / "cfg.json", dict(TINY, integrator={"dt_pulse_fs": dt_pulse_fs}))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: integrator.dt_pulse_fs = {dt_pulse_fs:g} is below")
    assert not (tmp_path / "out").exists()


def test_run_rejects_a_sigma_that_is_0_in_units_of_hbar_over_b(tmp_path, capsys):
    # 1e-78 fs at B = 1e-250 cm^-1 is 0.0 in units of hbar/B: the run would skip the pulse
    cfg = _write_json(tmp_path / "cfg.json", dict(TINY, molecule={"B_cm1": 1e-250}, pulse={"sigma_fs": 1e-78}))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: pulse.sigma_fs = 1e-78 under- or overflows") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out_dir", ["a\u0000b", "\ud800"], ids=["nul", "lone-surrogate"])
def test_run_rejects_an_out_dir_the_os_cannot_take(tmp_path, capsys, monkeypatch, out_dir):
    monkeypatch.chdir(tmp_path)
    cfg = _write_json(tmp_path / "cfg.json", dict(TINY, output={**TINY["output"], "out_dir": out_dir}))
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: output.out_dir must be a path without a NUL")
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("doc", [{"pulse": {"E0_Vpm": 1e-320}, "geometry": {"R_m": None}},
                                 {"molecule": {"mu_debye": 1e-300}}])
def test_run_with_a_field_and_dipole_that_underflow_is_field_free(tmp_path, doc):
    # the kick and the dipole strength are both 0.0: the default step keeps sigma / 2 instead of dividing by 0
    cfg = _write_json(tmp_path / "cfg.json", dict(TINY, **doc))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    _, columns, failure = read_timeseries_csv(out / "timeseries.csv")
    assert failure is None
    assert len(columns["t_ps"]) == 21
    assert set(columns["cos1"]) == {0.0} and set(columns["norm"]) == {1.0}


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


def test_plot_refuses_two_csvs_that_would_share_an_svg(tmp_path, capsys):
    cfg = _write_json(tmp_path / "cfg.json", TINY)
    csvs = [str(tmp_path / run / "timeseries.csv") for run in ("a", "b")]
    for run in ("a", "b"):
        assert main(["run", "--config", cfg, "--out", str(tmp_path / run)]) == 0
    capsys.readouterr()
    assert main(["plot", "--csv", *csvs, "--out", str(tmp_path / "fig")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and all(csv in captured.err for csv in csvs)
    assert "wrote" not in captured.out and not (tmp_path / "fig").exists()


def test_plot_missing_csv_is_an_io_error(tmp_path, capsys):
    code = main(["plot", "--csv", str(tmp_path / "absent.csv"), "--out", str(tmp_path)])
    assert code == 4
    assert "I/O failure" in capsys.readouterr().err


@pytest.mark.parametrize("row", [b"x,0,0,0,1,0\n", b"0,0,0,0,1,0\xff\n"], ids=["not-a-number", "not-utf8"])
def test_plot_rejects_a_malformed_csv(tmp_path, capsys, row):
    # a cell that is not a number, and bytes that are not UTF-8
    csv_path = tmp_path / "bad.csv"
    csv_path.write_bytes(b"t_ps,cos1,cos2,entropy,norm,energy_rot\n" + row)
    assert main(["plot", "--csv", str(csv_path), "--out", str(tmp_path / "fig")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {csv_path} is not a readable time-series CSV" in err and "Traceback" not in err
    assert not (tmp_path / "fig").exists()


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


def test_a_bad_sim_threads_leaves_no_sweep_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SIM_THREADS", "abc")
    spec = _write_json(tmp_path / "spec.json", {
        "base": TINY, "axis1": {"name": "R_m", "values": [3e-8]}, "out_dir": str(tmp_path / "grid")})
    assert main(["sweep", "--spec", spec]) == 2
    assert "SIM_THREADS must be an integer, got 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "grid").exists()


def test_sweep_rejects_an_out_dir_the_os_cannot_take(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = _write_json(tmp_path / "spec.json",
                       {"base": TINY, "axis1": {"name": "R_m", "values": [3e-8]}, "out_dir": "a\u0000b"})
    assert main(["sweep", "--spec", spec]) == 2
    assert capsys.readouterr().err.startswith("config error: sweep.out_dir must be a path without a NUL")
    assert [path.name for path in tmp_path.iterdir()] == ["spec.json"]


def test_sweep_rejects_a_bad_spec(tmp_path, capsys):
    spec = _write_json(tmp_path / "spec.json", {"base": TINY})
    assert main(["sweep", "--spec", spec]) == 2
    assert "axis1" in capsys.readouterr().err


def test_sweep_with_no_valid_point_is_a_config_error(tmp_path, capsys):
    spec = _write_json(tmp_path / "spec.json", {
        "base": TINY, "axis1": {"name": "l_max", "values": [2.5, 99]}, "parallelism": 1,
        "out_dir": str(tmp_path / "grid")})
    assert main(["sweep", "--spec", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: basis.l_max must be an integer") and "Traceback" not in err
    assert not (tmp_path / "grid").exists()
