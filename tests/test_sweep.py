import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rotorpair

from rotorpair import sweep
from rotorpair.config import SweepAxis, SweepSpec
from rotorpair.exceptions import InvalidConfigError
from rotorpair.output import read_timeseries_csv
from rotorpair.runner import CSV_NAME
from rotorpair.sweep import MANIFEST_NAME, build_points, run_sweep, worker_count

# fast enough to run a handful of real points per test
BASE_DOC = {
    "basis": {"l_max": 2},
    "output": {"sample_interval_ps": 2.0, "total_time_ps": 10.0, "watch_populations": []},
}


def _spec(axis1, axis2=None, base_doc=None, **kwargs):
    return SweepSpec(
        base=base_doc if base_doc is not None else BASE_DOC,
        axis1=axis1,
        axis2=axis2,
        **kwargs,
    )


def test_build_points_single_axis_labels():
    points = build_points(_spec(SweepAxis("R_m", (3e-8, 2e-8, None))))
    labels = [label for label, _, _ in points]
    assert labels == ["p000_R_m=3e-08", "p001_R_m=2e-08", "p002_R_m=none"]
    assert points[0][1] == {"R_m": 3e-8}
    assert points[0][2]["geometry"] == {"R_m": 3e-8}
    assert points[2][2]["geometry"] == {"R_m": None}
    # the base's other sections are carried over, and the base is not touched
    assert points[0][2]["basis"] == {"l_max": 2}
    assert "geometry" not in BASE_DOC


def test_build_points_two_axes_axis1_major():
    points = build_points(_spec(
        SweepAxis("R_m", (3e-8, 2e-8)),
        SweepAxis("E0_Vpm", (1.5e7, 3e7)),
    ))
    assert [p[1] for p in points] == [
        {"R_m": 3e-8, "E0_Vpm": 1.5e7},
        {"R_m": 3e-8, "E0_Vpm": 3e7},
        {"R_m": 2e-8, "E0_Vpm": 1.5e7},
        {"R_m": 2e-8, "E0_Vpm": 3e7},
    ]
    assert points[3][0] == "p003_R_m=2e-08__E0_Vpm=30000000.0"
    assert points[3][2]["pulse"] == {"E0_Vpm": 3e7}
    assert points[3][2]["geometry"] == {"R_m": 2e-8}


def test_build_points_symbolic_period_label():
    points = build_points(_spec(SweepAxis("period", ("pi_hbar_over_B",))))
    assert points[0][0] == "p000_period=pi_hbar_over_B"
    assert points[0][2]["pulse"] == {"period": "pi_hbar_over_B"}


def test_the_sweep_parent_imports_no_numpy():
    # workers import the runner; the parent only parses and fans out
    env = dict(os.environ, PYTHONPATH=str(Path(rotorpair.__file__).resolve().parents[1]))
    code = "import sys, rotorpair.sweep; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_cli_imports_no_numpy():
    # spawned sweep workers re-import the `sim` entry point before their
    # initializer pins BLAS threads; numpy must not be loaded by then
    env = dict(os.environ, PYTHONPATH=str(Path(rotorpair.__file__).resolve().parents[1]))
    code = "import sys, rotorpair.cli; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_worker_count_prefers_explicit_parallelism(monkeypatch):
    monkeypatch.setenv("SIM_THREADS", "8")
    assert worker_count(_spec(SweepAxis("R_m", (3e-8,)), parallelism=3), 10) == 3
    # and the point count caps it
    assert worker_count(_spec(SweepAxis("R_m", (3e-8,)), parallelism=5), 2) == 2


def test_worker_count_reads_the_environment(monkeypatch):
    spec = _spec(SweepAxis("R_m", (3e-8,)))
    monkeypatch.setenv("SIM_THREADS", "4")
    assert worker_count(spec, 10) == 4
    monkeypatch.setenv("SIM_THREADS", "abc")
    with pytest.raises(InvalidConfigError, match="SIM_THREADS"):
        worker_count(spec, 10)
    monkeypatch.setenv("SIM_THREADS", "0")
    with pytest.raises(InvalidConfigError, match="positive"):
        worker_count(spec, 10)
    monkeypatch.delenv("SIM_THREADS")
    assert worker_count(spec, 2) >= 1


def test_run_sweep_serial_writes_manifest_and_artifacts(tmp_path):
    spec = _spec(SweepAxis("R_m", (3e-8, None)), parallelism=1, out_dir=str(tmp_path / "grid"))
    manifest_path, entries = run_sweep(spec)
    assert manifest_path == tmp_path / "grid" / MANIFEST_NAME

    manifest = json.loads(manifest_path.read_text())
    assert manifest["n_ok"] == 2
    assert manifest["n_failed"] == 0
    assert len(manifest["points"]) == 2
    for entry, written in zip(entries, manifest["points"]):
        assert entry == written
        assert entry["status"] == "ok"
        assert entry["error"] is None
        assert (tmp_path / "grid" / entry["label"] / "timeseries.csv").exists()
        assert entry["csv"].endswith("timeseries.csv")
    assert entries[0]["params"] == {"R_m": 3e-8}
    assert entries[1]["params"] == {"R_m": None}


def test_a_manifest_write_that_fails_halfway_leaves_no_torn_file(tmp_path, monkeypatch, torn_writes):
    monkeypatch.setattr(sweep, "_run_point", lambda label, doc, point_dir: {"status": "ok"})
    old = tmp_path / "old" / MANIFEST_NAME
    old.parent.mkdir()
    old.write_text("{}\n", encoding="utf-8")
    for root in ("fresh", "old"):
        spec = _spec(SweepAxis("R_m", (3e-8, None)), parallelism=1, out_dir=str(tmp_path / root))
        with pytest.raises(OSError, match="interrupted"):
            run_sweep(spec)
    assert list((tmp_path / "fresh").iterdir()) == []
    assert old.read_bytes() == b"{}\n"
    assert list(old.parent.iterdir()) == [old]


def test_run_sweep_isolates_a_bad_point(tmp_path):
    # l_max = 0 cannot hold any dynamics and is rejected at validation time
    spec = _spec(SweepAxis("l_max", (2, 0)), parallelism=1, out_dir=str(tmp_path))
    manifest_path, entries = run_sweep(spec)
    assert [e["status"] for e in entries] == ["ok", "failed"]
    assert "InvalidConfigError" in entries[1]["error"]
    assert entries[1]["csv"] is None
    manifest = json.loads(manifest_path.read_text())
    assert manifest["n_ok"] == 1
    assert manifest["n_failed"] == 1


def test_sweep_points_are_parsed_like_run_documents(tmp_path):
    # no watch list in the base: each point trims the default one to its l_max
    base = {"output": {"sample_interval_ps": 2.0, "total_time_ps": 10.0}}
    spec = _spec(SweepAxis("l_max", (2, 4)), base_doc=base, parallelism=1, out_dir=str(tmp_path))
    _, entries = run_sweep(spec)
    assert [e["status"] for e in entries] == ["ok", "ok"]
    pops = [[name for name in read_timeseries_csv(e["csv"])[0] if name.startswith("pop_")]
            for e in entries]
    assert len(pops[0]) == 3
    assert len(pops[1]) == 4


def test_a_non_integer_l_max_point_fails_alone(tmp_path):
    spec = _spec(SweepAxis("l_max", (2.5, 2)), parallelism=1, out_dir=str(tmp_path))
    _, entries = run_sweep(spec)
    assert [e["status"] for e in entries] == ["failed", "ok"]
    assert entries[0]["error"].startswith("InvalidConfigError:")
    assert "basis.l_max must be an integer" in entries[0]["error"]


def test_run_sweep_keeps_partial_csv_of_a_diverged_point(tmp_path):
    doc = json.loads(json.dumps(BASE_DOC))
    doc["integrator"] = {"dt_pulse_fs": 2000.0}
    spec = _spec(SweepAxis("R_m", (3e-8,)), base_doc=doc, parallelism=1, out_dir=str(tmp_path))
    _, entries = run_sweep(spec)
    assert entries[0]["status"] == "failed"
    assert entries[0]["error"].startswith("StepSizeError:")
    assert entries[0]["csv"] is not None
    assert (tmp_path / entries[0]["label"] / "timeseries.csv").exists()


def test_a_failed_point_does_not_report_a_stale_csv(tmp_path):
    axis = SweepAxis("l_max", (2,))
    _, entries = run_sweep(_spec(axis, parallelism=1, out_dir=str(tmp_path)))
    stale = tmp_path / entries[0]["label"] / CSV_NAME
    assert entries[0]["csv"] == str(stale) and stale.exists()
    # the same point again, now with a watch entry beyond its l_max (the base,
    # at l_max 3, is valid: a spec with a bad base is refused before any point runs)
    doc = json.loads(json.dumps(BASE_DOC))
    doc["basis"]["l_max"] = 3
    doc["output"]["watch_populations"] = [[3, 0, 1, 0]]
    _, entries = run_sweep(_spec(axis, base_doc=doc, parallelism=1, out_dir=str(tmp_path)))
    assert entries[0]["status"] == "failed"
    assert entries[0]["error"].startswith("InvalidConfigError:")
    assert entries[0]["csv"] is None
    assert stale.exists()  # left alone, but not reported as this attempt's output


def test_run_sweep_parallel_matches_the_grid(tmp_path):
    spec = _spec(SweepAxis("E0_Vpm", (1.5e7, 3e7)), parallelism=2, out_dir=str(tmp_path))
    manifest_path, entries = run_sweep(spec)
    assert manifest_path.exists()
    assert [e["status"] for e in entries] == ["ok", "ok"]
    assert entries[0]["params"] == {"E0_Vpm": 1.5e7}
    assert entries[1]["params"] == {"E0_Vpm": 3e7}


def test_parallel_workers_pin_blas_threads_unless_set(tmp_path, monkeypatch):
    spec = _spec(SweepAxis("R_m", (3e-8, 2e-8)), parallelism=2, out_dir=str(tmp_path / "a"))
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    _, entries = run_sweep(spec)
    # each worker reports the value it ran with: two workers share the cores
    expected = str(max(1, (os.cpu_count() or 1) // 2))
    assert [e["blas_threads"] for e in entries] == [expected, expected]
    assert json.loads((tmp_path / "a" / MANIFEST_NAME).read_text())["points"] == entries
    assert "OPENBLAS_NUM_THREADS" not in os.environ  # the parent is left alone

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    _, entries = run_sweep(_spec(spec.axis1, parallelism=2, out_dir=str(tmp_path / "b")))
    assert [e["blas_threads"] for e in entries] == ["3", "3"]


def test_run_sweep_out_dir_precedence(tmp_path, monkeypatch):
    doc = json.loads(json.dumps(BASE_DOC))
    doc["output"]["out_dir"] = str(tmp_path / "from_base")
    axis = SweepAxis("R_m", (3e-8,))

    manifest_path, _ = run_sweep(_spec(axis, base_doc=doc, parallelism=1,
                                       out_dir=str(tmp_path / "explicit")))
    assert manifest_path.parent == tmp_path / "explicit"

    manifest_path, _ = run_sweep(_spec(axis, base_doc=doc, parallelism=1))
    assert manifest_path.parent == tmp_path / "from_base"

    monkeypatch.chdir(tmp_path)
    manifest_path, _ = run_sweep(_spec(axis, parallelism=1))
    assert manifest_path.parent.name == "sweep_out"
    assert (tmp_path / "sweep_out" / MANIFEST_NAME).exists()
