"""Orchestration of a single run: build operators from a RunConfig,
propagate, and (optionally) write the CSV artifact."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import output  # looked up per call, so wrappers installed on the module see every write
from .angular import TwoRotorBasis
from .config import RunConfig
from .exceptions import NumericalError
from .observables import TimeSeriesRecorder
from .operators import HamiltonianPieces, PulseSchedule, build_pieces
from .propagation import run_schedule
from .units import to_reduced

CSV_NAME = "timeseries.csv"
CONFIG_ECHO_NAME = "run_config.json"


@dataclass
class RunResult:
    config: RunConfig
    pieces: HamiltonianPieces
    schedule: PulseSchedule
    recorder: TimeSeriesRecorder
    psi_final: np.ndarray
    csv_path: Path | None = None


def _run(cfg: RunConfig, out_dir: Path | None) -> RunResult:
    """Run; with an out_dir, write the CSV there, a partial one with a
    marker row if the run fails numerically."""
    schedule, dipole_strength, dt, sample_times = to_reduced(cfg)
    pieces = build_pieces(TwoRotorBasis(cfg.basis.l_max), dipole_strength)
    recorder = TimeSeriesRecorder(pieces, cfg.output)
    csv_path = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / CSV_NAME
    try:
        psi_final = run_schedule(pieces, schedule, dt, cfg.integrator.norm_tolerance, sample_times,
                                 observers=(recorder,))
    except NumericalError as exc:
        if csv_path is not None:
            output.write_timeseries_csv(csv_path, recorder.watch, recorder.table(), failure_message=str(exc))
        raise
    if csv_path is not None:
        output.write_timeseries_csv(csv_path, recorder.watch, recorder.table())
    return RunResult(cfg, pieces, schedule, recorder, psi_final, csv_path)


def simulate(cfg: RunConfig) -> RunResult:
    """Run in memory; raises on numerical failure."""
    return _run(cfg, None)


def run_config(cfg: RunConfig, out_dir=None) -> RunResult:
    """Run and write artifacts; on failure keep a partial CSV with a marker."""
    target = Path(out_dir if out_dir is not None else (cfg.output.out_dir or "sim_out"))
    result = _run(cfg, target)
    echo = asdict(cfg)
    echo["output"]["out_dir"] = str(target)
    output.write_whole(target / CONFIG_ECHO_NAME, json.dumps(echo, indent=2, sort_keys=True) + "\n")
    return result
