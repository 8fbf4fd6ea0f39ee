"""Parameter sweeps: a grid of runs, each in its own directory, with a
manifest written once after every point settles. Point failures are
isolated; siblings keep running. Parallel points run in spawned workers
whose BLAS thread count is capped so that workers x threads <= cores."""

from __future__ import annotations

import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .config import SWEEP_AXES, SweepSpec, build_config
from .exceptions import InvalidConfigError, NumericalError
from .output import write_whole

MANIFEST_NAME = "manifest.json"
DEFAULT_SWEEP_DIR = "sweep_out"


def _axis_value_label(value) -> str:
    if value is None:
        return "none"
    text = json.dumps(value) if not isinstance(value, str) else value
    return "".join(ch if (ch.isalnum() or ch in "._+-") else "_" for ch in text)


def build_points(spec: SweepSpec) -> list[tuple[str, dict, dict]]:
    """Expand the grid into (label, params, run document) rows, axis1-major;
    each document is the base with the point's axis keys set."""
    axes = [spec.axis1] + ([spec.axis2] if spec.axis2 is not None else [])
    combos: list[list[tuple[str, object]]] = [[]]
    for axis in axes:
        combos = [done + [(axis.name, v)] for done in combos for v in axis.values]
    points = []
    for k, combo in enumerate(combos):
        doc = dict(spec.base)
        for name, value in combo:
            section, key = SWEEP_AXES[name]
            doc[section] = {**doc.get(section, {}), key: value}
        label = f"p{k:03d}_" + "__".join(f"{n}={_axis_value_label(v)}" for n, v in combo)
        points.append((label, dict(combo), doc))
    return points


def worker_count(spec: SweepSpec, n_points: int) -> int:
    if spec.parallelism is not None:
        workers = spec.parallelism
    else:
        env = os.environ.get("SIM_THREADS")
        if env is not None:
            try:
                workers = int(env)
            except ValueError:
                raise InvalidConfigError(f"SIM_THREADS must be an integer, got {env!r}") from None
            if workers < 1:
                raise InvalidConfigError(f"SIM_THREADS must be positive, got {workers}")
        else:
            workers = os.cpu_count() or 1
    return min(workers, n_points)


def _run_point(label: str, doc: dict, point_dir: str) -> dict:
    from . import runner  # imported here, so that the `sim` command starts without numpy

    entry = {"label": label, "out_dir": point_dir, "status": "ok", "error": None, "csv": None,
             "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        result = runner.run_config(build_config(doc), point_dir)
        entry["csv"] = str(result.csv_path)
    except Exception as exc:  # a diverging point must not take its siblings down
        entry["status"] = "failed"
        entry["error"] = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, NumericalError):  # run_config wrote a partial CSV before raising it
            entry["csv"] = str(Path(point_dir) / runner.CSV_NAME)
    return entry


def run_sweep(spec: SweepSpec) -> tuple[Path, list[dict]]:
    """Run every grid point; returns (manifest path, manifest entries)."""
    points = build_points(spec)
    out_root = Path(spec.out_dir or spec.base.get("output", {}).get("out_dir") or DEFAULT_SWEEP_DIR)
    out_root.mkdir(parents=True, exist_ok=True)
    workers = worker_count(spec, len(points))

    jobs = [(label, doc, str(out_root / label)) for label, _, doc in points]
    if workers == 1:
        entries = [_run_point(*job) for job in jobs]
    else:
        # a spawned worker inherits these at start, before it re-imports a __main__ that may load numpy
        pinned = [name for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if name not in os.environ]
        os.environ.update(dict.fromkeys(pinned, str(max(1, (os.cpu_count() or 1) // workers))))
        try:
            with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
                futures = [pool.submit(_run_point, *job) for job in jobs]
                entries = [f.result() for f in futures]
        finally:  # a value the user set is kept, and the parent's environment is left as it was
            for name in pinned:
                del os.environ[name]

    for (label, params, _), entry in zip(points, entries):
        entry["params"] = params
    manifest = {
        "points": entries,
        "n_ok": sum(1 for e in entries if e["status"] == "ok"),
        "n_failed": sum(1 for e in entries if e["status"] == "failed"),
    }
    manifest_path = out_root / MANIFEST_NAME
    write_whole(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path, entries
