"""One benchmark process: a timed pass or a set-up probe.

    python3 perfbench/worker.py JOB.json

JOB.json holds {"kind", "src", "runs", "out_dir", "result", "trace", ...};
the result is written as JSON to the job's "result" path. The parent times
this process from outside. When "trace" is true, the layer hooks are
installed before any run and the spans go into the result.
"""

from __future__ import annotations

import json
import os
import sys
import time

# set-up time starts before rotorpair (and numpy) is imported
T_START = time.perf_counter()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import layertrace  # noqa: E402  (the benchmark's own modules, next to this file)
import workloads  # noqa: E402


def _import_rotorpair(src: str):
    sys.path.insert(0, src)
    import rotorpair

    where = os.path.dirname(os.path.abspath(rotorpair.__file__))
    if os.path.dirname(where) != os.path.abspath(src):
        raise SystemExit(f"perfbench: rotorpair imported from {where}, not from {src}")
    return rotorpair


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "BLIS_NUM_THREADS", "SIM_THREADS")},
    }


def run_pass(job: dict) -> dict:
    """Every run of an in-process workload through run_config, in order."""
    from rotorpair import runner
    from rotorpair.config import build_config

    runs = []
    for label in job["runs"]:
        entry = {"label": label, "error": None}
        try:
            cfg = build_config(workloads.config_doc(label, job.get("total_time_ps")))
            runner.run_config(cfg, os.path.join(job["out_dir"], label))
        except Exception as exc:  # a failed run is counted, the pass goes on
            entry["error"] = f"{type(exc).__name__}: {exc}"
        runs.append(entry)
    return {"runs": runs}


def run_setup(job: dict) -> dict:
    """Set-up only: import, then per run config + operators + H0 eigh.

    Each run is simulated with total_time_ps below one sample interval,
    so it samples t = 0 once and never propagates.
    """
    from rotorpair.config import build_config
    from rotorpair.runner import simulate

    for label in job["runs"]:
        doc = workloads.config_doc(label)
        doc["output"] = {"total_time_ps": 0.25}
        simulate(build_config(doc))
    return {"setup_s": time.perf_counter() - T_START}


def main(job_path: str) -> None:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    _import_rotorpair(job["src"])
    tracer = None
    if job.get("trace"):
        tracer = layertrace.Tracer()
        tracer.install()
    result = {"run_pass": run_pass, "setup": run_setup}[job["kind"]](job)
    result["environment"] = _environment()
    if tracer is not None:
        result["trace"] = {"spans": tracer.spans, "missing_layers": tracer.missing,
                           "overhead_s": tracer.overhead_s}
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
