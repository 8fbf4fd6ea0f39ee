"""Regenerate the correctness references in perfbench/refs/.

    python3 perfbench/make_refs.py [SCRATCH_DIR]

Run it from the repository root, only on a commit whose outputs are
trusted: the gate compares every later commit with these files. Each
config of workloads.CONFIGS is run once through run_config with one BLAS
thread, and its CSV is stored as float64 arrays, lossless for the 17
significant digits the CSV carries.
"""

from __future__ import annotations

import os
import sys
import tempfile

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.abspath("src"))

import numpy as np  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402
from rotorpair.config import build_config  # noqa: E402
from rotorpair.runner import run_config  # noqa: E402


def main(scratch: str) -> None:
    os.makedirs(check.REFS_DIR, exist_ok=True)
    for label in workloads.CONFIGS:
        result = run_config(build_config(workloads.config_doc(label)), os.path.join(scratch, label))
        header, data, failed = check.read_csv(str(result.csv_path))
        if failed:
            raise SystemExit(f"{label}: the run failed, no reference written")
        np.savez_compressed(os.path.join(check.REFS_DIR, f"{label}.npz"),
                            header=np.array(header), data=data)
        print(f"{label}: {data.shape[0]} rows x {data.shape[1]} columns")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        main(sys.argv[1])
    else:
        with tempfile.TemporaryDirectory(dir=".") as tmp:
            main(tmp)
