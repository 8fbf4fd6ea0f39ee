"""The correctness gate: every CSV a pass writes is compared cell by cell
with the reference the seed code produced, and checked for four physical
invariants. A violation fails that run; it never stops the benchmark.
"""

from __future__ import annotations

import math
import os

import numpy as np

# Changing only the BLAS threading moves cells by at most 2e-11; the
# physics signal is many orders above 1e-8.
REL_TOL = 1e-8
SYMMETRY_TOL = 1e-12  # |cos1 - cos2|: the molecules are identical
NORM_TOL = 1e-8  # |norm - 1|, the program's own default tolerance
FAILURE_MARKER = "FAILED"

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


def read_csv(path: str) -> tuple[list[str], np.ndarray, bool]:
    """(header, rows as float64, whether a FAILED marker row is present).

    Deliberately not rotorpair.output.read_timeseries_csv: the gate must
    not trust the code it checks.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    failed = any(line.startswith(FAILURE_MARKER + ",") for line in lines[1:])
    rows = [line.split(",") for line in lines[1:] if not line.startswith(FAILURE_MARKER + ",")]
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: a row does not have {len(header)} fields")
    return header, np.array(rows, dtype=np.float64).reshape(len(rows), len(header)), failed


def load_ref(label: str, refs_dir: str = REFS_DIR) -> tuple[list[str], np.ndarray]:
    with np.load(os.path.join(refs_dir, f"{label}.npz")) as ref:
        return [str(h) for h in ref["header"]], ref["data"]


def _finite_or_none(x) -> float | None:
    """A diagnostic that JSON can carry: NaN and infinity become None."""
    return float(x) if math.isfinite(x) else None


def check_csv(csv_path: str, ref: tuple[list[str], np.ndarray], d_single: int,
              n_rows: int | None = None) -> dict:
    """Gate one run's CSV against its reference.

    n_rows compares only the first rows (a run shortened in smoke mode).
    Returns {"ok", "problems", "max_abs_err", "max_norm_drift"}.
    """
    ref_header, ref_data = ref
    if n_rows is not None:
        ref_data = ref_data[:n_rows]
    problems = []
    out = {"ok": False, "problems": problems, "max_abs_err": None, "max_norm_drift": None}
    try:
        header, data, failed = read_csv(csv_path)
    except (OSError, ValueError, IndexError) as exc:
        problems.append(f"unreadable CSV: {exc}")
        return out
    if failed:
        problems.append("FAILED marker row")
    if header != ref_header:
        problems.append(f"header {header} differs from the reference {ref_header}")
        return out
    if data.shape != ref_data.shape:
        problems.append(f"{data.shape[0]} rows, the reference has {ref_data.shape[0]}")
        return out
    col = {name: k for k, name in enumerate(header)}
    # every test below is written so that NaN fails it: a comparison with
    # NaN is false, so "not within" is tested, never "beyond"
    if not np.isfinite(data).all():
        r, c = np.argwhere(~np.isfinite(data))[0]
        problems.append(f"non-finite cell, first {header[c]} at row {r}: {data[r, c]!r}")
    err = np.abs(data - ref_data)
    out["max_abs_err"] = _finite_or_none(err.max())
    bad = np.argwhere(~(err <= REL_TOL * np.maximum(1.0, np.abs(ref_data))))
    if bad.size:
        r, c = bad[0]
        problems.append(f"{len(bad)} cells off the reference, first {header[c]} at row {r}: "
                        f"{data[r, c]!r} against {ref_data[r, c]!r}")
    asym = float(np.abs(data[:, col["cos1"]] - data[:, col["cos2"]]).max())
    if not asym <= SYMMETRY_TOL:
        problems.append(f"|cos1 - cos2| reaches {asym:.3e}")
    drift = float(np.abs(data[:, col["norm"]] - 1.0).max())
    out["max_norm_drift"] = _finite_or_none(drift)
    if not drift <= NORM_TOL:
        problems.append(f"|norm - 1| reaches {drift:.3e}")
    entropy = data[:, col["entropy"]]
    if not (entropy.min() >= 0.0 and entropy.max() <= math.log(d_single)):
        problems.append(f"entropy leaves [0, ln {d_single}]: {entropy.min()!r}..{entropy.max()!r}")
    out["ok"] = not problems
    return out
