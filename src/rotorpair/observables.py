"""Measured quantities: the per-sample recorder (orientation, entropy,
rotational energy, populations) and regularity diagnostics for
pulse-train runs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import entanglement
from .angular import TwoRotorBasis
from .exceptions import QueryError
from .operators import build_costheta_single, expectation
from .output import COLUMNS

# Lags below half the orientation revival period (pi in reduced time)
# are excluded from the autocorrelation peak search by default.
DEFAULT_MIN_LAG_RED = math.pi / 2.0


@dataclass(frozen=True)
class RegularityMetrics:
    autocorr_peak: float
    energy_growth_rate: float


class TimeSeriesRecorder:
    """Block observer that turns sampled coefficient rows into columns."""

    def __init__(self, basis: TwoRotorBasis, watch: tuple[tuple[int, int, int, int], ...],
                 entropy_log_base: str = "e", sample_interval_ps: float = 0.5):
        self.basis = basis
        self.watch = tuple(tuple(int(q) for q in entry) for entry in watch)
        if len(set(self.watch)) < len(self.watch):  # it would write two columns of one name
            raise QueryError(f"watch list {self.watch} repeats an entry")
        # fail on an out-of-basis watch entry up front, not at sample time
        self._watch_idx = np.asarray([basis.index_of(*entry) for entry in self.watch], dtype=np.intp)
        self.entropy_log_base = entropy_log_base
        self.sample_interval_ps = sample_interval_ps
        self._cos1 = build_costheta_single(basis, "mol1")
        self._cos2 = build_costheta_single(basis, "mol2")
        self._columns = {name: [np.empty(0)] for name in ("t_red",) + COLUMNS}
        self._populations = [np.empty((0, len(self.watch)))]

    def __call__(self, t_red: np.ndarray, indices: np.ndarray, coeffs: np.ndarray) -> None:
        probs = np.abs(coeffs) ** 2
        weights = entanglement.schmidt_spectrum(self.basis, coeffs)
        block = {
            "t_red": t_red,
            "t_ps": indices * self.sample_interval_ps,
            "cos1": expectation(self._cos1, coeffs).real,
            "cos2": expectation(self._cos2, coeffs).real,
            "entropy": entanglement.von_neumann_entropy(weights, self.basis.d_single,
                                                        self.entropy_log_base),
            "norm": np.linalg.norm(coeffs, axis=1),
            "energy_rot": probs @ self.basis.rotor_diagonal,
        }
        for name, values in block.items():
            self._columns[name].append(np.asarray(values, dtype=float))
        self._populations.append(probs[:, self._watch_idx])

    def column(self, name: str) -> np.ndarray:
        """One recorded column: t_red or any of COLUMNS."""
        return np.concatenate(self._columns[name])

    def population_column(self, entry: tuple[int, int, int, int]) -> np.ndarray:
        entry = tuple(entry)
        if entry not in self.watch:
            raise QueryError(f"{entry} is not in the watch list {self.watch}")
        return np.concatenate(self._populations)[:, self.watch.index(entry)]

    def table(self) -> np.ndarray:
        """The CSV rows: COLUMNS, then the watched populations."""
        return np.column_stack([self.column(name) for name in COLUMNS]
                               + [np.concatenate(self._populations)])


def _autocorr_peak(x: np.ndarray, k_min: int, k_max: int) -> float:
    x = x - x.mean()
    n = x.size
    denom = float(x @ x) / n
    if denom == 0.0:
        return 0.0
    best = -np.inf
    for k in range(k_min, k_max + 1):
        r = float(x[: n - k] @ x[k:]) / (n - k) / denom
        best = max(best, r)
    return best


def _energy_growth_rate(t: np.ndarray, energy: np.ndarray, centers: np.ndarray) -> float:
    if centers.size < 2:
        return 0.0
    per_pulse = []
    for k in range(centers.size):
        if k + 1 < centers.size:
            before = np.nonzero(t < centers[k + 1])[0]
            if before.size == 0:
                raise QueryError("no sample falls before the next pulse center")
            per_pulse.append(energy[before[-1]])
        else:
            per_pulse.append(energy[-1])
    ks = np.arange(centers.size, dtype=float)
    slope, _ = np.polyfit(ks, np.asarray(per_pulse), 1)
    return float(slope)


def regularity_metrics(t_red: np.ndarray, cos_series: np.ndarray,
                       energy_series: np.ndarray, pulse_centers: np.ndarray,
                       min_lag_red: float = DEFAULT_MIN_LAG_RED) -> RegularityMetrics:
    """Quantify how regular a pulse-train orientation trace is.

    autocorr_peak: maximum unbiased-normalized autocorrelation of the
    orientation over lags from min_lag_red up to half the series.
    energy_growth_rate: least-squares slope of <L^2> after each pulse
    versus pulse index.
    """
    t = np.asarray(t_red, dtype=float)
    x = np.asarray(cos_series, dtype=float)
    e = np.asarray(energy_series, dtype=float)
    if t.size != x.size or t.size != e.size:
        raise QueryError("time, orientation, and energy series must share a length")
    if t.size < 64:
        raise QueryError(f"series too short for regularity metrics: {t.size} < 64")
    steps = np.diff(t)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise QueryError("series must be uniformly sampled")
    dt = float(steps[0])
    k_min = max(1, int(math.ceil(min_lag_red / dt - 1e-9)))
    k_max = t.size // 2
    if k_min > k_max:
        raise QueryError(
            f"series too short: min lag {min_lag_red} needs more than {t.size} samples at dt = {dt}"
        )
    return RegularityMetrics(
        autocorr_peak=_autocorr_peak(x, k_min, k_max),
        energy_growth_rate=_energy_growth_rate(t, e, np.asarray(pulse_centers, dtype=float)),
    )
