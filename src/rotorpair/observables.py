"""Measured quantities: the per-sample recorder (orientation, entropy,
rotational energy, populations) and regularity diagnostics for
pulse-train runs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import entanglement
from .config import OutputConfig
from .exceptions import QueryError
from .operators import HamiltonianPieces, expectation
from .output import COLUMNS

# Lags below half the orientation revival period (pi in reduced time)
# are excluded from the autocorrelation peak search by default.
DEFAULT_MIN_LAG_RED = math.pi / 2.0


@dataclass(frozen=True)
class RegularityMetrics:
    autocorr_peak: float
    energy_growth_rate: float


class TimeSeriesRecorder:
    """Block observer of one run of pieces that turns sampled sector rows into one table, a row per sample,
    with the columns names: t_red, h0_expect (<H0>), COLUMNS, then the watched populations. The watch list,
    the entropy's log base and the sample interval come from the run's OutputConfig."""

    def __init__(self, pieces: HamiltonianPieces, output: OutputConfig):
        self.pieces = pieces
        self.output = output
        self.watch = tuple(tuple(int(q) for q in entry) for entry in output.watch_populations)
        if len(set(self.watch)) < len(self.watch):  # it would write two columns of one name
            raise QueryError(f"watch list {self.watch} repeats an entry")
        # fail on an out-of-basis watch entry up front, not at sample time
        self._watch_idx = np.asarray([self.pieces.basis.index_of(*entry) for entry in self.watch], dtype=np.intp)
        self.names = ("t_red", "h0_expect") + COLUMNS + self.watch
        self._blocks = [np.empty((0, len(self.names)))]

    def __call__(self, t_red: np.ndarray, indices: np.ndarray, coeffs: np.ndarray) -> None:
        weights = entanglement.schmidt_spectrum(self.pieces.basis, coeffs)
        # cos(theta1) + cos(theta2) is V, and the sector makes the two halves equal
        cos = 0.5 * expectation(self.pieces.coupling, coeffs).real
        self._blocks.append(np.column_stack([
            t_red, expectation(self.pieces.h0, coeffs).real, indices * self.output.sample_interval_ps, cos, cos,
            entanglement.von_neumann_entropy(weights, self.pieces.basis.d_single, self.output.entropy_log_base),
            np.linalg.norm(coeffs, axis=1), (np.abs(coeffs) ** 2 * self.pieces.energies).sum(axis=1),
            np.abs(self.pieces.basis.unfold(coeffs, self._watch_idx)) ** 2]))

    def column(self, name) -> np.ndarray:
        """One column by its name in names: t_red, h0_expect, any of COLUMNS or a watched entry (a tuple or,
        as JSON gives it, a list); QueryError names the columns if there is none of that name."""
        key = tuple(name) if isinstance(name, list) else name
        if key not in self.names:
            raise QueryError(f"no column {name!r}; the columns are {self.names}")
        return np.concatenate(self._blocks)[:, self.names.index(key)]

    def table(self) -> np.ndarray:
        """The CSV rows: COLUMNS, then the watched populations."""
        return np.concatenate(self._blocks)[:, self.names.index(COLUMNS[0]):]


def _autocorr_peak(x: np.ndarray, k_min: int, k_max: int) -> float:
    x = x - x.mean()
    n, denom = x.size, float(x @ x) / x.size
    if denom == 0.0:
        return 0.0
    return max(float(x[: n - k] @ x[k:]) / (n - k) / denom for k in range(k_min, k_max + 1))


def _energy_growth_rate(t: np.ndarray, energy: np.ndarray, centers: np.ndarray) -> float:
    if centers.size < 2:
        return 0.0
    before = np.searchsorted(t, centers[1:]) - 1  # the last sample before each next pulse center
    if before.min() < 0:
        raise QueryError("no sample falls before the next pulse center")
    slope, _ = np.polyfit(np.arange(centers.size, dtype=float), np.append(energy[before], energy[-1]), 1)
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
