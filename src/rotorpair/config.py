"""JSON run configuration: schema, defaults, validation, presets, sweeps.

An empty document {} resolves to the default molecule pair (9.2 D,
0.12 cm^-1, R = 3e-8 m) driven by a single pulse. Unknown keys are
rejected with their path so typos cannot silently fall back to
defaults.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import os
import sys
import typing
from dataclasses import dataclass

from .exceptions import InvalidConfigError
from .units import SYMBOLIC_PERIODS, dipole_strength, fs_to_reduced, run_length_ps, time_unit_seconds

DEFAULT_WATCH = ((1, 0, 0, 0), (1, 0, 1, 0), (2, 0, 1, 0), (3, 0, 1, 0))
ENTROPY_LOG_BASES = ("e", "2", "d_single")
# Most samples one run may ask for; at 1e6 rows the CSV is about 200 MB.
MAX_SAMPLES = 1_000_000
# Most pulse-core steps per sigma, pulse.sigma_fs / integrator.dt_pulse_fs: it bounds a run's work (30,000 steps
# a core; at 1e-300 fs a run would step forever), not its memory.
MAX_STEPS_PER_SIGMA = 10_000
# Largest basis.l_max. At 24 the symmetric sector has 2,925 states in parity
# blocks of 1,547 and 1,378, so the larger dense H0 block and its eigenvectors
# are 1,547^2 floats (18 MiB) each; the eigendecomposition raises peak memory
# by about 91 MiB, and the run keeps 33 MiB of eigenvectors.
# That sets the bound: the sparse operators, built on the 10,425 M = 0 states
# with no product space behind them, take about 9 MiB to build.
MAX_L_MAX = 24
# Most pulses in one train; PulseSchedule.centers() holds one float per pulse.
# The envelope sums only the pulses near the times it is asked for.
MAX_PULSES = 10_000
# sweep axis name -> (section, key) in the run document
SWEEP_AXES = {"R_m": ("geometry", "R_m"), "E0_Vpm": ("pulse", "E0_Vpm"),
              "period": ("pulse", "period"), "l_max": ("basis", "l_max")}


@dataclass(frozen=True)
class MoleculeConfig:
    mu_debye: float = 9.2
    B_cm1: float = 0.12


@dataclass(frozen=True)
class GeometryConfig:
    # None means no dipole-dipole coupling at all (uncoupled pair)
    R_m: float | None = 3e-8


@dataclass(frozen=True)
class PulseConfig:
    E0_Vpm: float = 3e7
    sigma_fs: float = 279.0
    t0_fs: float = 1200.0
    omega_cm1: float = 30.0
    period: float | str | None = None
    count: int = 1


@dataclass(frozen=True)
class BasisConfig:
    l_max: int = 8


@dataclass(frozen=True)
class IntegratorSettings:
    dt_pulse_fs: float | None = None
    norm_tolerance: float = 1e-8


@dataclass(frozen=True)
class OutputConfig:
    sample_interval_ps: float = 0.5
    watch_populations: tuple[tuple[int, int, int, int], ...] = DEFAULT_WATCH
    entropy_log_base: str = "e"
    out_dir: str | None = None
    total_time_ps: float | None = None


@dataclass(frozen=True)
class RunConfig:
    molecule: MoleculeConfig = MoleculeConfig()
    geometry: GeometryConfig = GeometryConfig()
    pulse: PulseConfig = PulseConfig()
    basis: BasisConfig = BasisConfig()
    integrator: IntegratorSettings = IntegratorSettings()
    output: OutputConfig = OutputConfig()

    def __post_init__(self) -> None:
        # however the config was built: parsed, by hand or dataclasses.replace'd
        for name, section in _hints(RunConfig).items():
            object.__setattr__(self, name, _typed(getattr(self, name), section, name))
        validate_config(self)


_hints = functools.cache(typing.get_type_hints)  # class -> {field: resolved annotation}
_NOUNS = {float: "a number", int: "an integer", str: "a string", type(None): "null"}


def _typed(value, hint, where: str):
    """value checked against its annotation, the one statement of the schema: a float field
    takes a finite real, as a float, and an int field an integer (neither takes a bool);
    tuple[X, ...] takes a list or tuple of X, and a dataclass is checked field by field."""
    args = typing.get_args(hint) or (hint,)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise InvalidConfigError(f"{where} must be a list, got {value!r}")
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(value) != len(items):
            raise InvalidConfigError(f"{where} must hold {len(items)} entries, got {value!r}")
        return tuple(_typed(item, h, f"{where}[{k}]") for k, (item, h) in enumerate(zip(value, items)))
    if dataclasses.is_dataclass(hint) and isinstance(value, hint):
        return hint(**{key: _typed(getattr(value, key), h, f"{where}.{key}") for key, h in _hints(hint).items()})
    if value is None and type(None) in args or isinstance(value, str) and str in args:
        return value
    if float in args and isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:  # an integer literal beyond the float range
            raise InvalidConfigError(f"{where} must be finite, got an integer too large for a float") from None
        if not math.isfinite(value):
            raise InvalidConfigError(f"{where} must be finite, got {value}")
        return value
    if int in args and isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    wanted = " or ".join(_NOUNS.get(a) or f"a {a.__name__}" for a in args)
    raise InvalidConfigError(f"{where} must be {wanted}, got {value!r}")


def _fields_of(data, cls, what: str, path: str = "") -> dict:
    """data, a decoded JSON object (what names it if it is not one), whose every key, found at
    path (top level where empty), is a field of the dataclass cls."""
    if not isinstance(data, dict):
        raise InvalidConfigError(f"{what} must be an object, got {type(data).__name__}")
    for key in data:
        if key not in _hints(cls):
            raise InvalidConfigError(f"unknown key '{path}.{key}'" if path else f"unknown key '{key}'")
    return data


def build_config(data: dict) -> RunConfig:
    """Parse a decoded JSON document; every absent key keeps its dataclass default."""
    _fields_of(data, RunConfig, "config")
    parts = {}
    for name, section in _hints(RunConfig).items():
        doc = _fields_of(data.get(name, {}), section, name, name)
        if type(doc.get("entropy_log_base")) is int:  # a JSON 2 means "2"
            doc = {**doc, "entropy_log_base": str(doc["entropy_log_base"])}
        parts[name] = section(**doc)
    if "watch_populations" not in data.get("output", {}):
        # the default watch list, trimmed to the truncation the document picked
        l_max = _typed(parts["basis"], BasisConfig, "basis").l_max
        parts["output"] = dataclasses.replace(parts["output"], watch_populations=tuple(
            w for w in parts["output"].watch_populations if w[0] <= l_max and w[2] <= l_max))
    return RunConfig(**parts)


def validate_config(cfg: RunConfig) -> None:
    """The physical rules; RunConfig runs them once, when it is built and its fields are typed."""
    for path in ("molecule.mu_debye", "molecule.B_cm1", "geometry.R_m", "pulse.E0_Vpm", "pulse.sigma_fs",
                 "pulse.omega_cm1", "pulse.period", "integrator.dt_pulse_fs", "integrator.norm_tolerance",
                 "output.sample_interval_ps", "output.total_time_ps"):
        section, key = path.split(".")
        value = getattr(getattr(cfg, section), key)
        if isinstance(value, float) and not value > 0:  # a symbolic period is checked below
            raise InvalidConfigError(f"{path} must be positive, got {value}")
    if cfg.pulse.t0_fs < 0:
        raise InvalidConfigError(f"pulse.t0_fs must be non-negative, got {cfg.pulse.t0_fs}")
    if cfg.pulse.count > 1 and cfg.pulse.period is None:
        raise InvalidConfigError("pulse.count > 1 requires pulse.period")
    if isinstance(cfg.pulse.period, str) and cfg.pulse.period not in SYMBOLIC_PERIODS:
        raise InvalidConfigError(
            f"pulse.period must be one of {tuple(SYMBOLIC_PERIODS)} when symbolic, got {cfg.pulse.period!r}")
    if not 1 <= cfg.basis.l_max <= MAX_L_MAX:
        raise InvalidConfigError(f"basis.l_max must be between 1 and MAX_L_MAX = {MAX_L_MAX}, got {cfg.basis.l_max}")
    watch = cfg.output.watch_populations
    for k, (l1, m1, l2, m2) in enumerate(watch):
        where = f"output.watch_populations[{k}] = {(l1, m1, l2, m2)}"
        if l1 > cfg.basis.l_max or l2 > cfg.basis.l_max or abs(m1) > l1 or abs(m2) > l2:
            raise InvalidConfigError(f"{where} is not a pair of rotor states within basis.l_max = {cfg.basis.l_max}")
        if m1 + m2 != 0:  # |00;00> and every state it reaches have M = m1 + m2 = 0
            raise InvalidConfigError(f"{where} has m1 + m2 = {m1 + m2}; a run holds only M = 0 states")
        if watch[k] in watch[:k]:
            raise InvalidConfigError(f"{where} repeats an earlier entry")
    if cfg.output.entropy_log_base not in ENTROPY_LOG_BASES:
        raise InvalidConfigError(
            f"output.entropy_log_base must be one of {ENTROPY_LOG_BASES}, got {cfg.output.entropy_log_base!r}")
    try:
        length_ps = run_length_ps(cfg)
    except ArithmeticError:  # a pulse count past the float range, or hbar/B past it
        length_ps = math.inf
    if not length_ps / cfg.output.sample_interval_ps < MAX_SAMPLES:
        raise InvalidConfigError(
            f"output: a run of {length_ps:g} ps sampled every {cfg.output.sample_interval_ps:g} ps"
            f" needs more than MAX_SAMPLES = {MAX_SAMPLES} samples; shorten output.total_time_ps"
            " or widen output.sample_interval_ps")
    if not 1 <= cfg.pulse.count <= MAX_PULSES:
        raise InvalidConfigError(f"pulse.count must be between 1 and MAX_PULSES = {MAX_PULSES}, got {cfg.pulse.count}")
    try:  # B in joules, or R^3 B, can underflow to 0
        finite = math.isfinite(time_unit_seconds(cfg.molecule.B_cm1) + dipole_strength(cfg))
    except ArithmeticError:
        finite = False
    if not finite:
        raise InvalidConfigError(
            f"molecule.B_cm1 = {cfg.molecule.B_cm1:g} with geometry.R_m = {cfg.geometry.R_m} puts"
            " hbar/B or the dipole strength mu^2 / (4 pi eps0 R^3 B) outside the float range")
    dt_fs = cfg.integrator.dt_pulse_fs
    if dt_fs is not None and not (cfg.pulse.sigma_fs / dt_fs <= MAX_STEPS_PER_SIGMA
                                  and fs_to_reduced(dt_fs, cfg.molecule.B_cm1) > 0):  # 0.0 would skip the pulse
        raise InvalidConfigError(f"integrator.dt_pulse_fs = {dt_fs:g} is below pulse.sigma_fs / MAX_STEPS_PER_SIGMA"
                                 f" = {cfg.pulse.sigma_fs / MAX_STEPS_PER_SIGMA:g} fs, or 0 in units of hbar/B")
    if not sys.float_info.min <= fs_to_reduced(cfg.pulse.sigma_fs, cfg.molecule.B_cm1) < math.inf:  # sigma/400 > 0
        raise InvalidConfigError(f"pulse.sigma_fs = {cfg.pulse.sigma_fs:g} under- or overflows in units of hbar/B")
    if not cfg.pulse.sigma_fs * 1e-3 >= 1e-7 * length_ps:  # an ulp of the clock stays under ~5e-9 sigma
        raise InvalidConfigError(f"pulse.sigma_fs = {cfg.pulse.sigma_fs:g} is below 1e-7 of the {length_ps:g} ps run")
    _check_path(cfg.output.out_dir, "output.out_dir")


def _check_path(path: str | None, where: str) -> None:
    """Refuse a path the OS cannot take: one that holds a NUL, or a lone surrogate that os.fsencode refuses."""
    try:
        if path is None or b"\0" not in os.fsencode(path):
            return
    except UnicodeEncodeError:
        pass
    raise InvalidConfigError(f"{where} must be a path without a NUL or a lone surrogate, got {path!r}")


def _decoded(data: str | bytes, what: str):
    """data, JSON text or a file's bytes (strict UTF-8, so a byte-order mark stays and is refused), decoded;
    what names the document."""
    try:  # bad JSON or UTF-8, an integer past the digit limit, or nesting past the recursion limit
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:
        raise InvalidConfigError(f"{what} is not valid JSON: {exc}") from exc


def parse_config(data: str | bytes) -> RunConfig:
    """Parse and validate a JSON config document, given as text or as a file's bytes."""
    return build_config(_decoded(data, "config"))


# ---------------------------------------------------------------------------
# presets

# preset name -> {run label: run document}; each document states only
# what differs from {}
_HBAR_TRAIN = {"period": "hbar_over_B", "count": 20}
_PI_TRAIN = {"period": "pi_hbar_over_B", "count": 20}
PRESETS = {
    "fig1a": {"fig1a": {}},
    "fig1b": {"fig1b": {"geometry": {"R_m": 2e-8}}},
    "fig2a": {"fig2a_R30": {"pulse": _HBAR_TRAIN},
              "fig2a_R20": {"geometry": {"R_m": 2e-8}, "pulse": _HBAR_TRAIN}},
    "fig2b": {"fig2b_R30": {"pulse": _PI_TRAIN},
              "fig2b_R20": {"geometry": {"R_m": 2e-8}, "pulse": _PI_TRAIN}},
    "fig3a": {"fig3a": {"geometry": {"R_m": 5e-8}}},
    "fig3b": {"fig3b": {"geometry": {"R_m": 1.5e-8}}},
    "fig4": {"fig4_E15": {"geometry": {"R_m": 1.5e-8}, "pulse": {"E0_Vpm": 1.5e7}},
             "fig4_E30": {"geometry": {"R_m": 1.5e-8}}},
}
PRESET_NAMES = tuple(PRESETS)


def preset(name: str) -> list[tuple[str, RunConfig]]:
    """Named experiment presets as (label, config) pairs.

    Two-panel experiments return one run per panel: the pulse-train
    presets pair distances 3e-8 / 2e-8 m, the field-strength preset
    pairs E0 = 1.5e7 / 3e7 V/m.
    """
    if name not in PRESETS:
        raise InvalidConfigError(f"unknown preset {name!r}; valid presets: {PRESET_NAMES}")
    return [(label, build_config(doc)) for label, doc in PRESETS[name].items()]


# ---------------------------------------------------------------------------
# sweeps

@dataclass(frozen=True)
class SweepAxis:
    name: str
    values: tuple


@dataclass(frozen=True)
class SweepSpec:
    base: dict  # the base run document; each point is parsed from it
    axis1: SweepAxis
    axis2: SweepAxis | None = None
    parallelism: int | None = None
    out_dir: str | None = None

    def __post_init__(self) -> None:
        # however the spec was built: parsed or by hand
        build_config(_fields_of(self.base, RunConfig, "base"))  # a bad base fails here, before any point runs
        for path in ("axis1", "axis2") if self.axis2 is not None else ("axis1",):
            axis = getattr(self, path)
            if not isinstance(axis.name, str) or axis.name not in SWEEP_AXES:
                raise InvalidConfigError(f"{path}.name must be one of {tuple(SWEEP_AXES)}, got {axis.name!r}")
            if not isinstance(axis.values, (list, tuple)) or not axis.values:
                raise InvalidConfigError(f"{path}.values must be a non-empty list")
            object.__setattr__(self, path, SweepAxis(axis.name, tuple(axis.values)))
        if self.axis2 is not None and self.axis2.name == self.axis1.name:
            raise InvalidConfigError(f"axis1 and axis2 must differ, both are {self.axis1.name!r}")
        hints = _hints(SweepSpec)
        for name in ("parallelism", "out_dir"):
            object.__setattr__(self, name, _typed(getattr(self, name), hints[name], f"sweep.{name}"))
        _check_path(self.out_dir, "sweep.out_dir")
        if self.parallelism is not None and self.parallelism < 1:
            raise InvalidConfigError(f"parallelism must be at least 1, got {self.parallelism}")


def parse_sweep(data: str | bytes) -> SweepSpec:
    """Decode a JSON sweep specification, given as text or as a file's bytes, whose keys are SweepSpec's
    fields; SweepSpec checks it."""
    data = _decoded(data, "sweep spec")
    _fields_of(data, SweepSpec, "sweep")
    if "axis1" not in data:
        raise InvalidConfigError("sweep spec needs axis1")
    axes = {path: _fields_of(data[path], SweepAxis, path, path) for path in ("axis1", "axis2") if path in data}
    axes = {path: SweepAxis(axis.get("name"), axis.get("values")) for path, axis in axes.items()}
    return SweepSpec(**{"base": {}, **data, **axes})
