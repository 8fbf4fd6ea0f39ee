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
import typing
from dataclasses import dataclass

from .exceptions import InvalidConfigError
from .units import SYMBOLIC_PERIODS, dipole_strength, run_length_ps, time_unit_seconds

DEFAULT_WATCH = ((1, 0, 0, 0), (1, 0, 1, 0), (2, 0, 1, 0), (3, 0, 1, 0))
ENTROPY_LOG_BASES = ("e", "2", "d_single")
# Most samples one run may ask for; at 1e6 rows the CSV is about 200 MB.
MAX_SAMPLES = 1_000_000
# Largest basis.l_max. At 24 the symmetric sector has 2,925 states, so the
# dense H0 block and its eigenvectors are 2,925^2 floats (65 MiB) each, and
# the full basis (restrict_total_m: null) has 25^4 = 390,625 states.
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
    # key absent -> 0 (the M = 0 block); explicit null -> full basis
    restrict_total_m: int | None = 0


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

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise InvalidConfigError(f"{path} must be an object, got {type(value).__name__}")
    return value


def _reject_unknown(data: dict, allowed: tuple[str, ...], path: str) -> None:
    for key in data:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise InvalidConfigError(f"unknown key '{where}'")


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


def build_config(data: dict) -> RunConfig:
    """Parse a decoded JSON document; every absent key keeps its dataclass default."""
    _require_mapping(data, "config")
    sections = _hints(RunConfig)
    _reject_unknown(data, tuple(sections), "")
    parts = {}
    for name, section in sections.items():
        doc = _require_mapping(data.get(name, {}), name)
        _reject_unknown(doc, tuple(_hints(section)), name)
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
                 "pulse.omega_cm1", "integrator.dt_pulse_fs", "integrator.norm_tolerance",
                 "output.sample_interval_ps", "output.total_time_ps"):
        section, key = path.split(".")
        value = getattr(getattr(cfg, section), key)
        if value is not None and not value > 0:  # None only where the annotation allows it
            raise InvalidConfigError(f"{path} must be positive, got {value}")
    if cfg.pulse.t0_fs < 0:
        raise InvalidConfigError(f"pulse.t0_fs must be non-negative, got {cfg.pulse.t0_fs}")
    if cfg.pulse.count < 1:
        raise InvalidConfigError(f"pulse.count must be at least 1, got {cfg.pulse.count}")
    if cfg.pulse.count > 1 and cfg.pulse.period is None:
        raise InvalidConfigError("pulse.count > 1 requires pulse.period")
    if isinstance(cfg.pulse.period, str) and cfg.pulse.period not in SYMBOLIC_PERIODS:
        raise InvalidConfigError(
            f"pulse.period must be one of {tuple(SYMBOLIC_PERIODS)} when symbolic, got {cfg.pulse.period!r}")
    if isinstance(cfg.pulse.period, float) and not cfg.pulse.period > 0:
        raise InvalidConfigError(f"pulse.period in seconds must be positive, got {cfg.pulse.period}")
    if not 1 <= cfg.basis.l_max <= MAX_L_MAX:
        raise InvalidConfigError(f"basis.l_max must be between 1 and MAX_L_MAX = {MAX_L_MAX}, got {cfg.basis.l_max}")
    if cfg.basis.restrict_total_m not in (0, None):
        # the initial state |00;00> lies in the M = 0 block
        raise InvalidConfigError(
            f"basis.restrict_total_m must be 0 or null, got {cfg.basis.restrict_total_m!r}")
    watch, total_m = cfg.output.watch_populations, cfg.basis.restrict_total_m
    for k, (l1, m1, l2, m2) in enumerate(watch):
        where = f"output.watch_populations[{k}] = {(l1, m1, l2, m2)}"
        if l1 > cfg.basis.l_max or l2 > cfg.basis.l_max or abs(m1) > l1 or abs(m2) > l2:
            raise InvalidConfigError(f"{where} is not a pair of rotor states within basis.l_max = {cfg.basis.l_max}")
        if total_m not in (None, m1 + m2):
            raise InvalidConfigError(f"{where} is off the basis.restrict_total_m = {total_m} block")
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
    if cfg.pulse.count > MAX_PULSES:
        raise InvalidConfigError(f"pulse.count must be at most MAX_PULSES = {MAX_PULSES}, got {cfg.pulse.count}")
    try:  # B in joules, or R^3 B, can underflow to 0
        finite = math.isfinite(time_unit_seconds(cfg.molecule.B_cm1) + dipole_strength(cfg))
    except ArithmeticError:
        finite = False
    if not finite:
        raise InvalidConfigError(
            f"molecule.B_cm1 = {cfg.molecule.B_cm1:g} with geometry.R_m = {cfg.geometry.R_m} puts"
            " hbar/B or the dipole strength mu^2 / (4 pi eps0 R^3 B) outside the float range")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"config is not valid JSON: {exc}") from exc
    return build_config(data)


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
        build_config(_require_mapping(self.base, "base"))  # a bad base fails here, before any point runs
        for path in ("axis1", "axis2") if self.axis2 is not None else ("axis1",):
            axis = getattr(self, path)
            if axis.name not in SWEEP_AXES:
                raise InvalidConfigError(f"{path}.name must be one of {tuple(SWEEP_AXES)}, got {axis.name!r}")
            if not isinstance(axis.values, (list, tuple)) or not axis.values:
                raise InvalidConfigError(f"{path}.values must be a non-empty list")
            object.__setattr__(self, path, SweepAxis(axis.name, tuple(axis.values)))
        if self.axis2 is not None and self.axis2.name == self.axis1.name:
            raise InvalidConfigError(f"axis1 and axis2 must differ, both are {self.axis1.name!r}")
        hints = _hints(SweepSpec)
        for name in ("parallelism", "out_dir"):
            object.__setattr__(self, name, _typed(getattr(self, name), hints[name], f"sweep.{name}"))
        if self.parallelism is not None and self.parallelism < 1:
            raise InvalidConfigError(f"parallelism must be at least 1, got {self.parallelism}")


def _parse_axis(data, path: str) -> SweepAxis:
    _require_mapping(data, path)
    _reject_unknown(data, ("name", "values"), path)
    return SweepAxis(name=data.get("name"), values=data.get("values"))


def parse_sweep(text: str) -> SweepSpec:
    """Decode a JSON sweep specification; SweepSpec checks it."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"sweep spec is not valid JSON: {exc}") from exc
    _require_mapping(data, "sweep")
    _reject_unknown(data, ("base", "axis1", "axis2", "parallelism", "out_dir"), "")
    if "axis1" not in data:
        raise InvalidConfigError("sweep spec needs axis1")
    axes = {path: _parse_axis(data[path], path) for path in ("axis1", "axis2") if path in data}
    return SweepSpec(base=data.get("base", {}), parallelism=data.get("parallelism"),
                     out_dir=data.get("out_dir"), **axes)
