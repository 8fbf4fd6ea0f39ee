"""JSON run configuration: schema, defaults, validation, presets, sweeps.

An empty document {} resolves to the default molecule pair (9.2 D,
0.12 cm^-1, R = 3e-8 m) driven by a single pulse. Unknown keys are
rejected with their path so typos cannot silently fall back to
defaults.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .exceptions import InvalidConfigError
from .units import SYMBOLIC_PERIODS, PhysicalSetup

DEFAULT_WATCH = ((1, 0, 0, 0), (1, 0, 1, 0), (2, 0, 1, 0), (3, 0, 1, 0))
ENTROPY_LOG_BASES = ("e", "2", "d_single")
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
        validate_config(self)

    def to_setup(self) -> PhysicalSetup:
        return PhysicalSetup(
            mu_debye=self.molecule.mu_debye,
            B_cm1=self.molecule.B_cm1,
            R_m=self.geometry.R_m,
            E0_Vpm=self.pulse.E0_Vpm,
            sigma_fs=self.pulse.sigma_fs,
            t0_fs=self.pulse.t0_fs,
            omega_cm1=self.pulse.omega_cm1,
            period=self.pulse.period,
            count=self.pulse.count,
        )

    def to_json_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["output"]["watch_populations"] = [list(w) for w in self.output.watch_populations]
        return d


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise InvalidConfigError(f"{path} must be an object, got {type(value).__name__}")
    return value


def _reject_unknown(data: dict, allowed: tuple[str, ...], path: str) -> None:
    for key in data:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise InvalidConfigError(f"unknown key '{where}'")


def _number(data: dict, key: str, default, path: str, allow_none: bool = False):
    if key not in data:
        return default
    value = data[key]
    if value is None:
        if allow_none:
            return None
        raise InvalidConfigError(f"{path}.{key} must be a number, got null")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidConfigError(f"{path}.{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise InvalidConfigError(f"{path}.{key} must be finite, got an integer too large for a float") from None


def _integer(data: dict, key: str, default, path: str, allow_none: bool = False):
    if key not in data:
        return default
    value = data[key]
    if value is None and allow_none:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidConfigError(f"{path}.{key} must be an integer, got {value!r}")
    return value


def _parse_watch(raw, path: str):
    if not isinstance(raw, list):
        raise InvalidConfigError(f"{path} must be a list of [l, m, l', m'] entries")
    for k, entry in enumerate(raw):
        if (not isinstance(entry, list)) or len(entry) != 4 or \
                any(isinstance(q, bool) or not isinstance(q, int) for q in entry):
            raise InvalidConfigError(f"{path}[{k}] must be four integers [l, m, l', m']")
    return tuple(tuple(entry) for entry in raw)


def build_config(data: dict) -> RunConfig:
    """Validate a decoded JSON document and apply defaults."""
    _require_mapping(data, "config")
    _reject_unknown(data, ("molecule", "geometry", "pulse", "basis", "integrator", "output"), "")

    mol_d = _require_mapping(data.get("molecule", {}), "molecule")
    _reject_unknown(mol_d, ("mu_debye", "B_cm1"), "molecule")
    molecule = MoleculeConfig(
        mu_debye=_number(mol_d, "mu_debye", 9.2, "molecule"),
        B_cm1=_number(mol_d, "B_cm1", 0.12, "molecule"),
    )

    geo_d = _require_mapping(data.get("geometry", {}), "geometry")
    _reject_unknown(geo_d, ("R_m",), "geometry")
    geometry = GeometryConfig(R_m=_number(geo_d, "R_m", 3e-8, "geometry", allow_none=True))

    pulse_d = _require_mapping(data.get("pulse", {}), "pulse")
    _reject_unknown(pulse_d, ("E0_Vpm", "sigma_fs", "t0_fs", "omega_cm1", "period", "count"), "pulse")
    period = pulse_d.get("period", None)
    if not isinstance(period, str):  # null or seconds; a symbolic name is checked in validate_config
        period = _number(pulse_d, "period", None, "pulse", allow_none=True)
    pulse = PulseConfig(
        E0_Vpm=_number(pulse_d, "E0_Vpm", 3e7, "pulse"),
        sigma_fs=_number(pulse_d, "sigma_fs", 279.0, "pulse"),
        t0_fs=_number(pulse_d, "t0_fs", 1200.0, "pulse"),
        omega_cm1=_number(pulse_d, "omega_cm1", 30.0, "pulse"),
        period=period,
        count=_integer(pulse_d, "count", 1, "pulse"),
    )

    basis_d = _require_mapping(data.get("basis", {}), "basis")
    _reject_unknown(basis_d, ("l_max", "restrict_total_m"), "basis")
    basis = BasisConfig(
        l_max=_integer(basis_d, "l_max", 8, "basis"),
        restrict_total_m=_integer(basis_d, "restrict_total_m", 0, "basis", allow_none=True),
    )

    integ_d = _require_mapping(data.get("integrator", {}), "integrator")
    _reject_unknown(integ_d, ("dt_pulse_fs", "norm_tolerance"), "integrator")
    integrator = IntegratorSettings(
        dt_pulse_fs=_number(integ_d, "dt_pulse_fs", None, "integrator", allow_none=True),
        norm_tolerance=_number(integ_d, "norm_tolerance", 1e-8, "integrator"),
    )

    out_d = _require_mapping(data.get("output", {}), "output")
    _reject_unknown(out_d, ("sample_interval_ps", "watch_populations", "entropy_log_base",
                            "out_dir", "total_time_ps"), "output")
    if "watch_populations" in out_d:
        watch = _parse_watch(out_d["watch_populations"], "output.watch_populations")
    else:
        # default watch list, trimmed to the truncation the user picked
        watch = tuple(w for w in DEFAULT_WATCH if w[0] <= basis.l_max and w[2] <= basis.l_max)
    log_base = out_d.get("entropy_log_base", "e")
    if isinstance(log_base, int) and not isinstance(log_base, bool):
        log_base = str(log_base)
    out_dir = out_d.get("out_dir", None)
    if out_dir is not None and not isinstance(out_dir, str):
        raise InvalidConfigError(f"output.out_dir must be a string path, got {out_dir!r}")
    output = OutputConfig(
        sample_interval_ps=_number(out_d, "sample_interval_ps", 0.5, "output"),
        watch_populations=watch,
        entropy_log_base=log_base,
        out_dir=out_dir,
        total_time_ps=_number(out_d, "total_time_ps", None, "output", allow_none=True),
    )

    return RunConfig(molecule, geometry, pulse, basis, integrator, output)


def validate_config(cfg: RunConfig) -> None:
    """The physical rules; RunConfig runs them once, when it is built."""
    for section in dataclasses.fields(cfg):
        part = getattr(cfg, section.name)
        for item in dataclasses.fields(part):
            value = getattr(part, item.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidConfigError(f"{section.name}.{item.name} must be finite, got {value}")
    for path, value in (
        ("molecule.mu_debye", cfg.molecule.mu_debye),
        ("molecule.B_cm1", cfg.molecule.B_cm1),
        ("pulse.E0_Vpm", cfg.pulse.E0_Vpm),
        ("pulse.sigma_fs", cfg.pulse.sigma_fs),
        ("pulse.omega_cm1", cfg.pulse.omega_cm1),
        ("output.sample_interval_ps", cfg.output.sample_interval_ps),
    ):
        if not value > 0:
            raise InvalidConfigError(f"{path} must be positive, got {value}")
    if cfg.geometry.R_m is not None and not cfg.geometry.R_m > 0:
        raise InvalidConfigError(f"geometry.R_m must be positive or null, got {cfg.geometry.R_m}")
    if cfg.pulse.t0_fs < 0:
        raise InvalidConfigError(f"pulse.t0_fs must be non-negative, got {cfg.pulse.t0_fs}")
    if cfg.pulse.count < 1:
        raise InvalidConfigError(f"pulse.count must be at least 1, got {cfg.pulse.count}")
    if cfg.pulse.count > 1 and cfg.pulse.period is None:
        raise InvalidConfigError("pulse.count > 1 requires pulse.period")
    if isinstance(cfg.pulse.period, str) and cfg.pulse.period not in SYMBOLIC_PERIODS:
        raise InvalidConfigError(
            f"pulse.period must be one of {SYMBOLIC_PERIODS} when symbolic, got {cfg.pulse.period!r}")
    if isinstance(cfg.pulse.period, (int, float)) and not cfg.pulse.period > 0:
        raise InvalidConfigError(f"pulse.period in seconds must be positive, got {cfg.pulse.period}")
    if cfg.basis.l_max < 1:
        raise InvalidConfigError(f"basis.l_max must be at least 1, got {cfg.basis.l_max}")
    if cfg.basis.restrict_total_m not in (0, None):
        # the initial state |00;00> lies in the M = 0 block
        raise InvalidConfigError(
            f"basis.restrict_total_m must be 0 or null, got {cfg.basis.restrict_total_m!r}")
    if cfg.integrator.dt_pulse_fs is not None and not cfg.integrator.dt_pulse_fs > 0:
        raise InvalidConfigError(f"integrator.dt_pulse_fs must be positive, got {cfg.integrator.dt_pulse_fs}")
    if not cfg.integrator.norm_tolerance > 0:
        raise InvalidConfigError(f"integrator.norm_tolerance must be positive, got {cfg.integrator.norm_tolerance}")
    for k, (l1, m1, l2, m2) in enumerate(cfg.output.watch_populations):
        if l1 > cfg.basis.l_max or l2 > cfg.basis.l_max or abs(m1) > l1 or abs(m2) > l2:
            raise InvalidConfigError(
                f"output.watch_populations[{k}] = {(l1, m1, l2, m2)} is not a pair of rotor states"
                f" within basis.l_max = {cfg.basis.l_max}")
    if cfg.output.entropy_log_base not in ENTROPY_LOG_BASES:
        raise InvalidConfigError(
            f"output.entropy_log_base must be one of {ENTROPY_LOG_BASES}, got {cfg.output.entropy_log_base!r}")
    if cfg.output.total_time_ps is not None and not cfg.output.total_time_ps > 0:
        raise InvalidConfigError(f"output.total_time_ps must be positive, got {cfg.output.total_time_ps}")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"config is not valid JSON: {exc}") from exc
    return build_config(data)


# ---------------------------------------------------------------------------
# presets

PRESET_NAMES = ("fig1a", "fig1b", "fig2a", "fig2b", "fig3a", "fig3b", "fig4")


def preset(name: str) -> list[tuple[str, RunConfig]]:
    """Named experiment presets as (label, config) pairs.

    Two-panel experiments return one run per panel: the pulse-train
    presets pair distances 3e-8 / 2e-8 m, the field-strength preset
    pairs E0 = 1.5e7 / 3e7 V/m.
    """
    def cfg(geometry_R=3e-8, E0=3e7, period=None, count=1):
        doc: dict = {"geometry": {"R_m": geometry_R}, "pulse": {"E0_Vpm": E0}}
        if period is not None:
            doc["pulse"]["period"] = period
            doc["pulse"]["count"] = count
        return build_config(doc)

    if name == "fig1a":
        return [("fig1a", cfg(geometry_R=3e-8))]
    if name == "fig1b":
        return [("fig1b", cfg(geometry_R=2e-8))]
    if name == "fig2a":
        return [
            ("fig2a_R30", cfg(geometry_R=3e-8, period="hbar_over_B", count=20)),
            ("fig2a_R20", cfg(geometry_R=2e-8, period="hbar_over_B", count=20)),
        ]
    if name == "fig2b":
        return [
            ("fig2b_R30", cfg(geometry_R=3e-8, period="pi_hbar_over_B", count=20)),
            ("fig2b_R20", cfg(geometry_R=2e-8, period="pi_hbar_over_B", count=20)),
        ]
    if name == "fig3a":
        return [("fig3a", cfg(geometry_R=5e-8))]
    if name == "fig3b":
        return [("fig3b", cfg(geometry_R=1.5e-8))]
    if name == "fig4":
        return [
            ("fig4_E15", cfg(geometry_R=1.5e-8, E0=1.5e7)),
            ("fig4_E30", cfg(geometry_R=1.5e-8, E0=3e7)),
        ]
    raise InvalidConfigError(f"unknown preset {name!r}; valid presets: {PRESET_NAMES}")


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


def _parse_axis(data, path: str) -> SweepAxis:
    _require_mapping(data, path)
    _reject_unknown(data, ("name", "values"), path)
    name = data.get("name")
    if name not in SWEEP_AXES:
        raise InvalidConfigError(f"{path}.name must be one of {tuple(SWEEP_AXES)}, got {name!r}")
    values = data.get("values")
    if not isinstance(values, list) or not values:
        raise InvalidConfigError(f"{path}.values must be a non-empty list")
    return SweepAxis(name=name, values=tuple(values))


def parse_sweep(text: str) -> SweepSpec:
    """Parse and validate a JSON sweep specification."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"sweep spec is not valid JSON: {exc}") from exc
    _require_mapping(data, "sweep")
    _reject_unknown(data, ("base", "axis1", "axis2", "parallelism", "out_dir"), "")
    if "axis1" not in data:
        raise InvalidConfigError("sweep spec needs axis1")
    base = _require_mapping(data.get("base", {}), "base")
    build_config(base)  # a bad base fails here, before any point runs
    axis1 = _parse_axis(data["axis1"], "axis1")
    axis2 = _parse_axis(data["axis2"], "axis2") if "axis2" in data else None
    if axis2 is not None and axis2.name == axis1.name:
        raise InvalidConfigError(f"axis1 and axis2 must differ, both are {axis1.name!r}")
    parallelism = _integer(data, "parallelism", None, "sweep", allow_none=True)
    if parallelism is not None and parallelism < 1:
        raise InvalidConfigError(f"parallelism must be at least 1, got {parallelism}")
    out_dir = data.get("out_dir", None)
    if out_dir is not None and not isinstance(out_dir, str):
        raise InvalidConfigError(f"out_dir must be a string path, got {out_dir!r}")
    return SweepSpec(base=base, axis1=axis1, axis2=axis2, parallelism=parallelism, out_dir=out_dir)
