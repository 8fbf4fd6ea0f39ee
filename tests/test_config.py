import ast
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import pytest

import rotorpair
from rotorpair.config import (
    DEFAULT_WATCH,
    MAX_L_MAX,
    MAX_PULSES,
    MAX_SAMPLES,
    MAX_STEPS_PER_SIGMA,
    PRESET_NAMES,
    RunConfig,
    SweepAxis,
    SweepSpec,
    build_config,
    parse_config,
    parse_sweep,
    preset,
    validate_config,
)
from rotorpair.exceptions import InvalidConfigError
from rotorpair.units import time_unit_seconds, to_reduced


def test_empty_document_gives_the_default_molecule_pair():
    cfg = parse_config("{}")
    assert cfg.molecule.mu_debye == 9.2
    assert cfg.molecule.B_cm1 == 0.12
    assert cfg.geometry.R_m == 3e-8
    assert cfg.pulse.E0_Vpm == 3e7
    assert cfg.pulse.sigma_fs == 279.0
    assert cfg.pulse.t0_fs == 1200.0
    assert cfg.pulse.omega_cm1 == 30.0
    assert cfg.pulse.period is None
    assert cfg.pulse.count == 1
    assert cfg.basis.l_max == 8
    assert [field.name for field in dataclasses.fields(cfg.basis)] == ["l_max"]
    assert cfg.integrator.dt_pulse_fs is None
    assert cfg.integrator.norm_tolerance == 1e-8
    assert cfg.output.sample_interval_ps == 0.5
    assert cfg.output.watch_populations == DEFAULT_WATCH
    assert cfg.output.entropy_log_base == "e"
    assert cfg.output.out_dir is None
    assert cfg.output.total_time_ps is None


def test_an_empty_document_is_the_default_config():
    assert build_config({}) == RunConfig()


# a JSON value for every key of every section, and what it parses to; a
# field without an entry here (or without a parser) fails the test below
KEY_VALUES = {
    ("molecule", "mu_debye"): (5, 5.0),
    ("molecule", "B_cm1"): (0.2, 0.2),
    ("geometry", "R_m"): (None, None),
    ("pulse", "E0_Vpm"): (1e7, 1e7),
    ("pulse", "sigma_fs"): (100, 100.0),
    ("pulse", "t0_fs"): (500.0, 500.0),
    ("pulse", "omega_cm1"): (20.0, 20.0),
    ("pulse", "period"): ("pi_hbar_over_B", "pi_hbar_over_B"),
    ("pulse", "count"): (3, 3),
    ("basis", "l_max"): (10, 10),
    ("integrator", "dt_pulse_fs"): (0.5, 0.5),
    ("integrator", "norm_tolerance"): (1e-6, 1e-6),
    ("output", "sample_interval_ps"): (1, 1.0),
    ("output", "watch_populations"): ([[1, 0, 0, 0]], ((1, 0, 0, 0),)),
    ("output", "entropy_log_base"): (2, "2"),
    ("output", "out_dir"): ("somewhere", "somewhere"),
    ("output", "total_time_ps"): (100.0, 100.0),
}
ALL_KEYS = [(section.name, item.name) for section in dataclasses.fields(RunConfig)
            for item in dataclasses.fields(section.default)]


def test_every_key_has_a_test_value():
    assert sorted(ALL_KEYS) == sorted(KEY_VALUES)


@pytest.mark.parametrize("section, key", ALL_KEYS)
def test_a_key_sets_only_its_own_field(section, key):
    base = {"pulse": {"period": "hbar_over_B"}} if key == "count" else {}  # a train needs a period
    value, parsed = KEY_VALUES[(section, key)]
    before = build_config(base)
    after = build_config({**base, section: {**base.get(section, {}), key: value}})
    part = getattr(before, section)
    assert getattr(part, key) != parsed
    assert after == dataclasses.replace(before, **{section: dataclasses.replace(part, **{key: parsed})})
    assert type(getattr(getattr(after, section), key)) is type(parsed)  # a JSON 5 is 5.0 in a float field


# a value of the wrong type for every key: the annotation rejects it however the config is built
WRONG_TYPED = {
    ("molecule", "mu_debye"): "9.2",
    ("molecule", "B_cm1"): True,
    ("geometry", "R_m"): "x",
    ("pulse", "E0_Vpm"): True,
    ("pulse", "sigma_fs"): "x",
    ("pulse", "t0_fs"): True,
    ("pulse", "omega_cm1"): "x",
    ("pulse", "period"): True,
    ("pulse", "count"): 2.5,
    ("basis", "l_max"): 2.5,
    ("integrator", "dt_pulse_fs"): True,
    ("integrator", "norm_tolerance"): "x",
    ("output", "sample_interval_ps"): True,
    ("output", "watch_populations"): [[1, 0, 0]],
    ("output", "entropy_log_base"): True,
    ("output", "out_dir"): 7,
    ("output", "total_time_ps"): "x",
}


def test_every_key_has_a_wrong_typed_value():
    assert sorted(ALL_KEYS) == sorted(WRONG_TYPED)


@pytest.mark.parametrize("how", ["constructor", "replace", "build_config"])
@pytest.mark.parametrize("section, key", ALL_KEYS)
def test_a_wrong_typed_value_is_rejected_however_the_config_is_built(section, key, how):
    value = WRONG_TYPED[(section, key)]
    part = type(getattr(RunConfig(), section))(**{key: value})
    build = {
        "constructor": lambda: RunConfig(**{section: part}),
        "replace": lambda: dataclasses.replace(RunConfig(), **{section: part}),
        "build_config": lambda: build_config({section: {key: value}}),
    }[how]
    with pytest.raises(InvalidConfigError, match=re.escape(f"{section}.{key}")):
        build()


@pytest.mark.parametrize("l_max", [True, 0, -1, 2.5, 2.0, "2", None])
def test_a_replaced_l_max_is_checked(l_max):
    # TwoRotorBasis takes l_max as a RunConfig has checked it
    with pytest.raises(InvalidConfigError, match=r"^basis\.l_max must be (an integer|between 1 and MAX_L_MAX)"):
        dataclasses.replace(RunConfig(), basis=dataclasses.replace(RunConfig().basis, l_max=l_max))


def test_an_integer_in_a_float_field_is_echoed_as_a_float():
    cfg = dataclasses.replace(RunConfig(), pulse=dataclasses.replace(RunConfig().pulse, sigma_fs=100))
    assert '"sigma_fs": 100.0' in json.dumps(dataclasses.asdict(cfg))


def test_the_type_is_checked_before_the_default_watch_list_is_trimmed():
    with pytest.raises(InvalidConfigError, match=re.escape("basis.l_max must be an integer, got '8'")):
        build_config({"basis": {"l_max": "8"}})
    with pytest.raises(InvalidConfigError, match="output.entropy_log_base must be a string, got True"):
        build_config({"output": {"entropy_log_base": True}})


def test_symbolic_pi_period_is_exact():
    cfg = parse_config('{"pulse": {"period": "pi_hbar_over_B", "count": 20}}')
    schedule, *_ = to_reduced(cfg)
    assert schedule.period_red == math.pi


def test_negative_separation_is_rejected():
    with pytest.raises(InvalidConfigError):
        parse_config('{"geometry": {"R_m": -1}}')


def test_null_separation_turns_the_coupling_off():
    cfg = parse_config('{"geometry": {"R_m": null}}')
    assert cfg.geometry.R_m is None
    _, dipole, *_ = to_reduced(cfg)
    assert dipole == 0.0


def test_malformed_json_is_a_config_error():
    with pytest.raises(InvalidConfigError):
        parse_config("{not json")
    with pytest.raises(InvalidConfigError):
        parse_config("[1, 2]")


def test_unknown_keys_are_rejected_with_their_path():
    with pytest.raises(InvalidConfigError, match="pulse.sigma"):
        parse_config('{"pulse": {"sigma": 279}}')
    with pytest.raises(InvalidConfigError, match="molecul"):
        parse_config('{"molecul": {}}')
    with pytest.raises(InvalidConfigError, match="output.format"):
        parse_config('{"output": {"format": "csv"}}')


def test_booleans_are_not_numbers():
    with pytest.raises(InvalidConfigError):
        parse_config('{"molecule": {"mu_debye": true}}')
    with pytest.raises(InvalidConfigError):
        parse_config('{"pulse": {"count": true}}')


@pytest.mark.parametrize("value", ["0", "null", "1"])
def test_restrict_total_m_is_an_unknown_key(value):
    # every run holds the M = 0 states only, so there is no basis to choose
    with pytest.raises(InvalidConfigError, match=r"^unknown key 'basis\.restrict_total_m'$"):
        parse_config(f'{{"basis": {{"restrict_total_m": {value}}}}}')


def test_watch_list_parsing():
    cfg = parse_config('{"output": {"watch_populations": [[1, 0, 0, 0], [2, -1, 1, 1]]}}')
    assert cfg.output.watch_populations == ((1, 0, 0, 0), (2, -1, 1, 1))
    cfg = parse_config('{"output": {"watch_populations": []}}')
    assert cfg.output.watch_populations == ()


@pytest.mark.parametrize("doc", [
    '{"output": {"watch_populations": [[1, 0, 0]]}}',
    '{"output": {"watch_populations": [[1, 0, 0, 0.5]]}}',
    '{"output": {"watch_populations": [[1, 0, 0, true]]}}',
    '{"output": {"watch_populations": [[1, 2, 0, 0]]}}',
    '{"output": {"watch_populations": [[9, 0, 0, 0]]}}',
    '{"output": {"watch_populations": "1 0 0 0"}}',
    '{"output": {"watch_populations": [[1, 1, 1, 0]]}}',  # off the M = 0 block
    '{"output": {"watch_populations": [[1, 0, 0, 0], [2, 0, 0, 0], [1, 0, 0, 0]]}}',  # repeated
])
def test_bad_watch_entries_are_rejected(doc):
    with pytest.raises(InvalidConfigError):
        parse_config(doc)


def test_a_watch_entry_off_m_zero_names_its_total_m():
    with pytest.raises(InvalidConfigError, match=r"^output\.watch_populations\[1\] = \(0, 0, 1, -1\) has m1 \+ m2 = -1;"
                                                 r" a run holds only M = 0 states$"):
        parse_config('{"output": {"watch_populations": [[1, 0, 0, 0], [0, 0, 1, -1]]}}')


def test_default_watch_list_shrinks_with_the_basis():
    cfg = parse_config('{"basis": {"l_max": 2}}')
    assert cfg.output.watch_populations == tuple(
        w for w in DEFAULT_WATCH if w[0] <= 2 and w[2] <= 2
    )
    assert (3, 0, 1, 0) not in cfg.output.watch_populations


def test_entropy_log_base_values():
    assert parse_config('{"output": {"entropy_log_base": "2"}}').output.entropy_log_base == "2"
    assert parse_config('{"output": {"entropy_log_base": 2}}').output.entropy_log_base == "2"
    assert parse_config('{"output": {"entropy_log_base": "d_single"}}').output.entropy_log_base == "d_single"
    with pytest.raises(InvalidConfigError):
        parse_config('{"output": {"entropy_log_base": "10"}}')


@pytest.mark.parametrize("doc", [
    '{"molecule": {"B_cm1": 0}}',
    '{"pulse": {"E0_Vpm": -1}}',
    '{"pulse": {"sigma_fs": 0}}',
    '{"pulse": {"count": 0}}',
    '{"pulse": {"count": 3}}',
    '{"pulse": {"period": 0}}',
    '{"pulse": {"period": "sometimes"}}',
    '{"basis": {"l_max": 0}}',
    '{"basis": {"l_max": "8"}}',
    '{"integrator": {"dt_pulse_fs": -1}}',
    '{"integrator": {"norm_tolerance": 0}}',
    '{"output": {"sample_interval_ps": 0}}',
    '{"output": {"total_time_ps": -5}}',
    '{"output": {"out_dir": 7}}',
])
def test_physics_violations_are_rejected(doc):
    with pytest.raises(InvalidConfigError):
        parse_config(doc)


NUMERIC_KEYS = (
    ("molecule", "mu_debye"), ("molecule", "B_cm1"), ("geometry", "R_m"),
    ("pulse", "E0_Vpm"), ("pulse", "sigma_fs"), ("pulse", "t0_fs"), ("pulse", "omega_cm1"),
    ("pulse", "period"), ("integrator", "dt_pulse_fs"), ("integrator", "norm_tolerance"),
    ("output", "sample_interval_ps"), ("output", "total_time_ps"),
)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity",
                                     pytest.param("1" + "0" * 400, id="1e400_as_integer")])
@pytest.mark.parametrize("section, key", NUMERIC_KEYS)
def test_non_finite_numbers_are_rejected(section, key, literal):
    # Python's json accepts these literals; a NaN t0_fs would run with no pulse,
    # and an integer past the float range would overflow while parsing
    doc = f'{{"{section}": {{"{key}": {literal}}}}}'
    with pytest.raises(InvalidConfigError, match=f"{section}.{key} must be finite"):
        parse_config(doc)


def test_round_trip_through_json_dict():
    cfg = parse_config('{"pulse": {"period": "hbar_over_B", "count": 4},'
                       ' "output": {"total_time_ps": 250.0}}')
    again = build_config(json.loads(json.dumps(dataclasses.asdict(cfg))))
    assert again == cfg


# --- sample-count bound ---------------------------------------------------------

@pytest.mark.parametrize("doc", [
    {"output": {"total_time_ps": 1e300}},
    {"output": {"total_time_ps": float(MAX_SAMPLES), "sample_interval_ps": 1.0}},
    # a defaulted run length counts too: 400 ps for one pulse, count * T + 100 ps for a train
    {"output": {"sample_interval_ps": 400.0 / MAX_SAMPLES}},
    {"pulse": {"period": 1.0, "count": 2}},
    {"pulse": {"period": "hbar_over_B", "count": 10**400}},
    {"molecule": {"B_cm1": 1e-320}, "pulse": {"period": "hbar_over_B", "count": 2}},
])
def test_too_many_samples_are_rejected(doc):
    with pytest.raises(InvalidConfigError, match="MAX_SAMPLES"):
        build_config(doc)


@pytest.mark.parametrize("doc", [
    # B in joules underflows to 0, so hbar/B divides by zero
    {"molecule": {"B_cm1": 1e-320}, "output": {"total_time_ps": 10}},
    # hbar/B is finite, but R^3 B underflows in the dipole strength
    {"molecule": {"B_cm1": 1e-300}, "output": {"total_time_ps": 10}},
    {"geometry": {"R_m": 1e-110}},
    {"molecule": {"mu_debye": 1e160}},
])
def test_unit_scales_outside_the_float_range_are_rejected(doc):
    with pytest.raises(InvalidConfigError, match="outside the float range"):
        build_config(doc)


def test_an_uncoupled_pair_needs_only_a_finite_time_unit():
    assert build_config({"molecule": {"B_cm1": 1e-300}, "geometry": {"R_m": None},
                         "output": {"total_time_ps": 10}}).geometry.R_m is None
    with pytest.raises(InvalidConfigError, match="outside the float range"):
        build_config({"molecule": {"B_cm1": 1e-320}, "geometry": {"R_m": None},
                      "output": {"total_time_ps": 10}})


def test_the_sample_bound_is_inclusive():
    cfg = build_config({"output": {"total_time_ps": MAX_SAMPLES - 1.0, "sample_interval_ps": 1.0}})
    assert math.floor(cfg.output.total_time_ps / cfg.output.sample_interval_ps) + 1 == MAX_SAMPLES


# --- the pulse-core step ---------------------------------------------------------

@pytest.mark.parametrize("doc", [
    # 5e-324 fs is 0.0 in units of hbar/B, so every segment would be free and the run would skip the pulse
    {"integrator": {"dt_pulse_fs": 5e-324}},
    {"integrator": {"dt_pulse_fs": 1e-300}},
    {"integrator": {"dt_pulse_fs": 1e-6}},  # a 67 GB field table for the pulse core
    {"integrator": {"dt_pulse_fs": 279.0 / (MAX_STEPS_PER_SIGMA + 1)}},
    {"pulse": {"sigma_fs": 1e300}, "integrator": {"dt_pulse_fs": 1e-300}},  # sigma / dt overflows to inf
    # sigma / dt is 100, but at this hbar/B (5e239 s) 1e-80 fs is 0.0 in reduced units
    {"molecule": {"B_cm1": 1e-250}, "pulse": {"sigma_fs": 1e-78}, "integrator": {"dt_pulse_fs": 1e-80}},
])
def test_a_pulse_core_step_too_fine_to_run_is_rejected(doc):
    with pytest.raises(InvalidConfigError, match=r"^integrator\.dt_pulse_fs = \S+ is below pulse\.sigma_fs / "
                                                 r"MAX_STEPS_PER_SIGMA = \S+ fs, or 0 in units of hbar/B$"):
        build_config(doc)


def test_the_step_bound_admits_sigma_over_1600_and_is_inclusive():
    for steps in (1600, MAX_STEPS_PER_SIGMA):
        assert build_config({"integrator": {"dt_pulse_fs": 279.0 / steps}}).integrator.dt_pulse_fs == 279.0 / steps


@pytest.mark.parametrize("doc", [
    # at hbar/B = 5e239 s, 1e-78 fs is 0.0 in reduced units and 1e-54 fs subnormal: the default step,
    # sigma / 400 or more, would be 0.0 or nearly, every segment free and the pulse skipped
    {"molecule": {"B_cm1": 1e-250}, "pulse": {"sigma_fs": 1e-78}},
    {"molecule": {"B_cm1": 1e-250}, "pulse": {"sigma_fs": 1e-54}},
    {"molecule": {"B_cm1": 1e4}, "pulse": {"sigma_fs": 1e308}},  # inf in units of hbar/B
])
def test_a_sigma_that_under_or_overflows_in_units_of_hbar_over_b_is_rejected(doc):
    with pytest.raises(InvalidConfigError, match=r"^pulse\.sigma_fs = \S+ under- or overflows in units of hbar/B$"):
        build_config(doc)


def test_the_smallest_normal_sigma_keeps_a_positive_default_step():
    # sigma at the least the run's clock admits, 1e-7 of the run length, and just over the smallest normal float
    sigma_fs = 1.01 * sys.float_info.min * time_unit_seconds(1e-250) * 1e15
    run_ps = 0.999999 * sigma_fs * 1e-3 / 1e-7
    doc = {"molecule": {"B_cm1": 1e-250}, "pulse": {"sigma_fs": sigma_fs},
           "output": {"total_time_ps": run_ps, "sample_interval_ps": run_ps}}
    schedule, _, dt, _ = to_reduced(build_config(doc))
    assert sys.float_info.min <= schedule.sigma_red < 2.0 * sys.float_info.min
    assert dt >= schedule.sigma_red / 400.0 > 0.0
    longer = {**doc, "output": {"total_time_ps": 1.01 * run_ps, "sample_interval_ps": run_ps}}
    with pytest.raises(InvalidConfigError, match=r"^pulse\.sigma_fs = \S+ is below 1e-7 of the \S+ ps run"):
        build_config(longer)


# --- output directories ------------------------------------------------------------

@pytest.mark.parametrize("out_dir", ["a\u0000b", "\u0000", "\ud800", "runs/\udfff"])
def test_an_out_dir_the_os_cannot_take_is_rejected(out_dir):
    # a NUL, or a lone surrogate that os.fsencode cannot encode, would fail in Path.mkdir
    with pytest.raises(InvalidConfigError, match=r"^output\.out_dir must be a path without a NUL or a lone surrogate"):
        build_config({"output": {"out_dir": out_dir}})
    with pytest.raises(InvalidConfigError, match=r"^sweep\.out_dir must be a path without a NUL or a lone surrogate"):
        SweepSpec(base={}, axis1=SweepAxis("R_m", (1e-8,)), out_dir=out_dir)
    with pytest.raises(InvalidConfigError, match=r"^output\.out_dir"):  # the base's out_dir is a sweep's default
        SweepSpec(base={"output": {"out_dir": out_dir}}, axis1=SweepAxis("R_m", (1e-8,)))


def test_an_out_dir_with_surrogate_escaped_bytes_is_taken():
    # "\udc80" is how Python decodes the byte 0x80 of a non-UTF-8 file name
    assert build_config({"output": {"out_dir": "runs/\udc80"}}).output.out_dir == "runs/\udc80"


# --- one home per rule -------------------------------------------------------------

def _imports_and_names(module: str) -> tuple[set, set]:
    """The parts of every module name that src/rotorpair/<module>.py imports, and every name it binds or reads."""
    tree = ast.parse((Path(rotorpair.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
    imported, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]:
                imported.update(name.split("."))
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return imported, names


@pytest.mark.parametrize("module", ["angular", "operators", "entanglement", "units"])
def test_config_rules_are_checked_only_at_the_config_boundary(module):
    # these modules take values a RunConfig has checked; a second copy of a rule belongs in validate_config
    imported, names = _imports_and_names(module)
    assert "InvalidConfigError" not in imported | names
    if module == "entanglement":
        assert "config" not in imported


# --- basis and pulse-train bounds -------------------------------------------------

def test_the_basis_and_pulse_bounds_are_inclusive():
    assert build_config({"basis": {"l_max": MAX_L_MAX}}).basis.l_max == MAX_L_MAX
    train = {"period": "hbar_over_B", "count": MAX_PULSES}
    assert build_config({"pulse": train, "output": {"total_time_ps": 10}}).pulse.count == MAX_PULSES
    with pytest.raises(InvalidConfigError, match="MAX_L_MAX"):
        build_config({"basis": {"l_max": MAX_L_MAX + 1}})
    with pytest.raises(InvalidConfigError, match="MAX_PULSES"):
        build_config({"pulse": dict(train, count=MAX_PULSES + 1), "output": {"total_time_ps": 10}})


# --- presets -------------------------------------------------------------------

def test_preset_names():
    assert PRESET_NAMES == ("fig1a", "fig1b", "fig2a", "fig2b", "fig3a", "fig3b", "fig4")
    with pytest.raises(InvalidConfigError):
        preset("fig9")


def test_single_pulse_presets():
    (label, cfg), = preset("fig1a")
    assert label == "fig1a"
    assert cfg.geometry.R_m == 3e-8
    assert cfg.pulse.count == 1 and cfg.pulse.period is None
    (label, cfg), = preset("fig1b")
    assert cfg.geometry.R_m == 2e-8
    (label, cfg), = preset("fig3a")
    assert cfg.geometry.R_m == 5e-8
    (label, cfg), = preset("fig3b")
    assert label == "fig3b"
    assert cfg.geometry.R_m == 1.5e-8
    assert cfg.pulse.E0_Vpm == 3e7
    assert cfg.pulse.count == 1


def test_pulse_train_presets_pair_two_separations():
    runs = preset("fig2a")
    assert [label for label, _ in runs] == ["fig2a_R30", "fig2a_R20"]
    assert [cfg.geometry.R_m for _, cfg in runs] == [3e-8, 2e-8]
    for _, cfg in runs:
        assert cfg.pulse.period == "hbar_over_B"
        assert cfg.pulse.count == 20

    runs = preset("fig2b")
    assert [label for label, _ in runs] == ["fig2b_R30", "fig2b_R20"]
    for _, cfg in runs:
        assert cfg.pulse.period == "pi_hbar_over_B"
        assert cfg.pulse.count == 20


def test_field_strength_preset_pairs_two_amplitudes():
    runs = preset("fig4")
    assert [label for label, _ in runs] == ["fig4_E15", "fig4_E30"]
    assert [cfg.pulse.E0_Vpm for _, cfg in runs] == [1.5e7, 3e7]
    for _, cfg in runs:
        assert cfg.geometry.R_m == 1.5e-8


# every panel, pinned by the fields in which it differs from RunConfig()
PRESET_DIFFS = {
    "fig1a": {},
    "fig1b": {"geometry.R_m": 2e-8},
    "fig2a_R30": {"pulse.period": "hbar_over_B", "pulse.count": 20},
    "fig2a_R20": {"geometry.R_m": 2e-8, "pulse.period": "hbar_over_B", "pulse.count": 20},
    "fig2b_R30": {"pulse.period": "pi_hbar_over_B", "pulse.count": 20},
    "fig2b_R20": {"geometry.R_m": 2e-8, "pulse.period": "pi_hbar_over_B", "pulse.count": 20},
    "fig3a": {"geometry.R_m": 5e-8},
    "fig3b": {"geometry.R_m": 1.5e-8},
    "fig4_E15": {"geometry.R_m": 1.5e-8, "pulse.E0_Vpm": 1.5e7},
    "fig4_E30": {"geometry.R_m": 1.5e-8},
}


def test_every_preset_panel_is_pinned():
    default = RunConfig()
    seen = {}
    for name in PRESET_NAMES:
        for label, cfg in preset(name):
            seen[label] = {f"{section}.{key}": getattr(getattr(cfg, section), key)
                           for section, key in ALL_KEYS
                           if getattr(getattr(cfg, section), key) != getattr(getattr(default, section), key)}
    assert seen == PRESET_DIFFS


def test_all_presets_validate_at_the_default_truncation():
    for name in PRESET_NAMES:
        for _, cfg in preset(name):
            assert isinstance(cfg, RunConfig)
            assert cfg.basis.l_max == 8
            validate_config(cfg)


# --- sweep spec ------------------------------------------------------------------

def test_parse_sweep_minimal():
    spec = parse_sweep('{"axis1": {"name": "R_m", "values": [3e-8, 2e-8]}}')
    assert spec.axis1.name == "R_m"
    assert spec.axis1.values == (3e-8, 2e-8)
    assert spec.axis2 is None
    assert spec.parallelism is None
    assert spec.base == {}


def test_parse_sweep_two_axes():
    spec = parse_sweep(json.dumps({
        "base": {"basis": {"l_max": 2}},
        "axis1": {"name": "R_m", "values": [3e-8]},
        "axis2": {"name": "E0_Vpm", "values": [1.5e7, 3e7]},
        "parallelism": 2,
        "out_dir": "somewhere",
    }))
    assert spec.base == {"basis": {"l_max": 2}}
    assert spec.axis2.name == "E0_Vpm"
    assert spec.parallelism == 2
    assert spec.out_dir == "somewhere"


@pytest.mark.parametrize("doc", [
    '{}',
    '{"axis1": {"name": "R_m", "values": []}}',
    '{"axis1": {"name": "mu_debye", "values": [9.2]}}',
    '{"axis1": {"name": ["l_max"], "values": [8]}}',
    '{"axis1": {"name": "R_m", "values": [1e-8]}, "axis2": {"name": "R_m", "values": [2e-8]}}',
    '{"axis1": {"name": "R_m", "values": [1e-8]}, "parallelism": 0}',
    '{"axis1": {"name": "R_m", "values": [1e-8]}, "threads": 2}',
    '{"axis1": {"name": "R_m"}}',
    '{"base": {"basis": {"l_max": 0}}, "axis1": {"name": "R_m", "values": [1e-8]}}',
    'not json',
])
def test_bad_sweep_specs_are_rejected(doc):
    with pytest.raises(InvalidConfigError):
        parse_sweep(doc)


def test_hand_built_sweep_specs_are_checked():
    axis = SweepAxis("R_m", [1e-8])
    assert SweepSpec(base={}, axis1=axis).axis1.values == (1e-8,)
    with pytest.raises(InvalidConfigError, match="axis1.name must be one of"):
        SweepSpec(base={}, axis1=SweepAxis("nope", (1,)))
    with pytest.raises(InvalidConfigError, match=r"axis2.name must be one of .*, got \['l_max'\]"):
        SweepSpec(base={}, axis1=axis, axis2=SweepAxis(["l_max"], (8,)))  # unhashable, so no dict lookup
    with pytest.raises(InvalidConfigError, match="axis2.values must be a non-empty list"):
        SweepSpec(base={}, axis1=axis, axis2=SweepAxis("l_max", ()))
    with pytest.raises(InvalidConfigError, match="axis1 and axis2 must differ"):
        SweepSpec(base={}, axis1=axis, axis2=axis)
    with pytest.raises(InvalidConfigError, match="parallelism must be at least 1, got 0"):
        SweepSpec(base={}, axis1=axis, parallelism=0)
    # a bad base fails up front, not once per point
    with pytest.raises(InvalidConfigError, match="unknown key 'geometri'"):
        SweepSpec(base={"geometri": {}}, axis1=axis)
