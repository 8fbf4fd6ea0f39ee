"""The README's Python API example runs as written, its JSON examples parse to what they say, and the program
names it cites exist."""

import dataclasses
import importlib
import json
import pkgutil
import re
from pathlib import Path

import rotorpair
from rotorpair.config import RunConfig, build_config, parse_sweep

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, language: str) -> str:
    """The one ```language block between the README line heading and the next heading."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1].split("\n#", 1)[0]
    blocks = re.findall(rf"^```{language}\n(.*?)^```$", section, flags=re.M | re.S)
    assert len(blocks) == 1, f"expected one {language} block under '{heading}', found {len(blocks)}"
    return blocks[0]


def test_the_python_api_example_runs(capsys):
    namespace = {}
    exec(compile(_block("## Python API", "python"), f"{README}:Python API", "exec"), namespace)
    result = namespace["result"]
    assert result.recorder.column("t_ps")[-1] == 150.0
    drift = abs(result.recorder.column("norm") - 1.0).max()
    assert 0.0 < drift < 1e-8 and namespace["c"] is result.psi_final
    assert capsys.readouterr().out.strip() == str(drift)


def test_the_run_configuration_example_is_the_default_config():
    # the block is JSON with // comments; none of its strings holds a //
    document = re.sub(r"\s*//[^\n]*", "", _block("### Run configuration", "jsonc"))
    assert build_config(json.loads(document)) == RunConfig()


def test_the_sweep_example_parses():
    spec = parse_sweep(_block("### Sweeps", "json"))
    assert (len(spec.axis1.values), len(spec.axis2.values), spec.parallelism) == (3, 2, 4)


def test_every_module_name_in_the_readme_resolves():
    # `module.name` or `rotorpair.module.name...` in backticks outside code blocks, where module is a rotorpair
    # module; a config path such as `output.sample_interval_ps` is a key, not a name
    modules = {module.name for module in pkgutil.iter_modules(rotorpair.__path__)}
    cfg = RunConfig()
    keys = {f"{section.name}.{key.name}" for section in dataclasses.fields(cfg)
            for key in dataclasses.fields(getattr(cfg, section.name))}
    prose = re.sub(r"^```.*?^```$", "", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    cited = set()
    for span in re.findall(r"`([^`]+)`", prose):
        name = re.match(r"(?:rotorpair\.)?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)", span)
        if name and name[1].split(".")[0] in modules and name[1] not in keys:
            cited.add(name[1])
    def resolves(name):
        owner, *attributes = name.split(".")
        owner = importlib.import_module(f"rotorpair.{owner}")
        for attribute in attributes:
            if not hasattr(owner, attribute):
                return False
            owner = getattr(owner, attribute)
        return True

    assert len(cited) > 20
    assert [name for name in sorted(cited) if not resolves(name)] == []
