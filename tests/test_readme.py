"""The README's Python API example runs as written, and the program names it cites exist."""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import rotorpair
from rotorpair.config import RunConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_api_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    assert len(blocks) == 1, f"expected one python block under '## Python API', found {len(blocks)}"
    return blocks[0]


def test_the_python_api_example_runs(capsys):
    namespace = {}
    exec(compile(_python_api_block(), f"{README}:Python API", "exec"), namespace)
    result = namespace["result"]
    assert result.recorder.column("t_ps")[-1] == 150.0
    drift = abs(result.recorder.column("norm") - 1.0).max()
    assert 0.0 < drift < 1e-8 and namespace["c"] is result.psi_final
    assert capsys.readouterr().out.strip() == str(drift)


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
