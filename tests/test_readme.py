"""The README's Python API example runs as written."""

import re
from pathlib import Path

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
