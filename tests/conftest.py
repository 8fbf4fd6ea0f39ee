from __future__ import annotations

import pytest

import criteria
from rotorpair import output


class _HalfWriter:
    """A text file whose write stores half the text and then fails, as a
    writer killed mid-write would leave it."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError("write interrupted")


@pytest.fixture
def torn_writes(monkeypatch):
    """Every artifact write in rotorpair.output stops halfway with an OSError."""
    monkeypatch.setattr(output, "open", lambda *a, **kw: _HalfWriter(open(*a, **kw)), raising=False)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not criteria.RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in criteria.summary_lines():
        terminalreporter.write_line(line)
