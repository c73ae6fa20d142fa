"""Shared pytest plumbing.

Acceptance checks register their outcome here so the run ends with one
PASS/FAIL line per check, printed even when assertions abort a check early.
"""

from __future__ import annotations

import pytest

from segbasis import costs

_ACCEPTANCE: list[tuple[str, bool]] = []


def record_acceptance(label: str, passed: bool) -> None:
    _ACCEPTANCE.append((label, passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance checks")
    for label, passed in _ACCEPTANCE:
        terminalreporter.write_line(f"{label}: {'PASS' if passed else 'FAIL'}")


@pytest.fixture
def block_starts(monkeypatch):
    """The first row of each block the row builder (``costs._blocked_rows``)
    builds while the test runs, in order."""
    starts = []

    def counted(m, cells, pinned, fill, *leads):
        def block(s, *args):
            starts.append(s)
            return fill(s, *args)
        return builder(m, cells, pinned, block, *leads)

    builder = costs._blocked_rows
    monkeypatch.setattr(costs, "_blocked_rows", counted)
    return starts
