"""Fixtures shared by every test module."""

from __future__ import annotations

import pytest

import stratopt.solver


@pytest.fixture(autouse=True)
def _nothing_kept():
    """Empty the solver's kept cost table, the package's one module-level
    slot, so that no test passes on a table an earlier test left kept."""
    stratopt.solver._kept.clear()
