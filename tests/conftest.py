"""Fixtures shared by every test module."""

from __future__ import annotations

import pytest

import stratopt.solver


@pytest.fixture(autouse=True)
def _nothing_kept():
    """Empty the solver's kept outcome, the package's one module-level
    slot, so that no test passes on a table, prefix moments or report an
    earlier test's solve left kept."""
    stratopt.solver._kept.clear()
