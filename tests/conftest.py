"""Shared fixtures for the SafeDM reproduction test suite (helpers
live in :mod:`sim_helpers`)."""

from __future__ import annotations

import pytest

from repro.soc.mpsoc import MPSoC


@pytest.fixture
def soc():
    """A fresh default MPSoC."""
    return MPSoC()
