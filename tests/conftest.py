"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture
def eigh_calls(monkeypatch):
    """Shapes of the matrices passed to np.linalg.eigh while the test runs."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls
