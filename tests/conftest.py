import numpy as np
import pytest


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """The shape of the argument of every np.linalg.eigvalsh call the test
    makes, in order; every Gram eigensolve of a norm goes through it."""
    calls = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls
