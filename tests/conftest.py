import numpy as np
import pytest

import projpair._helper as helper_process
import projpair.verify as verify


@pytest.fixture(autouse=True)
def fresh_helper():
    """Each test forks its own campaign helper, if it uses one: a helper
    runs the package as it was when it was forked, so one forked under an
    earlier test's patches would run them in later tests."""
    helper_process._close_helper()
    yield
    helper_process._close_helper()


@pytest.fixture
def in_caller(monkeypatch):
    """Keep every campaign unit in the test's process, where its spies and
    counters see them, never on a helper."""
    monkeypatch.setattr(verify, "_use_helper", False)


@pytest.fixture
def eigvalsh_calls(monkeypatch, in_caller):
    """The shape of the argument of every np.linalg.eigvalsh call the test
    makes, in order; every Gram eigensolve of a norm goes through it. Its
    campaigns run in the test's process, where the counter is."""
    calls = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls
