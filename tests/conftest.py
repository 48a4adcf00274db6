import os
import random

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=60,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return random.Random(20260823)


@pytest.fixture(autouse=True)
def no_child_left():
    """After each test, assert that no child process is left, running or unreaped:
    a test that runs two processes (butterfly, verify, Bloch eta) reaps its helper."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def schedule(monkeypatch):
    """schedule(cpus): make representations._in_order run its tasks in one process
    (cpus 1) or in two (cpus 2)."""
    def set_cpus(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

    return set_cpus
