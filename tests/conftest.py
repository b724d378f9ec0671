"""Shared fixtures: offline enforcement, cache isolation, heavy session data."""

import os
import socket

import pytest
from hypothesis import HealthCheck, settings

from hilbert_signs.curves import get_curve
from hilbert_signs.eigen_io import cached_curve_series
from hilbert_signs.field_arith import make_field
from hilbert_signs.sato_tate import synth_eigen_series

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def no_network(monkeypatch):
    """Every test runs with TCP connects disabled; offline is enforced, not assumed."""

    def refuse(self, *args, **kwargs):
        raise RuntimeError("test attempted a network connection")

    monkeypatch.setattr(socket.socket, "connect", refuse)
    yield


@pytest.fixture(scope="session", autouse=True)
def session_cache_dir(tmp_path_factory):
    """Point the on-disk cache at a session-scoped temp dir."""
    d = tmp_path_factory.mktemp("cache")
    old = os.environ.get("HILBERT_SIGNS_CACHE")
    os.environ["HILBERT_SIGNS_CACHE"] = str(d)
    yield d
    if old is None:
        os.environ.pop("HILBERT_SIGNS_CACHE", None)
    else:
        os.environ["HILBERT_SIGNS_CACHE"] = old


@pytest.fixture(scope="session")
def field5():
    return make_field(5)


@pytest.fixture(scope="session")
def curve37_series_1e5(session_cache_dir):
    # the 37a series to 10^5, shared by the pipeline and acceptance tests
    return cached_curve_series(get_curve("37a"), 100_000)


@pytest.fixture(scope="session")
def synth5_series_1e5(field5):
    # the prefix to 10^5 of the synthetic series that simulate --seed 42 draws at 10^6
    return synth_eigen_series(field5, 100_000, 2, 42)
