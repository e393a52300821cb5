"""Shared fixtures for the test suite."""

import pytest

import repro.sim.engine as engine
from repro.core.config import VeniceConfig
from repro.experiments.common import ExperimentPlatform
from repro.sim.engine import Simulator

#: Density-rule constants that force each timer backend on the Python
#: engine: "heap" can never gather enough pending timers to switch;
#: "calendar" switches at the first ``run()`` with any timer pending.
_BACKEND_PINS = {
    "heap": {"_AUTO_CALENDAR_MIN_PENDING": 1 << 62,
             "_AUTO_CALENDAR_MAX_GAP_BUCKETS": 0},
    "calendar": {"_AUTO_CALENDAR_MIN_PENDING": 1,
                 "_AUTO_CALENDAR_MAX_GAP_BUCKETS": 1 << 62},
}


@pytest.fixture
def pin_backend(monkeypatch):
    """Return ``pin(name)``: run later simulators on one timer backend.

    The engine picks its backend itself; parity tests pin it by patching
    the density rule's constants, and route ``core="auto"`` simulators
    to the Python engine (the compiled core has only a heap).  Calling
    ``pin`` again re-pins; monkeypatch undoes everything after the test.
    Fork workers inherit the pin.
    """
    def pin(backend: str) -> None:
        monkeypatch.setenv("SIM_CORE", "py")
        for name, value in _BACKEND_PINS[backend].items():
            monkeypatch.setattr(engine, name, value)
    return pin


@pytest.fixture
def timer_backend(request, pin_backend) -> str:
    """Pin the backend named by an indirect ``"heap"``/``"calendar"`` param."""
    pin_backend(request.param)
    return request.param


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator instance.

    ``SIM_CORE`` and ``SIM_SANITIZE`` are read by the Simulator itself.
    """
    return Simulator()


@pytest.fixture
def platform() -> ExperimentPlatform:
    """Default two-node experiment platform."""
    return ExperimentPlatform()


@pytest.fixture
def pair_config() -> VeniceConfig:
    """Two directly connected nodes."""
    return VeniceConfig.pair()


@pytest.fixture
def mesh_config() -> VeniceConfig:
    """The Table 1 eight-node 3D-mesh system."""
    return VeniceConfig()
