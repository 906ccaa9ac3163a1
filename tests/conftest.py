import numpy as np
import pytest

import fiberdbp.optimize
from fiberdbp import LinkConfig, StepGeometry, WdmConfig


@pytest.fixture(scope="session")
def geom240():
    """Three-span step geometry used throughout the kernel tests."""
    return StepGeometry(length_km=240.0, span_km=80.0)


@pytest.fixture(scope="session")
def desk_link():
    return LinkConfig(num_spans=5, span_length_km=80.0)


@pytest.fixture(scope="session")
def desk_wdm():
    return WdmConfig(baud_rate=32e9, num_channels=3, spacing=37.5e9,
                     rolloff=0.1, format="64-qam",
                     launch_power_dbm_per_channel=2.0)


@pytest.fixture
def pool_widths(monkeypatch):
    """Widths of the thread pools optimize starts while the test runs."""
    widths = []
    pool = fiberdbp.optimize.ThreadPoolExecutor

    def spy(workers):
        widths.append(workers)
        return pool(workers)

    monkeypatch.setattr(fiberdbp.optimize, "ThreadPoolExecutor", spy)
    return widths


def rel_rms(a: np.ndarray, b: np.ndarray) -> float:
    """Relative RMS deviation between two complex arrays."""
    return float(np.sqrt(np.mean(np.abs(a - b) ** 2)
                         / np.mean(np.abs(b) ** 2)))
