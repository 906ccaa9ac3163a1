import threading

import numpy as np
import pytest

import fiberdbp.optimize
from fiberdbp import LinkConfig, StepGeometry, WdmConfig
from fiberdbp.cpus import Budget


# names of the threads the package starts: a span's row-1 thread, the
# helper of a split (cpus.in_two) and propagate_link's checkpoint writer
PACKAGE_THREADS = ("span-row-1", "fiberdbp-helper", "fiberdbp-checkpoint")


def package_threads() -> list[threading.Thread]:
    """The package's threads that are still running."""
    return [t for t in threading.enumerate() if t.name in PACKAGE_THREADS]


@pytest.fixture(autouse=True)
def no_package_thread_outlives_the_test():
    """Fail any test that leaves one of the package's threads running."""
    yield
    left = package_threads()
    for thread in left:  # so that the tests after this one start clean
        thread.join(timeout=60)
    if left:
        pytest.fail(f"threads left running: {[t.name for t in left]}")


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


def spy_budget(monkeypatch, method):
    """Wrap a ``cpus.Budget`` method; returns the list of its results."""
    seen = []
    wrapped = getattr(Budget, method)

    def record(self):
        result = wrapped(self)
        seen.append(result)
        return result

    monkeypatch.setattr(Budget, method, record)
    return seen


def rel_rms(a: np.ndarray, b: np.ndarray) -> float:
    """Relative RMS deviation between two complex arrays."""
    return float(np.sqrt(np.mean(np.abs(a - b) ** 2)
                         / np.mean(np.abs(b) ** 2)))
