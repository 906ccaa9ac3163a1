"""The helper-thread primitive every package thread is started through."""

import threading
import time

import pytest

from fiberdbp import cpus
from conftest import PACKAGE_THREADS, package_threads


class Failure(Exception):
    pass


def test_helper_error_is_raised_after_the_join():
    steps = []

    def target():
        time.sleep(0.05)  # still running when the block ends
        steps.append("target")
        raise Failure

    with pytest.raises(Failure):
        with cpus.helper(target, "fiberdbp-helper"):
            steps.append("block")
    # the block ran to its end, and the helper had returned before its
    # error reached the caller
    assert steps == ["block", "target"]
    assert not package_threads()


def test_block_error_wins_and_the_helper_is_still_joined():
    finished = threading.Event()

    def target():
        time.sleep(0.05)  # still running when the block raises
        finished.set()
        raise Failure  # dropped: the block's error is the one raised

    with pytest.raises(KeyboardInterrupt):
        with cpus.helper(target, "fiberdbp-helper"):
            raise KeyboardInterrupt
    assert finished.is_set() and not package_threads()


@pytest.mark.parametrize("name", PACKAGE_THREADS)
def test_helper_thread_carries_its_name(name):
    # so that the conftest guard finds a helper that is left running
    release, names = threading.Event(), []

    def target():
        names.append(threading.current_thread().name)
        release.wait(timeout=30)

    with cpus.helper(target, name):
        running = package_threads()
        release.set()
    assert [t.name for t in running] == [name] and names == [name]
    assert not package_threads()
