"""Rules that hold for every test of the suite."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_outlives_its_test():
    """Fails a test that leaves a ``multiprocessing`` child running: every
    pool the package starts is shut down, and its processes joined, before
    the call that started it returns.  A child left over is ended, so that
    it fails no later test."""
    yield
    left = multiprocessing.active_children()
    for process in left:
        process.terminate()
        process.join(timeout=10)
    assert left == [], f"the test left processes running: {left}"
