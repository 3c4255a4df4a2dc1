"""A time limit on every test, so a test that never ends fails instead of
stalling the run.  It needs no plugin: an interval timer on the main thread
raises in the test once the limit has passed."""

import signal
import threading

import pytest

# the slowest test took about 40 s on a 2-CPU host
TEST_TIME_LIMIT_S = 600


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(_signum, _frame):
        raise TimeoutError(f"{item.nodeid} ran longer than {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
