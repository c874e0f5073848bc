import os
import signal
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from squaretori.arith import sieve_multiplicative


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session")
def src_env():
    """Environment for a child interpreter, with this checkout's src on PYTHONPATH."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


@pytest.fixture(scope="session")
def sieve_100k():
    return sieve_multiplicative(100_000)


@pytest.fixture(scope="session")
def sieve_million():
    return sieve_multiplicative(1_000_000)


@contextmanager
def _within(seconds):
    """Fail the block if it runs past `seconds`; a SIGALRM cuts a hang short."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.perf_counter()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    # work inside one C call cannot be interrupted, so time it as well
    assert time.perf_counter() - start < seconds


@pytest.fixture
def within():
    """within(s) is a context manager that fails its block after s seconds."""
    return _within
