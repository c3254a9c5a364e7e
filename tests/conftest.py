"""Shared fixtures: cached oracle covariances and common parameter grids."""

from __future__ import annotations

import contextlib
import signal

import pytest

from steerkit import dynamics, reduced_from_ratios

# grid used for oracle-vs-closed-form equivalence and its dependents
ORACLE_GRID = [
    (r, x, n0, n, ratio)
    for r in (0.25, 0.5, 1.0, 2.0)
    for x in (0.0, 0.05, 0.1)
    for n0 in (0.0, 0.5, 5.0)
    for n in (0.0, 5.0, 100.0)
    for ratio in (1.0, 2.0)
]


class OracleCache:
    """Session-wide memo of propagated covariances keyed by parameters."""

    def __init__(self) -> None:
        self._store: dict = {}

    def covariance(self, r, x, n0=0.0, n=0.0, ratio=1.0, engine="reduced",
                   ) -> dynamics.OutputCovariance:
        key = (r, x, n0, n, ratio, engine)
        if key not in self._store:
            rp = reduced_from_ratios(r, x, G1_over_G2=ratio, n0=n0, n=n)
            self._store[key] = dynamics.output_covariance(rp, engine=engine)
        return self._store[key]


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail the enclosed block with ``TimeoutError`` instead of letting it
    hang when it runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def oracle_cache() -> OracleCache:
    return OracleCache()
