"""Shared fixtures: expensive solves and scans are computed once per session."""

import time

import numpy as np
import pytest

from acawgn import DiscreteInput, SolveConfig, scan_detailed, solve_capacity

DEFAULT_GRID = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)


@pytest.fixture(scope="session")
def scan_results():
    """Default-grid scan with records and full solve reports."""
    records, reports = scan_detailed(DEFAULT_GRID, SolveConfig(seed=0))
    return records, reports


@pytest.fixture(scope="session")
def solve_08_timed():
    """Capacity solve at A = 0.8 plus its wall-clock time."""
    t0 = time.perf_counter()
    report = solve_capacity(0.8, SolveConfig(seed=0))
    elapsed = time.perf_counter() - t0
    return report, elapsed


@pytest.fixture(scope="session")
def solved_a4():
    """Capacity solve at A = 4 for probe-style tests."""
    return solve_capacity(4.0, SolveConfig(seed=0))


@pytest.fixture(scope="session")
def tv_probe_instances():
    """50 seeded random inputs with K <= 2A for the certificate orderings."""
    rng = np.random.default_rng(20240808)
    out = []
    while len(out) < 50:
        A = float(rng.uniform(1.0, 10.0))
        k_cap = max(1, int(np.floor(2 * A)))
        K = int(rng.integers(1, min(k_cap, 20) + 1))
        locs = np.sort(rng.uniform(-A, A, K))
        if K > 1 and np.min(np.diff(locs)) < 1e-3:
            continue
        w = rng.dirichlet(np.ones(K))
        out.append(DiscreteInput.normalized(A, locs, w))
    return out
