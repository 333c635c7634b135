"""The benchmark's own tests: its checks pass real outputs and reject corrupted ones.

Run from the repository root:  python3 -m pytest perfbench/test_checks.py
"""

import math
import os
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from scipy import integrate  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from acawgn import DiscreteInput, certificate_report, kkt_residual, solve_capacity  # noqa: E402
from acawgn.cli import main as cli_main  # noqa: E402
from acawgn.numerics import uniform_output_density  # noqa: E402


@pytest.fixture(scope="module")
def solved_a2():
    report = solve_capacity(2.0)
    return report, kkt_residual(report.input)


def test_solve_check_passes_real_report(solved_a2):
    report, kkt = solved_a2
    assert checks.check_solve(2.0, report, kkt) == []


def test_solve_check_rejects_k_plus_one(solved_a2):
    report, kkt = solved_a2
    assert checks.check_solve(2.0, replace(report, k=report.k + 1), kkt)


def test_solve_check_rejects_shifted_capacity(solved_a2):
    report, kkt = solved_a2
    shifted = replace(report, capacity_nats=report.capacity_nats + 1e-8)
    assert checks.check_solve(2.0, shifted, kkt)


@pytest.fixture(scope="module")
def scanned(tmp_path_factory):
    grid = [0.5, 1.0, 2.0]
    out = tmp_path_factory.mktemp("scan") / "scan.csv"
    assert cli_main(["scan", "--grid", "0.5,1,2", "--out", str(out)]) == 0
    reference = {}
    for A in grid:
        report = solve_capacity(A)
        reference[A] = (report.k, report.capacity_nats,
                        checks.quadpack_information(A, *report.input.as_arrays()))
    return grid, out.read_text(), reference


def _corrupt_cell(text, row, column, change):
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    j = header.index(column)
    cells[j] = change(cells[j])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_scan_check_passes_real_csv(scanned):
    grid, text, reference = scanned
    assert checks.check_scan_rows(grid, text, reference) == [[], [], []]


def test_scan_check_rejects_k_plus_one(scanned):
    grid, text, reference = scanned
    bad = _corrupt_cell(text, 1, "K", lambda k: str(int(k) + 1))
    assert [bool(p) for p in checks.check_scan_rows(grid, bad, reference)] == [False, True, False]


def test_scan_check_rejects_shifted_capacity(scanned):
    grid, text, reference = scanned
    bad = _corrupt_cell(text, 2, "capacity_nats", lambda c: repr(float(c) + 1e-8))
    assert [bool(p) for p in checks.check_scan_rows(grid, bad, reference)] == [False, False, True]


@pytest.fixture(scope="module")
def certified():
    rng = np.random.default_rng(7)
    A, K = 6.0, 7
    pi = DiscreteInput.normalized(A, np.linspace(-A, A, K) + rng.uniform(-0.3, 0.3, K),
                                  rng.dirichlet(np.ones(K)))
    report = certificate_report(pi, measure_tv=True)
    return pi, report, kkt_residual(pi), checks.exact_tv(pi.A, *pi.as_arrays())


def test_exact_tv_matches_quadpack(certified):
    pi, _, _, tv = certified
    locs, ws = pi.as_arrays()

    def gap(y):
        p = (ws * np.exp(-0.5 * (y - locs) ** 2)).sum() / math.sqrt(2.0 * math.pi)
        return abs(p - uniform_output_density(pi.A, y))

    ref, _ = integrate.quad(gap, -pi.A - 12.0, pi.A + 12.0, points=list(locs),
                            limit=2000, epsabs=1e-13, epsrel=1e-12)
    assert tv == pytest.approx(0.5 * ref, rel=1e-9)


def test_certify_check_passes_real_report(certified):
    pi, report, kkt, tv = certified
    assert checks.check_certify(pi, report, kkt, tv) == []


def test_certify_check_rejects_inflated_tv(certified):
    pi, report, kkt, tv = certified
    assert checks.check_certify(pi, replace(report, measured_tv=1.01 * report.measured_tv), kkt, tv)


def test_inputs_repeat_for_a_seed():
    batch = workloads.CertifyBatch()
    assert batch.batch(3, 0) == batch.batch(3, 0)
    assert batch.batch(3, 0) != batch.batch(4, 0)
    grid, order = workloads.ScanSweep(HERE).inputs(5)
    values = [float(a) for a in grid]
    assert 0.0 < values[0] and values[-1] <= 5.0
    assert all(b > a for a, b in zip(values, values[1:]))
    assert sorted(order) == [5] * 6 + [10] * 3 + [20]
    assert workloads.ScanSweep(HERE).inputs(5) == (grid, order)


def test_tail_leaves_ten_samples_beyond():
    value, pct, n = workloads.tail(range(100))
    assert (value, pct, n) == (89, 90.0, 100)
    assert workloads.tail([3, 1, 2])[:2] == (3, 100.0)


def test_tracer_restores_originals_and_reports_missing_targets(monkeypatch):
    import acawgn.solver as solver
    original = solver.solve_capacity
    monkeypatch.setattr(tracing, "SPAN_TARGETS", tracing.SPAN_TARGETS + (
        ("acawgn.solver", "_no_such_function", "gone", "solver", None),))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert solver.solve_capacity is not original
        tracer.call("A2", lambda: solver.solve_capacity(2.0))
    finally:
        tracer.restore()
    assert solver.solve_capacity is original
    assert tracer.absent == {"acawgn.solver._no_such_function"}
    metrics, kinds = tracing.layer_metrics(tracer.spans)
    assert metrics["solver.levels"] == 1 and metrics["solver.attempts"] >= 1
    assert metrics["inputs.kkt_calls"] == metrics["solver.attempts"]
    kept = tracing.drop_absent(metrics, {"acawgn.solver._pg_maximize"})
    assert "solver.opt_iters" not in kept and "solver.levels" in kept


def test_timer_counts_failed_checks_and_raised_calls():
    timer = workloads.Timer()
    ok = timer.timed("k", 1, lambda: 3, lambda out: [[], []], ops=2)
    bad = timer.timed("k", 2, lambda: 3, lambda out: [["wrong"], []], ops=2)
    raised = timer.timed("k", 3, lambda: 1 / 0, lambda out: [[]], ops=2)
    check_raised = timer.timed("k", 4, lambda: None, lambda out: [[out.k]])
    verdict = workloads.Verdict.of([ok, bad, raised, check_raised])
    assert (verdict.attempted, verdict.failed) == (7, 4)
    assert "wrong" in verdict.messages and "ZeroDivisionError" in verdict.messages[1]
    assert "check raised" in verdict.messages[2]
