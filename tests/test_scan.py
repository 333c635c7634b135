"""Scan records, CSV/JSON rendering, scaling fits, and the TV split probe."""

import math

import numpy as np
import pytest

from acawgn import (
    CSV_COLUMNS,
    DiscreteInput,
    QuadratureNonConvergence,
    ScanRecord,
    SolveConfig,
    bulk_sup_deviation,
    certificate_report,
    dytso_lower_bound,
    fit_scaling,
    mixture_density,
    records_to_csv,
    records_to_json,
    scan,
    scan_detailed,
    std_normal_cdf,
    theorem2_probe,
    tv_distance,
)

from oracles import quad_oracle


def synthetic_record(a, k, status="ok"):
    return ScanRecord(
        A=a, K=k, capacity_nats=0.5, tv_uniform=0.1, bulk_dev=math.nan,
        dytso_lb=dytso_lower_bound(a), thm3_bound=0.01, maxnorm_bound=0.005,
        status=status,
    )


class TestScanValidation:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            scan([1.0, 1.0])
        with pytest.raises(ValueError):
            scan([2.0, 1.0])
        with pytest.raises(ValueError):
            scan([-1.0, 1.0])
        with pytest.raises(ValueError):
            scan([])

    def test_record_validation(self):
        with pytest.raises(ValueError):
            synthetic_record(1.0, 0)
        with pytest.raises(ValueError):
            ScanRecord(A=1, K=2, capacity_nats=0.1, tv_uniform=1.5, bulk_dev=0.1,
                       dytso_lb=1.0, thm3_bound=0.1, maxnorm_bound=0.1, status="ok")
        with pytest.raises(ValueError):
            synthetic_record(1.0, 2, status="bogus")


@pytest.fixture(scope="module")
def small():
    return scan_detailed([0.5, 0.8], SolveConfig(seed=3))


class TestSmallScan:
    def test_binary_region(self, small):
        records, reports = small
        assert [r.K for r in records] == [2, 2]
        assert all(r.status == "ok" for r in records)
        for rec in records:
            assert rec.K >= rec.dytso_lb
            assert 0.0 <= rec.tv_uniform <= 1.0
            assert math.isnan(rec.bulk_dev)  # B = A - sqrt(A) <= 0 here
            assert rec.maxnorm_bound <= rec.tv_uniform + 1e-8

    def test_csv_deterministic(self, small):
        records, _ = small
        again = scan([0.5, 0.8], SolveConfig(seed=3))
        assert records_to_csv(records) == records_to_csv(again)

    def test_csv_shape(self, small):
        records, _ = small
        text = records_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        assert all(len(line.split(",")) == len(CSV_COLUMNS) for line in lines[1:])

    def test_json_variant(self, small):
        records, _ = small
        payload = records_to_json(records)
        assert len(payload) == 2
        assert payload[0]["status"] == "ok"
        assert payload[0]["bulk_dev"] is None  # NaN maps to null


class TestFitScaling:
    def test_exact_power_law_four_thirds(self):
        recs = [synthetic_record(a, k) for a, k in
                ((1.0, 1), (8.0, 16), (27.0, 81), (64.0, 256))]
        fit = fit_scaling(recs, (1.0, 64.0))
        assert fit.slope == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert fit.residual_norm <= 1e-12

    def test_exact_linear_law(self):
        recs = [synthetic_record(a, 3 * int(a)) for a in (1.0, 2.0, 4.0, 8.0)]
        fit = fit_scaling(recs, (1.0, 8.0))
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)

    def test_insufficient_points(self):
        recs = [synthetic_record(a, 2) for a in (1.0, 2.0, 3.0)]
        with pytest.raises(ValueError):
            fit_scaling(recs, (1.0, 3.0))

    def test_unconverged_excluded(self):
        recs = [synthetic_record(a, 2) for a in (1.0, 2.0, 3.0)]
        recs.append(synthetic_record(4.0, 2, status="unconverged"))
        with pytest.raises(ValueError):
            fit_scaling(recs, (1.0, 4.0))


class TestScanGridProperties:
    def test_capacity_and_support_monotone(self, scan_results):
        records, _ = scan_results
        conv = [r for r in records if r.converged]
        caps = [r.capacity_nats for r in conv]
        assert all(b >= a - 1e-9 for a, b in zip(caps, caps[1:]))
        for r in conv:
            assert r.capacity_nats <= 0.5 * math.log(1 + r.A**2) + 1e-6
        ks = [r.K for r in conv]
        assert all(b >= a for a, b in zip(ks, ks[1:]))

    def test_maxnorm_bound_below_measured_tv(self, scan_results):
        records, _ = scan_results
        for r in records:
            if r.converged:
                assert r.tv_uniform >= r.maxnorm_bound - 1e-8

    def test_individual_failure_never_aborts(self, monkeypatch):
        import importlib

        scan_mod = importlib.import_module("acawgn.scan")
        real = scan_mod.solve_capacity

        def flaky(A, config=None):
            if A == 0.7:
                raise QuadratureNonConvergence(np.array([1.0]), np.array([1e-3]))
            return real(A, config)

        monkeypatch.setattr(scan_mod, "solve_capacity", flaky)
        records = scan([0.5, 0.7, 0.8], SolveConfig(seed=1))
        assert [r.status for r in records] == ["ok", "error", "ok"]
        assert math.isnan(records[1].capacity_nats)

    def test_unexpected_error_propagates(self, monkeypatch):
        import importlib

        scan_mod = importlib.import_module("acawgn.scan")

        def broken(A, config=None):
            raise TypeError("synthetic bug")

        monkeypatch.setattr(scan_mod, "solve_capacity", broken)
        with pytest.raises(TypeError, match="synthetic bug"):
            scan([0.5, 0.7], SolveConfig(seed=1))


class TestNoAdaptiveQuadrature:
    def test_tv_paths_run_no_adaptive_quadrature(self, monkeypatch):
        # measured TV, the scan's tv_uniform and the probe's parts all come
        # from closed-form CDFs
        import acawgn.numerics as numerics

        def refuse(*args, **kwargs):
            raise AssertionError("adaptive quadrature called on a TV path")

        monkeypatch.setattr(numerics, "_eval_panels", refuse)
        pi = DiscreteInput(A=3.0, locations=(-3.0, 0.0, 3.0), weights=(0.4, 0.2, 0.4))
        assert certificate_report(pi, measure_tv=True).measured_tv > 0.0
        assert all(r.converged and r.tv_uniform > 0.0 for r in scan([4.0, 5.0]))
        assert all(part > 0.0 for part in theorem2_probe(4.0))


class TestTheorem2Probe:
    def test_requires_large_amplitude(self):
        with pytest.raises(ValueError):
            theorem2_probe(3.0)

    def test_parts_structure(self, solved_a4):
        cfg, report = solved_a4
        left, middle, right = theorem2_probe(4.0, cfg, solution=report.input)
        assert left >= 0 and middle >= 0 and right >= 0
        total = tv_distance(report.input)
        assert left + middle + right == pytest.approx(total, abs=1e-13)
        # symmetric input: the two tails match
        assert left == pytest.approx(right, abs=1e-13)

    def test_middle_below_bulk_deviation(self, solved_a4):
        cfg, report = solved_a4
        A = 4.0
        B = A - math.sqrt(A)
        _, middle, _ = theorem2_probe(A, cfg, solution=report.input)
        dev = bulk_sup_deviation(mixture_density(report.input), A, B)
        assert middle <= dev

    def test_uniform_tail_mass_bound(self):
        # closed-form tail oracle: mass of f_unif beyond B is below
        # (A - B + 10)/(2A) plus a 10-sigma Gaussian tail
        A = 4.0
        B = A - 2.0
        tail = quad_oracle(lambda t: (std_normal_cdf(A - t) - std_normal_cdf(-A - t)) / (2 * A),
                           B, A + 12)
        assert tail <= (A - B + 10.0) / (2 * A) + (1 - std_normal_cdf(10.0))
