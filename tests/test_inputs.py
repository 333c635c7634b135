"""DiscreteInput, mixture outputs, mutual information, and KKT residuals."""

import json
import math

import numpy as np
import pytest

import acawgn.inputs as inputs
from acawgn import (
    DiscreteInput,
    QuadratureNonConvergence,
    QuadratureSpec,
    adaptive_quad,
    kkt_residual,
    marginal_information_density,
    mixture_density,
    mutual_information,
    std_normal_pdf,
)

from oracles import adaptive_kkt_residual, mc_mutual_information, quad_oracle

RNG = np.random.default_rng(99)


def random_input(rng, k_max=6, a_lo=0.5, a_hi=5.0, margin=0.0):
    K = int(rng.integers(1, k_max + 1))
    A = float(rng.uniform(a_lo, a_hi))
    locs = np.sort(rng.uniform(-A + margin, A - margin, K))
    while K > 1 and np.min(np.diff(locs)) < 1e-3:
        locs = np.sort(rng.uniform(-A + margin, A - margin, K))
    w = rng.dirichlet(np.ones(K))
    return DiscreteInput.normalized(A, locs, w)


class TestDiscreteInput:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteInput(A=-1.0, locations=(0.0,), weights=(1.0,))
        with pytest.raises(ValueError):
            DiscreteInput(A=1.0, locations=(), weights=())
        with pytest.raises(ValueError):
            DiscreteInput(A=1.0, locations=(0.5, 0.2), weights=(0.5, 0.5))
        with pytest.raises(ValueError):
            DiscreteInput(A=1.0, locations=(0.0, 1.5), weights=(0.5, 0.5))
        with pytest.raises(ValueError):
            DiscreteInput(A=1.0, locations=(0.0, 0.5), weights=(0.7, 0.7))
        with pytest.raises(ValueError):
            DiscreteInput(A=1.0, locations=(0.0, 0.5), weights=(-0.1, 1.1))

    def test_normalized_merges_and_prunes(self):
        pi = DiscreteInput.normalized(
            2.0,
            [0.5, 0.5 + 5e-8, -1.0, 1.9],
            [0.3, 0.3, 0.4, 1e-12],
        )
        assert pi.k == 2
        assert pi.locations[0] == pytest.approx(-1.0)
        assert pi.locations[1] == pytest.approx(0.5, abs=1e-7)
        assert sum(pi.weights) == pytest.approx(1.0, abs=1e-15)

    def test_json_round_trip(self):
        pi = DiscreteInput(A=1.5, locations=(-1.5, 0.25, 1.5), weights=(0.4, 0.2, 0.4))
        blob = pi.to_json()
        again = DiscreteInput.from_json(blob)
        assert again == pi
        payload = json.loads(blob)
        assert set(payload) == {"A", "points", "weights"}


class TestMixtureDensity:
    def test_point_mass_is_standard_normal(self):
        f = mixture_density(DiscreteInput(A=1.0, locations=(0.0,), weights=(1.0,)))
        ys = np.linspace(-8, 8, 101)
        assert np.allclose(f(ys), std_normal_pdf(ys), rtol=0, atol=1e-16)

    def test_symmetric_pair_at_origin(self):
        f = mixture_density(DiscreteInput(A=1.0, locations=(-1.0, 1.0), weights=(0.5, 0.5)))
        assert f(0.0) == pytest.approx(std_normal_pdf(1.0), abs=1e-17)

    def test_random_mixture_normalized(self):
        for _ in range(5):
            pi = random_input(RNG)
            f = mixture_density(pi)
            total = adaptive_quad(f, -pi.A - 10.0, pi.A + 10.0)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_even_input_even_density(self):
        pi = DiscreteInput(A=2.0, locations=(-1.7, 0.0, 1.7), weights=(0.3, 0.4, 0.3))
        f = mixture_density(pi)
        ys = RNG.uniform(0, 6, 40)
        assert np.allclose(f(ys), f(-ys), rtol=1e-13, atol=1e-300)

    def test_log_pdf_matches_log_of_pdf(self):
        pi = DiscreteInput(A=2.0, locations=(-2.0, 0.3), weights=(0.6, 0.4))
        f = mixture_density(pi)
        ys = np.linspace(-5, 5, 31)
        assert np.allclose(f.log_pdf(ys), np.log(f(ys)), atol=1e-12)


class TestMutualInformation:
    def test_point_mass_zero(self):
        pi = DiscreteInput(A=1.0, locations=(0.3,), weights=(1.0,))
        assert abs(mutual_information(pi)) <= 1e-8

    def test_vanishing_amplitude(self):
        pi = DiscreteInput(A=0.01, locations=(-0.01, 0.01), weights=(0.5, 0.5))
        assert mutual_information(pi) <= 1e-3

    def test_against_monte_carlo(self):
        pi = DiscreteInput(A=1.0, locations=(-1.0, 1.0), weights=(0.5, 0.5))
        exact = mutual_information(pi)
        est, se = mc_mutual_information(pi.locations, pi.weights, 10_000_000, seed=42)
        assert abs(exact - est) <= 3 * se

    def test_upper_bounds(self):
        for _ in range(5):
            pi = random_input(RNG)
            info = mutual_information(pi)
            assert -1e-9 <= info <= math.log(pi.k) + 1e-6
            assert info <= 0.5 * math.log(1 + pi.A**2) + 1e-6


class TestMarginalInformationDensity:
    def test_point_mass_at_own_atom(self):
        pi = DiscreteInput(A=1.0, locations=(0.0,), weights=(1.0,))
        assert abs(marginal_information_density(pi, 0.0)) <= 1e-8

    def test_symmetry(self):
        pi = DiscreteInput(A=1.0, locations=(-1.0, 1.0), weights=(0.5, 0.5))
        i_pos = marginal_information_density(pi, 1.0)
        i_neg = marginal_information_density(pi, -1.0)
        assert i_pos == pytest.approx(i_neg, abs=1e-9)

    def test_out_of_range_rejected(self):
        pi = DiscreteInput(A=1.0, locations=(0.0,), weights=(1.0,))
        with pytest.raises(ValueError):
            marginal_information_density(pi, 1.5)

    def test_mixture_identity(self):
        # I = sum_j w_j i(x_j), with i evaluated by an independent integrator
        for pi in (
            DiscreteInput(A=1.0, locations=(-1.0, 1.0), weights=(0.5, 0.5)),
            random_input(np.random.default_rng(3), margin=0.05),
        ):
            info = mutual_information(pi)
            total = 0.0
            for xj, wj in zip(pi.locations, pi.weights):
                total += wj * marginal_information_density(pi, xj)
            assert total == pytest.approx(info, abs=1e-7)

    def test_independent_quadrature_route(self):
        pi = DiscreteInput(A=1.5, locations=(-1.5, 0.5), weights=(0.55, 0.45))
        f = mixture_density(pi)
        x = 0.5

        def integrand(y):
            py = std_normal_pdf(y - x)
            return py * (math.log(py) - math.log(f(y))) if py > 0 else 0.0

        ref = quad_oracle(integrand, x - 12, x + 12)
        assert marginal_information_density(pi, x) == pytest.approx(ref, abs=1e-9)


class TestKktResidual:
    def test_optimal_binary_small_amplitude(self):
        # binary +-A is capacity-achieving at A = 0.8
        pi = DiscreteInput(A=0.8, locations=(-0.8, 0.8), weights=(0.5, 0.5))
        r_support, r_global = kkt_residual(pi)
        assert r_support <= 1e-6
        assert r_global <= 1e-6

    def test_binary_far_from_optimal_at_large_amplitude(self):
        pi = DiscreteInput(A=6.0, locations=(-6.0, 6.0), weights=(0.5, 0.5))
        _, r_global = kkt_residual(pi)
        assert r_global > 0.01

    def test_point_mass_suboptimal(self):
        pi = DiscreteInput(A=1.0, locations=(0.0,), weights=(1.0,))
        _, r_global = kkt_residual(pi)
        assert r_global > 0.0


# Wide gaps between atoms (A up to 60, K down to 2) force the finest pitches.
WIDE_GAP_INPUTS = [
    DiscreteInput(A=60.0, locations=(-60.0, 60.0), weights=(0.3, 0.7)),
    DiscreteInput(A=60.0, locations=(-60.0, -10.0, 60.0), weights=(0.2, 0.5, 0.3)),
    DiscreteInput(A=33.7, locations=(-33.7, -20.0, 1.5, 12.0, 33.7),
                  weights=(0.1, 0.3, 0.2, 0.25, 0.15)),
    DiscreteInput(A=8.0, locations=(-8.0, 8.0), weights=(0.5, 0.5)),
]


def _quadpack_info_stats(pi):
    """I, every i(x_j) and every dI/dx_j of ``pi`` by scipy's QUADPACK."""
    locs, ws = pi.as_arrays()
    log_f = mixture_density(pi).log_pdf
    half_log_2pi_e = 0.5 * (math.log(2.0 * math.pi) + 1.0)
    breaks = sorted(set(locs) | set(0.5 * (locs[1:] + locs[:-1])))

    def integral(f, lo, hi):
        return quad_oracle(f, lo, hi, points=[b for b in breaks if lo < b < hi])

    i_vec, d_loc = [], []
    for x, w in zip(locs, ws):
        i_vec.append(-half_log_2pi_e - integral(
            lambda y: std_normal_pdf(y - x) * log_f(y), x - 12.0, x + 12.0))
        d_loc.append(-w * integral(
            lambda y: (y - x) * std_normal_pdf(y - x) * log_f(y), x - 12.0, x + 12.0))
    entropy = integral(lambda y: -math.exp(log_f(y)) * log_f(y), -pi.A - 12.0, pi.A + 12.0)
    return entropy - half_log_2pi_e, np.array(i_vec), np.array(d_loc)


class TestTrapezoidRule:
    @pytest.mark.parametrize("pi", WIDE_GAP_INPUTS, ids=lambda pi: f"A{pi.A:g}K{pi.k}")
    def test_info_stats_match_quadpack(self, pi):
        info, i_vec, d_loc = inputs._info_stats(pi.A, *pi.as_arrays(), want_locations=True)
        ref_info, ref_i, ref_d = _quadpack_info_stats(pi)
        assert info == pytest.approx(ref_info, abs=1e-11)
        assert mutual_information(pi) == pytest.approx(ref_info, abs=1e-11)
        assert np.max(np.abs(i_vec - ref_i)) <= 1e-11
        assert np.max(np.abs(d_loc - ref_d)) <= 1e-11

    def test_kkt_residual_matches_adaptive_reference(self, scan_results):
        _, reports = scan_results
        for report in reports:
            got = kkt_residual(report.input)
            want = adaptive_kkt_residual(report.input)
            assert got == pytest.approx(want, abs=1e-10), report.A

    def test_fft_and_direct_routes_agree(self, monkeypatch):
        rng = np.random.default_rng(16)
        A = 12.0
        pi = DiscreteInput.normalized(A, np.sort(rng.uniform(-A, A, 9)), rng.dirichlet(np.ones(9)))
        scans = []
        for ratio in (1e9, 0):   # FFT at any pitch ratio, then direct sums only
            monkeypatch.setattr(inputs, "_FFT_MAX_RATIO", ratio)
            scans.append(inputs._kkt_scan(pi, 2001))
        fft, direct = scans
        assert fft[1] > 1e-3
        assert fft[:2] == pytest.approx(direct[:2], abs=1e-12)

    def test_coarse_pitch_fails_the_pitch_check(self, monkeypatch):
        pi = DiscreteInput(A=8.0, locations=(-8.0, -3.0, 2.5, 8.0), weights=(0.3, 0.2, 0.2, 0.3))
        inputs._kkt_scan(pi, 2001)
        monkeypatch.setattr(inputs, "_pitch", lambda locs: 1.5)
        with pytest.raises(QuadratureNonConvergence):
            inputs._kkt_scan(pi, 2001)
