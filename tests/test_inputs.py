"""DiscreteInput, mixture outputs, mutual information, and KKT residuals."""

import json
import math

import numpy as np
import pytest
from scipy.stats import norm

import acawgn.inputs as inputs
from acawgn import (
    DiscreteInput,
    QuadratureNonConvergence,
    kkt_residual,
    mutual_information,
    solve_capacity,
)

from oracles import (
    every_window_kkt_scan,
    log_mixture_pdf,
    mc_mutual_information,
    quad_oracle,
    quad_vec_kkt_residual,
)

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


def _log_f(pi, y):
    """log f of ``pi`` at the points ``y``, by the library's log-mixture kernel."""
    locs, ws = pi.as_arrays()
    return inputs._log_mixture(locs, np.log(ws), np.asarray(y, dtype=float))


class TestMixtureDensity:
    def test_point_mass_is_standard_normal(self):
        ys = np.linspace(-8, 8, 101)
        pi = DiscreteInput(A=1.0, locations=(0.0,), weights=(1.0,))
        assert np.allclose(_log_f(pi, ys), norm.logpdf(ys), rtol=1e-15, atol=1e-15)

    def test_symmetric_pair_at_origin(self):
        pi = DiscreteInput(A=1.0, locations=(-1.0, 1.0), weights=(0.5, 0.5))
        assert _log_f(pi, [0.0])[0] == pytest.approx(norm.logpdf(1.0), rel=1e-15)

    def test_random_mixture_normalized(self):
        # the oracle's density, which _quadpack_i and the QUADPACK routes use,
        # integrates to one and agrees with the library's kernel
        for _ in range(5):
            pi = random_input(RNG)
            total = quad_oracle(lambda y: math.exp(log_mixture_pdf(pi.locations, pi.weights, y)),
                                -pi.A - 10.0, pi.A + 10.0)
            assert total == pytest.approx(1.0, abs=1e-9)
            ys = RNG.uniform(-pi.A - 10.0, pi.A + 10.0, 40)
            assert np.allclose(_log_f(pi, ys), log_mixture_pdf(pi.locations, pi.weights, ys),
                               rtol=1e-13, atol=1e-13)

    def test_even_input_even_density(self):
        # an even input has an even output density, and so an even i(x):
        # mirrored atoms carry equal information densities
        pi = DiscreteInput(A=2.0, locations=(-1.7, 0.0, 1.7), weights=(0.3, 0.4, 0.3))
        ys = RNG.uniform(0, 6, 40)
        assert np.allclose(_log_f(pi, ys), _log_f(pi, -ys), rtol=1e-13, atol=0)
        i_vec = _info_at_atoms(pi)
        assert i_vec[0] == pytest.approx(i_vec[-1], rel=1e-13, abs=1e-15)


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


def _info_at_atoms(pi):
    """Every i(x_j) of ``pi``, by the library's trapezoid sums."""
    return inputs._info_stats(pi.A, *pi.as_arrays())[1]


def _quadpack_i(pi, x):
    """i(x) = KL(phi(. - x) || f) of ``pi`` by QUADPACK."""
    def integrand(y):
        py = norm.pdf(y - x)
        if py <= 0.0:
            return 0.0
        return py * (math.log(py) - log_mixture_pdf(pi.locations, pi.weights, y))

    return quad_oracle(integrand, x - 12, x + 12)


class TestMarginalInformationDensity:
    def test_point_mass_at_own_atom(self):
        pi = DiscreteInput(A=1.0, locations=(0.0,), weights=(1.0,))
        assert abs(_info_at_atoms(pi)[0]) <= 1e-8

    def test_symmetry(self):
        pi = DiscreteInput(A=1.0, locations=(-1.0, 1.0), weights=(0.5, 0.5))
        i_neg, i_pos = _info_at_atoms(pi)
        assert i_pos == pytest.approx(i_neg, abs=1e-9)

    def test_mixture_identity(self):
        # I = sum_j w_j i(x_j), with i evaluated by an independent integrator
        for pi in (
            DiscreteInput(A=1.0, locations=(-1.0, 1.0), weights=(0.5, 0.5)),
            random_input(np.random.default_rng(3), margin=0.05),
        ):
            info = mutual_information(pi)
            total = sum(wj * _quadpack_i(pi, xj) for xj, wj in zip(pi.locations, pi.weights))
            assert total == pytest.approx(info, abs=1e-7)

    def test_independent_quadrature_route(self):
        pi = DiscreteInput(A=1.5, locations=(-1.5, 0.5), weights=(0.55, 0.45))
        assert _info_at_atoms(pi)[1] == pytest.approx(_quadpack_i(pi, 0.5), abs=1e-9)


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


def _route_input(A, K, seed):
    rng = np.random.default_rng(seed)
    return DiscreteInput.normalized(A, np.sort(rng.uniform(-A, A, K)), rng.dirichlet(np.ones(K)))


# Random inputs whose trapezoid pitch spans 200, 6.8 and 1.2 steps of the
# 2001-point x-grid: interpolation factors m = 200, 6 and 1.
ROUTE_INPUTS = [_route_input(1.25, 2, 3), _route_input(12.0, 9, 16), _route_input(40.0, 30, 40)]


def _quadpack_info_stats(pi):
    """I, every i(x_j) and every dI/dx_j of ``pi`` by scipy's QUADPACK."""
    locs, ws = pi.as_arrays()
    half_log_2pi_e = 0.5 * (math.log(2.0 * math.pi) + 1.0)
    breaks = sorted(set(locs) | set(0.5 * (locs[1:] + locs[:-1])))

    def log_f(y):
        return float(log_mixture_pdf(locs, ws, y))

    def integral(f, lo, hi):
        return quad_oracle(f, lo, hi, points=[b for b in breaks if lo < b < hi])

    i_vec, d_loc = [], []
    for x, w in zip(locs, ws):
        i_vec.append(-half_log_2pi_e - integral(
            lambda y: norm.pdf(y - x) * log_f(y), x - 12.0, x + 12.0))
        d_loc.append(-w * integral(
            lambda y: (y - x) * norm.pdf(y - x) * log_f(y), x - 12.0, x + 12.0))
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
            want = quad_vec_kkt_residual(report.input)
            assert got == pytest.approx(want, abs=1e-10), report.A

    def test_fft_and_direct_routes_agree(self, monkeypatch):
        for pi in WIDE_GAP_INPUTS + ROUTE_INPUTS:
            scans = []
            for ratio in (1e9, 0):   # FFT at any pitch ratio, then direct sums only
                monkeypatch.setattr(inputs, "_FFT_MAX_RATIO", ratio)
                scans.append(inputs._kkt_scan(pi))
            fft, direct = scans
            assert fft[1] > 1e-3
            assert fft[:2] == pytest.approx(direct[:2], rel=1e-15, abs=1e-12), (pi.A, pi.k)
            assert fft[2] == direct[2]
            # The residuals depend on the interpolated i(x) only through its
            # ordering, so compare the values too: to 1e-12, or to 1e-14 of the
            # largest value where |i| reaches 1e3 (wide gaps at A = 60).
            i_fft, y, lf, pitch = _interpolated_i(pi, 2001)
            i_direct, _ = inputs._marginal_info_batch(y, lf, pitch, np.linspace(-pi.A, pi.A, 2001))
            scale = max(100.0, np.abs(i_direct).max())
            assert np.max(np.abs(i_fft - i_direct)) <= 1e-14 * scale, (pi.A, pi.k)

    def test_row_by_row_sums_match_the_matrix_product(self, monkeypatch):
        pi = WIDE_GAP_INPUTS[3]
        locs, ws = pi.as_arrays()
        pitch = inputs._pitch(locs)
        y, lf = inputs._samples(pi.A, locs, ws, pitch)
        xs = np.linspace(-pi.A, pi.A, 37)
        assert inputs._CHUNK // y.size > 1
        rows = inputs._marginal_info_batch(y, lf, pitch, xs, moment=True)
        monkeypatch.setattr(inputs, "_CHUNK", 8)   # below one row: one row at a time
        one_by_one = inputs._marginal_info_batch(y, lf, pitch, xs, moment=True)
        for got, want in zip(one_by_one, rows):
            assert np.max(np.abs(got - want)) <= 1e-13

    def test_coarse_pitch_fails_the_pitch_check(self, monkeypatch):
        pi = DiscreteInput(A=8.0, locations=(-8.0, -3.0, 2.5, 8.0), weights=(0.3, 0.2, 0.2, 0.3))
        inputs._kkt_scan(pi)
        monkeypatch.setattr(inputs, "_pitch", lambda locs: 1.5)
        with pytest.raises(QuadratureNonConvergence):
            inputs._kkt_scan(pi)


def _interpolated_i(pi, n):
    """i(x) on n equispaced points of [-A, A] as the KKT scan interpolates it, with its samples."""
    locs, ws = pi.as_arrays()
    h = inputs._pitch(locs)
    step = 2.0 * pi.A / (n - 1)
    every = math.ceil(step / h)
    m = max(1, int(h * every / step))
    pitch = step / every * m
    y, lf = inputs._samples(pi.A, locs, ws, pitch)
    return inputs._convolved_info(lf, pitch, m, every, n), y, lf, pitch


class TestKktRefinement:
    """Only refinement windows that cannot hold the maximum are skipped."""

    def test_second_derivative_of_i_is_at_most_one(self):
        # (log f)'' = Var(X | Y) - 1 >= -1, so i'' <= 1: the premise of pruning.
        solved = [solve_capacity(A).input for A in (2.0, 8.0, 20.0)]
        rng = np.random.default_rng(19)
        randoms = [random_input(rng, k_max=8, a_lo=1.0, a_hi=30.0) for _ in range(12)]
        for pi in WIDE_GAP_INPUTS + solved + randoms:
            step = 2.0 * pi.A / 4000
            second = np.diff(_interpolated_i(pi, 4001)[0], 2) / (step * step)
            assert second.max() <= 1.0 + 1e-6, (pi.A, pi.k)

    @staticmethod
    def _near_tie():
        # Two interior peaks of i, 3e-7 apart: the grid sees the left one higher,
        # since the right one sits farther from its nearest grid point.
        w = 9.732864196044135e-08
        return DiscreteInput(A=6.0, locations=(-5.8985, -1.1985, 1.2015, 5.9015),
                             weights=(0.3 + w, 0.2, 0.2, 0.3 - w))

    def test_pruned_scan_matches_every_window(self):
        rng = np.random.default_rng(1919)
        pis = [random_input(rng, k_max=7, a_lo=3.0, a_hi=12.0) for _ in range(6)]
        for pi in pis + [self._near_tie()]:
            r_support, r_global, x_best, x_grid = every_window_kkt_scan(pi)
            got = inputs._kkt_scan(pi)
            assert got[:2] == pytest.approx((r_support, r_global), abs=1e-12), (pi.A, pi.k)
            assert got[2] == pytest.approx(x_best, abs=1e-12)
        # The near tie's best value lies outside the window of its grid maximum.
        assert x_best > 3.0 and x_grid < -3.0
