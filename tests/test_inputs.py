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
        # Atoms beyond A more than merge_tol apart clip to the same end point,
        # so they merge.
        pi = DiscreteInput.normalized(1.0, [0.0, 1.0 + 1e-9, 1.0 + 2e-6], [0.2, 0.4, 0.4])
        assert pi.locations == (0.0, 1.0)
        assert pi.weights == pytest.approx((0.2, 0.8), abs=1e-15)

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
    locs, ws = pi.as_arrays()
    return inputs._info_stats(pi.A, locs, ws, locs)[0]


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


# Random inputs from A = 1.25 with K = 2 to A = 40 with K = 30.
ROUTE_INPUTS = [_route_input(1.25, 2, 3), _route_input(12.0, 9, 16), _route_input(40.0, 30, 40)]

# An input of the certify benchmark's batches (seed 501, batch 2, position
# 39) whose supremum of i lies inside a gap of 12 between atoms: a scan on a
# 2001-point grid with 21-point refinement windows reported r_global 3.3e-6
# below it.
GAP_PEAK_INPUT = DiscreteInput.from_json(
    '{"A": 33.2659809505832, "points": [-32.224469600824875, -26.371316386527425, '
    '-18.59694800069181, -18.070809601242264, -8.820796164100415, -3.6239039712982546, '
    '-2.135660377050243, -1.8254743726298415, 5.9162756730411346, 18.087150140151422, '
    '18.968599128777022, 21.087121933563772, 24.087878254543284, 26.297934753763663, '
    '31.457162844645012, 31.938089094839754], "weights": [0.010226114206414184, '
    '0.024043067411734714, 0.05849463748308909, 0.3237636557329698, 0.05381914457280418, '
    '0.010947114603264224, 0.08842563252967374, 0.04872675958929704, 0.14390986901519193, '
    '0.008655052288693142, 0.04101790501549601, 0.025842883203115206, 0.004381379438107715, '
    '0.024356831277170816, 0.08770379863526846, 0.045686154997709845]}')


# Two peaks of i, one in each gap of 20, 1e-5 apart in height.  The higher
# one lies 0.42 pitches from its nearest sample, and its i'' = -6.9 puts it
# 3.9e-4 above that sample: farther than h^2/8 = 7.8e-5, the margin that
# i'' <= 1 alone would give.
CURVED_PEAK_INPUT = DiscreteInput(A=20.0, locations=(-20.0, 0.02, 20.0),
                                  weights=(0.3, 0.49211667582467816, 0.2078833241753218))


@pytest.fixture(scope="module")
def solved_inputs():
    """Default solves at A = 2, 8, 20 and 40."""
    return [solve_capacity(A).input for A in (2.0, 8.0, 20.0, 40.0)]


def _quadpack_info_stats(pi):
    """I, every i(x_j) and every dI/dx_j = w_j i'(x_j) of ``pi`` by scipy's QUADPACK."""
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
        locs, ws = pi.as_arrays()
        i_vec, d1 = inputs._info_stats(pi.A, locs, ws, locs, 1)
        ref_info, ref_i, ref_d = _quadpack_info_stats(pi)
        assert mutual_information(pi) == pytest.approx(ref_info, abs=1e-11)
        assert np.max(np.abs(i_vec - ref_i)) <= 1e-11
        assert np.max(np.abs(ws * d1 - ref_d)) <= 1e-11

    def test_kkt_scan_gives_the_residuals_and_i(self, solved_inputs):
        # a solve reports each level's I from its KKT scan: it must be
        # mutual_information's bit for bit, and the residuals kkt_residual's
        for pi in WIDE_GAP_INPUTS + solved_inputs[1:3]:
            scan = inputs._kkt_scan(pi)
            assert scan[:2] == kkt_residual(pi), (pi.A, pi.k)
            assert scan[3] == mutual_information(pi), (pi.A, pi.k)

    def test_kkt_residual_matches_adaptive_reference(self, scan_results):
        _, reports = scan_results
        for report in reports:
            got = kkt_residual(report.input)
            want = quad_vec_kkt_residual(report.input)
            assert got == pytest.approx(want, abs=1e-10), report.A

    def test_fft_matches_direct_sums_at_the_samples(self):
        for pi in WIDE_GAP_INPUTS + ROUTE_INPUTS:
            locs, ws = pi.as_arrays()
            h = inputs._pitch(locs)
            y, lf = inputs._samples(pi.A, locs, ws, h)
            n = math.floor(2.0 * pi.A / h) + 1
            fft = inputs._convolved_info(lf, h, n)
            # Direct sums at up to 2001 of the samples, the ends included.
            g = np.unique(np.linspace(0, n - 1, 2001).astype(int))
            direct = inputs._marginal_info_batch(y, lf, h, -pi.A + h * g, 2)
            # i, i' and i'' to 1e-12, or to 1e-14 of the largest value where
            # |i| reaches 1e3 (wide gaps at A = 60).
            scale = max(100.0, np.abs(direct[0]).max())
            assert np.max(np.abs(fft[:, g] - direct)) <= 1e-14 * scale, (pi.A, pi.k)

    def test_row_by_row_sums_match_the_matrix_product(self, monkeypatch):
        pi = WIDE_GAP_INPUTS[3]
        locs, ws = pi.as_arrays()
        pitch = inputs._pitch(locs)
        y, lf = inputs._samples(pi.A, locs, ws, pitch)
        xs = np.linspace(-pi.A, pi.A, 37)
        assert inputs._CHUNK // y.size > 1
        rows = inputs._marginal_info_batch(y, lf, pitch, xs, 2)
        monkeypatch.setattr(inputs, "_CHUNK", 8)   # below one row: one row at a time
        one_by_one = inputs._marginal_info_batch(y, lf, pitch, xs, 2)
        for got, want in zip(one_by_one, rows):
            assert np.max(np.abs(got - want)) <= 1e-13

    def test_coarse_pitch_fails_the_pitch_check(self, monkeypatch):
        pi = DiscreteInput(A=8.0, locations=(-8.0, -3.0, 2.5, 8.0), weights=(0.3, 0.2, 0.2, 0.3))
        inputs._kkt_scan(pi)
        monkeypatch.setattr(inputs, "_pitch", lambda locs: 1.5)
        with pytest.raises(QuadratureNonConvergence):
            inputs._kkt_scan(pi)


class TestKktRefinement:
    """Only sampled peaks that cannot hold the supremum are skipped."""

    def test_second_derivative_of_i_is_at_most_one(self, solved_inputs):
        # (log f)'' = Var(X | Y) - 1 >= -1, so i'' <= 1: the premise of pruning.
        rng = np.random.default_rng(19)
        randoms = [random_input(rng, k_max=8, a_lo=1.0, a_hi=30.0) for _ in range(12)]
        for pi in WIDE_GAP_INPUTS + solved_inputs[:3] + randoms:
            locs, ws = pi.as_arrays()
            h = inputs._pitch(locs)
            y, lf = inputs._samples(pi.A, locs, ws, h)
            xs = np.linspace(-pi.A, pi.A, 2001)
            _, d1, d2 = inputs._marginal_info_batch(y, lf, h, xs, 2)
            assert d2.max() <= 1.0 + 1e-6, (pi.A, pi.k)
            # The i'' row is the derivative of the i' row.
            step = xs[1] - xs[0]
            scale = max(1.0, np.abs(d2).max())
            assert np.max(np.abs(np.diff(d1) / step - 0.5 * (d2[1:] + d2[:-1]))) <= 1e-3 * scale

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
            # Both report the same peak.  Its location is fixed by values of i
            # only to about sqrt(1e-16): i is flat to second order there.
            assert got[2] == pytest.approx(x_best, abs=1e-6)
        # The near tie's supremum lies outside the steps around its grid maximum.
        assert x_best > 3.0 and x_grid < -3.0

    def test_supremum_matches_every_window(self, solved_inputs):
        for pi in WIDE_GAP_INPUTS + solved_inputs + [CURVED_PEAK_INPUT, GAP_PEAK_INPUT]:
            r_support, r_global, _, _ = every_window_kkt_scan(pi)
            got = inputs._kkt_scan(pi)
            assert got[1] == pytest.approx(r_global, rel=1e-12, abs=1e-12), (pi.A, pi.k)
            assert got[0] == pytest.approx(r_support, abs=1e-12), (pi.A, pi.k)

    def test_direct_sums_stay_within_the_newton_budget(self, monkeypatch, solved_inputs):
        # Direct sums run only at the K atoms, at A, and at most _NEWTON_CAP
        # times at each polished peak, never on a dense grid.
        sums = inputs._marginal_info_batch
        calls = []

        def counted(y, lf, pitch, xs, derivatives=0):
            calls.append((len(xs), derivatives))
            return sums(y, lf, pitch, xs, derivatives)

        monkeypatch.setattr(inputs, "_marginal_info_batch", counted)
        for pi in WIDE_GAP_INPUTS + ROUTE_INPUTS + solved_inputs + [GAP_PEAK_INPUT]:
            calls.clear()
            inputs._kkt_scan(pi)
            assert calls[:2] == [(pi.k, 0), (1, 2)], (pi.A, pi.k)
            polish = calls[2:]
            assert len(polish) <= inputs._NEWTON_CAP
            assert all(derivatives == 2 for _, derivatives in polish)
            # The first Newton step runs at every polished peak, later ones
            # only at the peaks that have not converged.
            peaks = polish[0][0] if polish else 1
            assert all(n <= peaks for n, _ in polish)
            budget = pi.k + (inputs._NEWTON_CAP + 1) * peaks
            assert sum(n for n, _ in calls) <= budget, (pi.A, pi.k)
