"""Trigonometric moments, moment matrices, and TV lower-bound certificates."""

import cmath
import math

import numpy as np
import pytest

from acawgn import (
    DiscreteInput,
    base_frequency,
    certificate_report,
    certified_tv_lower_bound_maxnorm,
    certified_tv_lower_bound_maxnorm_log,
    closed_form_bound,
    closed_form_bound_log,
    moment_matrix,
    numerical_rank,
    rank_route_bound,
    trig_moment_sequence,
    tv_distance,
)

from oracles import quad_oracle

QUARTER_EXP_M2PI2 = 6.6882199776855992e-10  # (1/4) exp(-2 pi^2), 40-digit value
SQRT6 = 2.4494897427831781


def random_input(rng, k_lo=1, k_hi=8, a_lo=1.0, a_hi=10.0):
    K = int(rng.integers(k_lo, k_hi + 1))
    A = float(rng.uniform(a_lo, a_hi))
    locs = np.sort(rng.uniform(-A, A, K))
    while K > 1 and np.min(np.diff(locs)) < 1e-3:
        locs = np.sort(rng.uniform(-A, A, K))
    w = rng.dirichlet(np.ones(K))
    return DiscreteInput.normalized(A, locs, w)


def _moment(pi, k, delta):
    """t_k = sum_j w_j exp(i*k*delta*x_j), one term at a time."""
    return sum(w * cmath.exp(1j * k * delta * x) for x, w in zip(pi.locations, pi.weights))


def _mirror(pi):
    return DiscreteInput(A=pi.A, locations=tuple(-x for x in reversed(pi.locations)),
                         weights=tuple(reversed(pi.weights)))


class TestTrigMoment:
    def test_total_mass(self):
        pi = DiscreteInput(A=2.0, locations=(-1.0, 0.5), weights=(0.25, 0.75))
        assert trig_moment_sequence(pi, 0, base_frequency(2.0))[0] == 1.0 + 0.0j

    def test_symmetric_pair_cosine(self):
        pi = DiscreteInput(A=1.0, locations=(-1.0, 1.0), weights=(0.5, 0.5))
        delta = 0.73
        seq = trig_moment_sequence(pi, 5, delta)
        for k in range(6):
            assert seq[k] == pytest.approx(math.cos(k * delta), abs=1e-15)

    def test_characteristic_properties(self):
        # |t_k| <= 1, and the moments of -X are t_{-k} = conj(t_k)
        rng = np.random.default_rng(41)
        for _ in range(20):
            pi = random_input(rng)
            delta = base_frequency(pi.A)
            seq = trig_moment_sequence(pi, 40, delta)
            assert np.all(np.abs(seq) <= 1.0 + 1e-12)
            mirrored = trig_moment_sequence(_mirror(pi), 40, delta)
            assert np.allclose(mirrored, np.conj(seq), rtol=0, atol=1e-14)

    def test_sequence_accessor(self):
        pi = DiscreteInput(A=1.5, locations=(-1.0, 1.2), weights=(0.5, 0.5))
        delta = base_frequency(pi.A)
        seq = trig_moment_sequence(pi, 6, delta)
        assert seq.shape == (7,)
        for k in range(7):
            assert seq[k] == pytest.approx(_moment(pi, k, delta), abs=1e-14)
            assert np.conj(seq[k]) == pytest.approx(_moment(pi, -k, delta), abs=1e-14)


class TestUniformTrigMoment:
    def test_quadrature_cross_check(self):
        # integral of e^{i k pi x / A} / (2A) over [-A, A] vanishes for k != 0
        A = 5.0
        for k in range(1, 21):
            w = k * math.pi / A
            re = quad_oracle(lambda x: 1.0 / (2 * A), -A, A, weight="cos", wvar=w)
            im = quad_oracle(lambda x: 1.0 / (2 * A), -A, A, weight="sin", wvar=w)
            assert abs(complex(re, im)) <= 1e-14


class TestMomentMatrix:
    def test_structure_invariants(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            pi = random_input(rng)
            n = int(rng.integers(0, 12))
            T = moment_matrix(pi, n, base_frequency(pi.A))
            assert T.shape == (n + 1, n + 1)
            assert np.allclose(T, T.conj().T, atol=1e-14)
            assert np.allclose(np.diag(T), 1.0, atol=1e-15)
            for d in range(1, n + 1):
                diag = np.diagonal(T, offset=d)
                assert np.allclose(diag, diag[0], atol=1e-14)

    def test_entries_are_moments(self):
        pi = DiscreteInput(A=2.0, locations=(-1.3, 0.4, 1.9), weights=(0.2, 0.5, 0.3))
        delta = base_frequency(pi.A)
        T = moment_matrix(pi, 4, delta)
        for j in range(5):
            for l in range(5):
                assert T[j, l] == pytest.approx(_moment(pi, l - j, delta), abs=1e-14)

    def test_matches_scipy_toeplitz(self):
        from scipy.linalg import toeplitz

        rng = np.random.default_rng(73)
        for _ in range(10):
            pi = random_input(rng, k_lo=1, k_hi=20, a_lo=1.0, a_hi=30.0)
            n = 2 * pi.k
            row = trig_moment_sequence(pi, n, base_frequency(pi.A))
            T = moment_matrix(pi, n, base_frequency(pi.A))
            assert np.array_equal(T, toeplitz(np.conj(row), row))

    def test_order_zero(self):
        pi = DiscreteInput(A=1.0, locations=(0.3,), weights=(1.0,))
        T = moment_matrix(pi, 0, base_frequency(1.0))
        assert T.shape == (1, 1)
        assert T[0, 0] == 1.0 + 0.0j

    def test_rank_at_most_k(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            pi = random_input(rng, k_lo=1, k_hi=12, a_lo=1.0, a_hi=30.0)
            T = moment_matrix(pi, 2 * pi.k, base_frequency(pi.A))
            assert numerical_rank(T) <= pi.k


class TestMaxnormBound:
    def test_point_mass_closed_form(self):
        A = 4.0
        pi = DiscreteInput(A=A, locations=(0.0,), weights=(1.0,))
        delta = base_frequency(A)
        expected = 0.5 * math.exp(-0.5 * delta**2)
        assert certified_tv_lower_bound_maxnorm(pi) == pytest.approx(expected, rel=1e-13)
        _, argmax_k = certified_tv_lower_bound_maxnorm_log(pi)
        assert argmax_k == 1

    def test_rigorous_ordering_vs_measured_tv(self):
        rng = np.random.default_rng(53)
        for _ in range(8):
            pi = random_input(rng, k_lo=1, k_hi=5, a_lo=1.0, a_hi=6.0)
            bound = certified_tv_lower_bound_maxnorm(pi)
            measured = tv_distance(pi)
            assert measured >= bound - 1e-8

    def test_atom_relabeling_invariance(self):
        A = 3.0
        locs = [0.5, -1.2, 2.0]
        ws = [0.2, 0.3, 0.5]
        pi1 = DiscreteInput.normalized(A, locs, ws)
        order = [2, 0, 1]
        pi2 = DiscreteInput.normalized(A, [locs[i] for i in order], [ws[i] for i in order])
        assert certified_tv_lower_bound_maxnorm(pi1) == pytest.approx(
            certified_tv_lower_bound_maxnorm(pi2), rel=1e-14
        )

    def test_log_space_survives_underflow(self):
        # K/A large enough that the linear closed-form floor underflows while
        # its log form stays exact; the max-norm log stays finite and
        # consistent with the linear value whenever that is representable.
        K, A = 60, 3.0
        assert closed_form_bound(K, A) == 0.0
        log_cf = closed_form_bound_log(K, A)
        assert math.isfinite(log_cf)
        assert log_cf == pytest.approx(math.log(0.25) - 2 * (math.pi * 20.0) ** 2, rel=1e-14)
        locs = np.linspace(-A, A, K)
        pi = DiscreteInput.normalized(A, locs, np.full(K, 1.0 / K))
        log_bound, _ = certified_tv_lower_bound_maxnorm_log(pi)
        assert math.isfinite(log_bound)
        linear = certified_tv_lower_bound_maxnorm(pi)
        assert linear == pytest.approx(math.exp(log_bound), rel=1e-13)


class TestClosedFormBound:
    def test_overflowing_ratio(self):
        # (pi*K/A)^2 passes the float range: the floor underflows to 0.0 and
        # its log is -inf instead of an OverflowError.
        assert closed_form_bound(1, 1e-300) == 0.0
        assert closed_form_bound_log(1, 1e-300) == -math.inf
        assert closed_form_bound(3, 5e-324) == 0.0

    def test_small_ratio_limit(self):
        assert closed_form_bound(1, 1e9) == pytest.approx(0.25, rel=1e-12)

    def test_unit_ratio_high_precision(self):
        assert closed_form_bound(5, 5.0) == pytest.approx(QUARTER_EXP_M2PI2, rel=1e-13)

    def test_decreasing_in_k(self):
        vals = [closed_form_bound(k, 6.0) for k in range(1, 10)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_scale_invariance_exact(self):
        for K, A in ((1, 0.7), (3, 2.3), (7, 11.0), (13, 5.5)):
            assert closed_form_bound(K, A) == closed_form_bound(2 * K, 2 * A)

    def test_log_variant_consistent(self):
        assert math.exp(closed_form_bound_log(2, 4.0)) == pytest.approx(
            closed_form_bound(2, 4.0), rel=1e-14
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            closed_form_bound(0, 1.0)
        with pytest.raises(ValueError):
            closed_form_bound(1, -1.0)


class TestRankRouteBound:
    def test_point_mass_explicit_gap(self):
        # K=1 at the origin: T_2 is the all-ones 3x3 matrix, gap = sqrt(6)
        A = 50.0
        pi = DiscreteInput(A=A, locations=(0.0,), weights=(1.0,))
        gap, implied = rank_route_bound(pi)
        assert gap == pytest.approx(SQRT6, rel=1e-12)
        assert implied >= 0.0

    def test_gap_floor_sqrt_k_plus_1(self):
        # Eckart-Young-Mirsky: rank-K matrices stay sqrt(K+1) from the identity
        rng = np.random.default_rng(59)
        for _ in range(25):
            pi = random_input(rng, k_lo=1, k_hi=10, a_lo=1.0, a_hi=20.0)
            gap, _ = rank_route_bound(pi)
            assert gap >= math.sqrt(pi.k + 1) - 1e-9
            # oracle route: the remainder's singular values say the same
            T = moment_matrix(pi, 2 * pi.k, base_frequency(pi.A))
            sv = np.linalg.svd(np.eye(2 * pi.k + 1) - T, compute_uv=False)
            assert gap == pytest.approx(float(np.sqrt((sv**2).sum())), rel=1e-12)

    def test_implied_bound_below_measured_tv(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            pi = random_input(rng, k_lo=1, k_hi=4, a_lo=1.5, a_hi=5.0)
            _, implied = rank_route_bound(pi)
            measured = tv_distance(pi)
            assert implied <= measured + 1e-8


class TestCertificateReport:
    def test_fields_and_ordering(self):
        pi = DiscreteInput(A=3.0, locations=(-2.0, 0.0, 2.0), weights=(0.4, 0.2, 0.4))
        rep = certificate_report(pi, measure_tv=True)
        assert rep.A == 3.0
        assert rep.K == 3
        assert rep.numerical_rank <= 3
        assert rep.measured_tv is not None
        assert rep.measured_tv >= rep.maxnorm_bound - 1e-8
        assert rep.frobenius_gap_ge_sqrt_k_plus_1
        assert math.exp(rep.maxnorm_bound_log) == pytest.approx(rep.maxnorm_bound, rel=1e-12)
        d = rep.to_dict()
        assert d["K"] == 3
        assert d["measured_tv"] == rep.measured_tv

    def test_report_builds_no_moment_matrix(self, monkeypatch):
        import acawgn.certificates as cert

        def refuse(*args):
            raise AssertionError("certificate_report built T_2K")

        pi = DiscreteInput(A=3.0, locations=(-2.0, 0.5, 2.0), weights=(0.3, 0.3, 0.4))
        expected = certificate_report(pi, measure_tv=True)
        monkeypatch.setattr(cert, "moment_matrix", refuse)
        assert certificate_report(pi, measure_tv=True) == expected
        assert cert.rank_route_bound(pi) == (expected.frobenius_gap, expected.rank_route_bound)

    def test_rank_fields_match_standalone_routes(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            pi = random_input(rng, k_lo=1, k_hi=12, a_lo=1.0, a_hi=30.0)
            rep = certificate_report(pi)
            gap, implied = rank_route_bound(pi)
            T = moment_matrix(pi, 2 * pi.k, base_frequency(pi.A))
            assert (rep.frobenius_gap, rep.rank_route_bound) == (gap, implied)
            assert rep.numerical_rank == numerical_rank(T)

    def test_coincident_fourier_nodes(self):
        # delta = pi/A maps -A and A to the same node exp(i pi k), so three
        # atoms give T_2K (and the K x K Gram) rank 2
        pi = DiscreteInput(A=2.5, locations=(-2.5, 0.0, 2.5), weights=(0.3, 0.4, 0.3))
        T = moment_matrix(pi, 2 * pi.k, base_frequency(pi.A))
        assert numerical_rank(T) == 2
        assert certificate_report(pi).numerical_rank == 2

    def test_gram_route_matches_toeplitz_svd(self):
        # up to K = 48 at A = 40, as certify-batch reaches: random inputs and
        # jittered equispaced ones; three of the sixteen fall one short of
        # full rank
        rng = np.random.default_rng(71)
        inputs = [random_input(rng, k_lo=1, k_hi=48, a_lo=1.0, a_hi=40.0) for _ in range(12)]
        for A in (3.0, 11.0, 23.0, 40.0):
            K = round(1.2 * A)
            x = np.linspace(-A, A, K) + rng.uniform(-0.2, 0.2, K)
            inputs.append(DiscreteInput.normalized(A, np.clip(x, -A, A), np.ones(K) / K))
        for pi in inputs:
            rep = certificate_report(pi)
            T = moment_matrix(pi, 2 * pi.k, base_frequency(pi.A))
            sv = np.linalg.svd(np.eye(2 * pi.k + 1) - T, compute_uv=False)
            assert rep.frobenius_gap == pytest.approx(float(np.sqrt((sv**2).sum())), rel=1e-12)
            assert rep.numerical_rank == numerical_rank(T)

    def test_no_tv_by_default(self):
        pi = DiscreteInput(A=2.0, locations=(-1.0, 1.0), weights=(0.5, 0.5))
        rep = certificate_report(pi)
        assert rep.measured_tv is None
