"""Special functions, quadrature, TV distance, and bulk deviation."""

import math

import numpy as np
import pytest

from acawgn import (
    DensityFn,
    QuadratureNonConvergence,
    QuadratureSpec,
    adaptive_quad,
    adaptive_quad_family,
    bulk_sup_deviation,
    std_normal_cdf,
    std_normal_pdf,
    tv_distance,
    uniform_output,
    uniform_output_density,
)
from acawgn.numerics import _NODES, _WG, _WK

from oracles import quad_oracle

RNG = np.random.default_rng(20240808)

# High-precision values (mpmath, 40 digits)
PHI_AT_1 = 0.2419707245191433498
TV_GAUSS_PAIR = 0.38292492254802620728  # 2*Phi(1/2) - 1


class TestStdNormalPdf:
    def test_value_at_zero(self):
        assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=0)

    def test_symmetry(self):
        xs = RNG.uniform(-8, 8, 50)
        assert np.allclose(std_normal_pdf(xs), std_normal_pdf(-xs), rtol=0, atol=0)

    def test_value_at_one_high_precision(self):
        assert std_normal_pdf(1.0) == pytest.approx(PHI_AT_1, rel=1e-15)

    def test_vectorized(self):
        out = std_normal_pdf(np.zeros((3, 2)))
        assert out.shape == (3, 2)


class TestStdNormalCdf:
    def test_half_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_tail(self):
        assert std_normal_cdf(10.0) >= 1 - 1e-15

    def test_reflection(self):
        xs = RNG.uniform(-8, 8, 100)
        assert np.max(np.abs(std_normal_cdf(xs) + std_normal_cdf(-xs) - 1.0)) <= 1e-15

    def test_monotone(self):
        xs = np.linspace(-12, 12, 400)
        assert np.all(np.diff(std_normal_cdf(xs)) >= 0)

    def test_against_quadrature_of_pdf(self):
        # independent route: integrate phi over (-inf, 1]
        val = quad_oracle(lambda t: std_normal_pdf(t), -40.0, 1.0)
        assert std_normal_cdf(1.0) == pytest.approx(val, abs=1e-12)


class TestUniformOutputDensity:
    def test_rejects_bad_amplitude(self):
        for A in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                uniform_output_density(A, 0.0)

    def test_center_value(self):
        # (Phi(1) - Phi(-1)) / 2 by independent quadrature of phi over [-1, 1]
        expected = 0.5 * quad_oracle(lambda t: std_normal_pdf(t), -1.0, 1.0)
        assert uniform_output_density(1.0, 0.0) == pytest.approx(expected, abs=1e-13)

    def test_symmetry_and_cap(self):
        for _ in range(20):
            A = float(RNG.uniform(0.5, 20))
            x = float(RNG.uniform(-A - 3, A + 3))
            v1 = uniform_output_density(A, x)
            v2 = uniform_output_density(A, -x)
            assert v1 == pytest.approx(v2, rel=1e-14)
            assert v1 <= 1.0 / (2 * A) + 1e-15

    def test_matches_convolution_at_center(self):
        A = 5.0
        brute = quad_oracle(lambda u: std_normal_pdf(0.0 - u) / (2 * A), -A, A)
        assert uniform_output_density(A, 0.0) == pytest.approx(brute, abs=1e-12)

    def test_matches_convolution_random(self):
        # library closed form vs brute-force convolution on 100 random pairs
        rng = np.random.default_rng(5)
        for _ in range(100):
            A = float(rng.uniform(0.5, 50))
            x = float(rng.uniform(-A, A))
            brute = quad_oracle(
                lambda u: std_normal_pdf(x - u) / (2 * A),
                max(-A, x - 12), min(A, x + 12),
            )
            assert uniform_output_density(A, x) == pytest.approx(brute, abs=1e-10)

    def test_normalization(self):
        for A in (0.5, 5.0, 50.0):
            d = uniform_output(A)
            total = adaptive_quad(d, d.lo, d.hi)
            assert 1 - 1e-9 <= total <= 1 + 1e-9


class TestAdaptiveQuad:
    def test_kronrod_exact_degree_22(self):
        # one panel of the 7/15 pair integrates degree <= 22 exactly
        for deg in (20, 22):
            val = adaptive_quad(lambda x, d=deg: x**d, 0.0, 1.0)
            assert val == pytest.approx(1.0 / (deg + 1), rel=1e-14)

    def test_gauss_nodes_match_legendre(self):
        nodes, weights = np.polynomial.legendre.leggauss(7)
        assert np.max(np.abs(np.sort(nodes) - _NODES[1::2])) < 1e-14
        assert np.max(np.abs(weights - _WG)) < 1e-14
        assert _WK.sum() == pytest.approx(2.0, abs=1e-14)

    def test_kinked_integrand(self):
        val = adaptive_quad(lambda x: np.abs(np.cos(x)), 0.0, math.pi)
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_oscillatory_vs_oracle(self):
        f = lambda x: np.exp(-0.3 * x) * np.sin(7 * x)
        ours = adaptive_quad(f, 0.0, 10.0)
        ref = quad_oracle(f, 0.0, 10.0)
        assert ours == pytest.approx(ref, abs=1e-11)

    def test_family_shares_partition(self):
        shifts = np.array([-1.0, 0.0, 2.5])

        def fam(x):
            return std_normal_pdf(x[None, :] - shifts[:, None])

        vals, errs = adaptive_quad_family(fam, -12.0, 15.0)
        assert np.allclose(vals, 1.0, atol=1e-10)
        assert np.all(errs < 1e-9)

    def test_nonconvergence_carries_estimate(self):
        spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_depth=2)
        with pytest.raises(QuadratureNonConvergence) as exc_info:
            adaptive_quad(lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-300), 0.0, 1.0, spec)
        err = exc_info.value
        # true value is 2; the carried estimate should be in the ballpark
        assert abs(float(np.asarray(err.estimate)[0]) - 2.0) < 0.5
        assert float(np.asarray(err.error_bound)[0]) > 1e-14

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            adaptive_quad(lambda x: x, 1.0, 1.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_depth=0)


def _gauss_density(mean: float) -> DensityFn:
    return DensityFn(lambda y, m=mean: std_normal_pdf(y - m), mean - 10, mean + 10)


class TestTvDistance:
    def test_identity(self):
        p = _gauss_density(0.3)
        assert tv_distance(p, p) <= 1e-10

    def test_disjoint_limit(self):
        assert tv_distance(_gauss_density(0.0), _gauss_density(20.0)) >= 1 - 1e-9

    def test_gaussian_pair_closed_form(self):
        # equal-variance pair: TV = 2*Phi(m/2) - 1 via the midpoint crossing
        tv = tv_distance(_gauss_density(0.0), _gauss_density(1.0))
        assert tv == pytest.approx(TV_GAUSS_PAIR, abs=1e-10)
        # cross-check by direct quadrature on an independent integrator
        ref = 0.5 * quad_oracle(
            lambda y: abs(std_normal_pdf(y) - std_normal_pdf(y - 1.0)), -12, 13
        )
        assert tv == pytest.approx(ref, abs=1e-10)

    def test_symmetry(self):
        p, q = _gauss_density(0.0), _gauss_density(2.2)
        assert tv_distance(p, q) == pytest.approx(tv_distance(q, p), abs=1e-10)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            means = rng.uniform(-3, 3, 3)
            p, q, r = (_gauss_density(float(m)) for m in means)
            d_pq = tv_distance(p, q)
            d_qr = tv_distance(q, r)
            d_pr = tv_distance(p, r)
            assert d_pr <= d_pq + d_qr + 3e-10

    def test_range(self):
        tv = tv_distance(_gauss_density(0.0), _gauss_density(0.7))
        assert 0.0 <= tv <= 1.0


class TestBulkSupDeviation:
    def test_validation(self):
        f = uniform_output(2.0)
        with pytest.raises(ValueError):
            bulk_sup_deviation(f, 2.0, 2.0)
        with pytest.raises(ValueError):
            bulk_sup_deviation(f, 2.0, 2.5)
        with pytest.raises(ValueError):
            bulk_sup_deviation(f, 2.0, 0.0)

    def test_deep_bulk_is_flat(self):
        # at A=100, B=90 the squeeze gives deviation <= 2*(1 - Phi(10))
        A = 100.0
        dev = bulk_sup_deviation(uniform_output(A), A, A - 10.0)
        assert dev <= 2.0 * (1.0 - std_normal_cdf(10.0)) + 1e-12

    def test_edge_deviation_near_half(self):
        # at x = +-A the uniform output sits at half the plateau level
        for A in (3.0, 5.0):
            dev = bulk_sup_deviation(uniform_output(A), A, A - 1e-6)
            assert dev >= 0.49

    def test_exact_uniform_gives_zero(self):
        A, B = 4.0, 3.0
        flat = DensityFn(lambda y, lvl=1.0 / (2 * A): np.full_like(y, lvl), -B, B)
        assert bulk_sup_deviation(flat, A, B) <= 1e-15
