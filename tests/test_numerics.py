"""Special functions, quadrature, TV distance, and bulk deviation."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import mpmath

from acawgn import (
    DiscreteInput,
    QuadratureNonConvergence,
    QuadratureSpec,
    adaptive_quad,
    adaptive_quad_family,
    bulk_sup_deviation,
    std_normal_cdf,
    std_normal_pdf,
    tv_distance,
    uniform_output_density,
)
from acawgn.numerics import _NODES, _WG, _WK, _tv_roots

from oracles import quad_oracle, quadpack_tv

# The certify-batch inputs (seed, batch) on which the adaptive rule that
# measured TV before the exact route missed a kink of |p - q| by more than
# 1e-4 relative; perfbench/NOTES.md lists them.
KNOWN_INPUTS = json.loads((Path(__file__).parent / "tv_known_inputs.json").read_text())

RNG = np.random.default_rng(20240808)

# High-precision values (mpmath, 40 digits)
PHI_AT_1 = 0.2419707245191433498


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
            total = quad_oracle(lambda y, a=A: uniform_output_density(a, y), -A - 10, A + 10)
            assert 1 - 1e-9 <= total <= 1 + 1e-9

    def test_both_tails_against_mpmath(self):
        # Phi(A - x) - Phi(-A - x) cancels 1 - 1 for x << -A unless the even
        # density is evaluated at |x|.
        mpmath.mp.dps = 40
        for A in (2.0, 8.0, 40.0):
            for d in (6.0, 8.0, 9.0):
                x = A + d
                exact = (mpmath.ncdf(A - x) - mpmath.ncdf(-A - x)) / (2 * A)
                for y in (x, -x):
                    assert uniform_output_density(A, y) == pytest.approx(float(exact), rel=1e-13, abs=0)


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


def _light_bump_input():
    """A = 10: heavy atoms at +-10 and a light one at 0.125 that barely lifts p over q.

    Near 0.125 the edge atoms' densities are below 1e-21, so p - q changes
    sign at 0.125 +- sqrt(2*log(1 + 1.25e-3)), 0.1 apart; both fall in the
    cell [0, 0.25] of the bracketing grid, whose ends share a sign.
    """
    A = 10.0
    w0 = (1.0 + 1.25e-3) / (2 * A) / std_normal_pdf(0.0)
    return DiscreteInput(A=A, locations=(-A, 0.125, A),
                         weights=(0.5 * (1 - w0), w0, 0.5 * (1 - w0)))


def _three_crossings_input():
    """A = 10: heavy atoms at +-10 and two light ones near -1 and 1.

    Their positions and weights were solved for (scipy's fsolve) so that
    p - q changes sign at 0.04, 0.075 and 0.11: three sign changes in the
    cell [0, 0.25] of the bracketing grid, whose ends differ in sign.
    """
    w1, w2 = 0.10336059981763542, 0.10335958752795575
    edge = 0.5 * (1.0 - w1 - w2)
    return DiscreteInput(A=10.0, locations=(-10.0, -0.95, 1.0508092003750163, 10.0),
                         weights=(edge, w1, w2, edge))


def _mirror(pi):
    return DiscreteInput(A=pi.A, locations=tuple(-x for x in reversed(pi.locations)),
                         weights=tuple(reversed(pi.weights)))


class TestTvDistance:
    @pytest.mark.parametrize("known", KNOWN_INPUTS,
                             ids=[f"seed{k['seed']}-batch{k['batch']}" for k in KNOWN_INPUTS])
    def test_known_inputs_match_quadpack(self, known):
        pi = DiscreteInput.from_dict(known)
        ref = quadpack_tv(pi.A, *pi.as_arrays())
        assert tv_distance(pi) == pytest.approx(ref, rel=1e-10, abs=0)

    @pytest.mark.parametrize("build, inside", [
        (_light_bump_input, [0.125 - math.sqrt(2.0 * math.log1p(1.25e-3)),
                             0.125 + math.sqrt(2.0 * math.log1p(1.25e-3))]),
        (_three_crossings_input, [0.04, 0.075, 0.11]),
    ], ids=["pair", "three"])
    def test_close_sign_changes_inside_one_cell(self, build, inside):
        pi = build()
        roots = _tv_roots(pi.A, *pi.as_arrays())
        assert roots[(roots > 0.0) & (roots < 0.25)] == pytest.approx(inside, abs=1e-6)
        ref = quadpack_tv(pi.A, *pi.as_arrays())
        assert tv_distance(pi) == pytest.approx(ref, rel=1e-10, abs=0)

    def test_identity(self):
        # equispaced atoms with trapezoid weights tend to Unif[-A, A], so
        # their output tends to f_unif: TV falls like the squared spacing
        # (the trapezoid rule's endpoint error).  At K = 201, p - q sits at
        # rounding level over most of [-A, A], no cell there can be settled,
        # and the bracketing must stop at its work bound.
        A = 10.0
        inputs, tvs = [], []
        for K in (101, 201):
            w = np.ones(K)
            w[[0, -1]] = 0.5
            inputs.append(DiscreteInput.normalized(A, np.linspace(-A, A, K), w / w.sum()))
            tvs.append(tv_distance(inputs[-1]))
        assert tvs[1] <= 4e-5
        assert tvs[0] / tvs[1] == pytest.approx(4.0, rel=1e-2)
        assert tvs[1] == pytest.approx(quadpack_tv(A, *inputs[1].as_arrays()), rel=1e-8, abs=0)

    def test_disjoint_limit(self):
        # a unit Gaussian against a plateau of height 1/(2A): their overlap
        # is at most 5/A + 2*Phi(-5)
        A = 1e4
        tv = tv_distance(DiscreteInput(A=A, locations=(0.0,), weights=(1.0,)))
        assert 1.0 - 5.0 / A - 2.0 * std_normal_cdf(-5.0) <= tv <= 1.0

    def test_symmetry(self):
        # the smoothed uniform law is even, so mirroring the input keeps TV
        rng = np.random.default_rng(11)
        for _ in range(5):
            A = float(rng.uniform(1.0, 20.0))
            K = int(rng.integers(1, 12))
            pi = DiscreteInput.normalized(A, rng.uniform(-A, A, K), rng.dirichlet(np.ones(K)))
            assert tv_distance(_mirror(pi)) == pytest.approx(tv_distance(pi), rel=1e-12, abs=0)

    def test_triangle_inequality(self):
        # moving atom j by d changes f_pi by at most w_j * TV(phi, phi(. - d))
        # = w_j * (2*Phi(d/2) - 1) in TV, and TV to f_unif by no more
        rng = np.random.default_rng(12)
        for _ in range(5):
            A = float(rng.uniform(2.0, 20.0))
            K = int(rng.integers(2, 12))
            locs = np.sort(rng.uniform(-A + 0.5, A - 0.5, K))
            ws = rng.dirichlet(np.ones(K))
            j = int(rng.integers(K))
            moved = locs.copy()
            moved[j] += 0.5
            pi = DiscreteInput.normalized(A, locs, ws)
            pi_moved = DiscreteInput.normalized(A, moved, ws)
            step = ws[j] * (2.0 * std_normal_cdf(0.25) - 1.0)
            assert abs(tv_distance(pi) - tv_distance(pi_moved)) <= step + 1e-13

    def test_range(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            A = float(rng.uniform(0.5, 30.0))
            K = int(rng.integers(1, 30))
            pi = DiscreteInput.normalized(A, rng.uniform(-A, A, K), rng.dirichlet(np.ones(K)))
            assert 0.0 <= tv_distance(pi) <= 1.0


class TestBulkSupDeviation:
    def test_validation(self):
        def f(y):
            return uniform_output_density(2.0, y)

        with pytest.raises(ValueError):
            bulk_sup_deviation(f, 2.0, 2.0)
        with pytest.raises(ValueError):
            bulk_sup_deviation(f, 2.0, 2.5)
        with pytest.raises(ValueError):
            bulk_sup_deviation(f, 2.0, 0.0)

    def test_deep_bulk_is_flat(self):
        # at A=100, B=90 the squeeze gives deviation <= 2*(1 - Phi(10))
        A = 100.0
        dev = bulk_sup_deviation(lambda y: uniform_output_density(A, y), A, A - 10.0)
        assert dev <= 2.0 * (1.0 - std_normal_cdf(10.0)) + 1e-12

    def test_edge_deviation_near_half(self):
        # at x = +-A the uniform output sits at half the plateau level
        for A in (3.0, 5.0):
            dev = bulk_sup_deviation(lambda y, a=A: uniform_output_density(a, y), A, A - 1e-6)
            assert dev >= 0.49

    def test_exact_uniform_gives_zero(self):
        A, B = 4.0, 3.0
        assert bulk_sup_deviation(lambda y: np.full_like(y, 1.0 / (2 * A)), A, B) <= 1e-15
