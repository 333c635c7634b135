"""Special functions, quadrature, TV distance, and bulk deviation."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import mpmath
from scipy.special import ndtr
from scipy.stats import norm

from acawgn import (
    DiscreteInput,
    QuadratureNonConvergence,
    adaptive_quad_family,
    bulk_sup_deviation,
    solve_capacity,
    tv_distance,
    uniform_output_density,
)
from acawgn.numerics import _NODES, _WG, _WK, _tv_roots

from oracles import mixture_pdf, quad_oracle, quadpack_tv, uniform_density

# The certify-batch inputs (seed, batch) on which the adaptive rule that
# measured TV before the exact route missed a kink of |p - q| by more than
# 1e-4 relative; perfbench/NOTES.md lists them.
KNOWN_INPUTS = json.loads((Path(__file__).parent / "tv_known_inputs.json").read_text())

# Input 13 of batch 2 of the certify-batch workload at seed 501: of the
# seed's 1152 inputs, the one whose roots take the most Newton rounds in
# _tv_roots (8; most inputs take 3).
NEWTON_SLOWEST = {
    "A": 6.595148760366418,
    "points": [-6.595148760366418, -4.6587771776183535, -3.245054738391467,
               -1.3161130555672949, 1.1920227944139157, 3.2201849749756177,
               4.760322051325015, 6.2618724264393135],
    "weights": [0.253698224852071, 0.11295435333896874, 0.069843617920541,
                0.06350380388841928, 0.06350380388841928, 0.06984361792054099,
                0.1129543533389687, 0.253698224852071],
}

RNG = np.random.default_rng(20240808)

class TestUniformOutputDensity:
    def test_rejects_bad_amplitude(self):
        for A in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                uniform_output_density(A, 0.0)

    def test_center_value(self):
        # (Phi(1) - Phi(-1)) / 2 by independent quadrature of phi over [-1, 1]
        expected = 0.5 * quad_oracle(norm.pdf, -1.0, 1.0)
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
        brute = quad_oracle(lambda u: norm.pdf(0.0 - u) / (2 * A), -A, A)
        assert uniform_output_density(A, 0.0) == pytest.approx(brute, abs=1e-12)

    def test_matches_convolution_random(self):
        # library closed form vs brute-force convolution on 100 random pairs
        rng = np.random.default_rng(5)
        for _ in range(100):
            A = float(rng.uniform(0.5, 50))
            x = float(rng.uniform(-A, A))
            brute = quad_oracle(
                lambda u: norm.pdf(x - u) / (2 * A),
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


def integrate_one(f, lo, hi):
    """The integral of the one vectorized integrand f, by adaptive_quad_family."""
    vals, _ = adaptive_quad_family(lambda x: np.asarray(f(x), dtype=float)[None, :], lo, hi)
    return float(vals[0])


class TestAdaptiveQuad:
    def test_kronrod_exact_degree_22(self):
        # one panel of the 7/15 pair integrates degree <= 22 exactly
        for deg in (20, 22):
            val = integrate_one(lambda x, d=deg: x**d, 0.0, 1.0)
            assert val == pytest.approx(1.0 / (deg + 1), rel=1e-14)

    def test_gauss_nodes_match_legendre(self):
        nodes, weights = np.polynomial.legendre.leggauss(7)
        assert np.max(np.abs(np.sort(nodes) - _NODES[1::2])) < 1e-14
        assert np.max(np.abs(weights - _WG)) < 1e-14
        assert _WK.sum() == pytest.approx(2.0, abs=1e-14)

    def test_kinked_integrand(self):
        val = integrate_one(lambda x: np.abs(np.cos(x)), 0.0, math.pi)
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_oscillatory_vs_oracle(self):
        f = lambda x: np.exp(-0.3 * x) * np.sin(7 * x)
        ours = integrate_one(f, 0.0, 10.0)
        ref = quad_oracle(f, 0.0, 10.0)
        assert ours == pytest.approx(ref, abs=1e-11)

    def test_family_shares_partition(self):
        shifts = np.array([-1.0, 0.0, 2.5])

        def fam(x):
            return norm.pdf(x[None, :] - shifts[:, None])

        vals, errs = adaptive_quad_family(fam, -12.0, 15.0)
        assert np.allclose(vals, 1.0, atol=1e-10)
        assert np.all(errs < 1e-9)

    def test_nonconvergence_carries_estimate(self):
        # the singular end point keeps its panel's error above the targets
        # until that panel reaches the depth limit
        with pytest.raises(QuadratureNonConvergence) as exc_info:
            integrate_one(lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-300), 0.0, 1.0)
        err = exc_info.value
        # true value is 2; the carried estimate should be in the ballpark
        assert abs(float(np.asarray(err.estimate)[0]) - 2.0) < 0.5
        assert float(np.asarray(err.error_bound)[0]) > 1e-14

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate_one(lambda x: x, 1.0, 1.0)


def _light_bump_input():
    """A = 10: heavy atoms at +-10 and a light one at 0.125 that barely lifts p over q.

    Near 0.125 the edge atoms' densities are below 1e-21, so p - q changes
    sign at 0.125 +- sqrt(2*log(1 + 1.25e-3)), 0.1 apart; both fall in the
    cell [0, 0.25] of the bracketing grid, whose ends share a sign.
    """
    A = 10.0
    w0 = (1.0 + 1.25e-3) / (2 * A) / norm.pdf(0.0)
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


def _trapezoid_input(K, A=10.0):
    """K equispaced atoms on [-A, A] with trapezoid weights: close to Unif[-A, A]."""
    w = np.ones(K)
    w[[0, -1]] = 0.5
    return DiscreteInput.normalized(A, np.linspace(-A, A, K), w / w.sum())


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
        inputs = [_trapezoid_input(K) for K in (101, 201)]
        tvs = [tv_distance(pi) for pi in inputs]
        assert tvs[1] <= 4e-5
        assert tvs[0] / tvs[1] == pytest.approx(4.0, rel=1e-2)
        assert tvs[1] == pytest.approx(quadpack_tv(10.0, *inputs[1].as_arrays()), rel=1e-8, abs=0)

    def test_slowest_newton_input_matches_quadpack(self):
        pi = DiscreteInput.from_dict(NEWTON_SLOWEST)
        ref = quadpack_tv(pi.A, *pi.as_arrays())
        assert tv_distance(pi) == pytest.approx(ref, rel=1e-10, abs=0)

    @pytest.mark.parametrize("build, genuine", [
        (lambda: DiscreteInput.from_dict(NEWTON_SLOWEST), 3),
        (_light_bump_input, 4),
        (_three_crossings_input, 6),
        (lambda: _trapezoid_input(201), 2),
    ], ids=["newton-slowest", "pair", "three", "work-bound"])
    def test_roots_lie_within_1e9_of_a_sign_change(self, build, genuine):
        # Outside rounding noise, g = p - q (the oracles' independent
        # densities) takes opposite signs 1e-9 either side of each root.
        # On the K = 201 input only the two roots near +-A are above the
        # noise: over most of [-A, A], |g| stays below 6e-16 q and its sign
        # flips at random on the 1e-9 scale.
        pi = build()
        A, (locs, ws) = pi.A, pi.as_arrays()
        roots = _tv_roots(A, locs, ws)
        lo, hi = (mixture_pdf(locs, ws, roots + s) - uniform_density(A, roots + s)
                  for s in (-1e-9, 1e-9))
        floor = 16.0 * np.finfo(float).eps * uniform_density(A, roots)
        above_noise = np.maximum(np.abs(lo), np.abs(hi)) > floor
        assert np.count_nonzero(above_noise) == genuine
        assert np.all(lo[above_noise] * hi[above_noise] <= 0.0)

    def test_disjoint_limit(self):
        # a unit Gaussian against a plateau of height 1/(2A): their overlap
        # is at most 5/A + 2*Phi(-5)
        A = 1e4
        tv = tv_distance(DiscreteInput(A=A, locations=(0.0,), weights=(1.0,)))
        assert 1.0 - 5.0 / A - 2.0 * ndtr(-5.0) <= tv <= 1.0

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
            step = ws[j] * (2.0 * ndtr(0.25) - 1.0)
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
        # B = A - sqrt(A) is not positive for A <= 1: there is no bulk
        for A in (0.5, 1.0):
            pi = DiscreteInput(A=A, locations=(-A, A), weights=(0.5, 0.5))
            assert math.isnan(bulk_sup_deviation(pi))

    def test_deep_bulk_is_flat(self):
        # equispaced atoms 0.1 apart with trapezoid weights: the output is
        # the smoothed uniform law's up to the rule's O(h^2) edge error, so
        # the deviation is that law's at the bulk edge |x| = B, where
        # 2A f_unif - 1 = -Phi(-sqrt(A)) - Phi(sqrt(A) - 2A)
        A = 25.0
        w = np.ones(501)
        w[[0, -1]] = 0.5
        pi = DiscreteInput.normalized(A, np.linspace(-A, A, 501), w / w.sum())
        edge = ndtr(-math.sqrt(A)) + ndtr(math.sqrt(A) - 2.0 * A)
        assert bulk_sup_deviation(pi) == pytest.approx(edge, abs=1e-8)

    def test_edge_deviation_near_half(self):
        # atoms uniform on the bulk itself: the output plateau is A/B times
        # the uniform level and sits at half of that at x = +-B, so the sup
        # is at the edge, 1 - (A/B)(1/2 - Phi(-2B)), which nears 1/2 as A grows
        for A in (16.0, 25.0):
            B = A - math.sqrt(A)
            w = np.ones(int(round(2.0 * B / 0.1)) + 1)
            w[[0, -1]] = 0.5
            pi = DiscreteInput.normalized(A, np.linspace(-B, B, w.size), w / w.sum())
            edge = 1.0 - (A / B) * (0.5 - ndtr(-2.0 * B))
            assert bulk_sup_deviation(pi) == pytest.approx(edge, abs=1e-8)

    def test_exact_uniform_gives_zero(self):
        # atoms 0.64 apart over all of [-A, A] with trapezoid weights: the
        # output is 1/(2A) up to the comb's aliasing 2 exp(-2 pi^2 / 0.64^2)
        # < 1e-20 and the missing tail Phi(-sqrt(A)) < 1e-15 at A = 64, so
        # what remains is the rounding of the K-term sum, under K ulp
        A = 64.0
        w = np.ones(201)
        w[[0, -1]] = 0.5
        pi = DiscreteInput.normalized(A, np.linspace(-A, A, 201), w / w.sum())
        assert bulk_sup_deviation(pi) <= ndtr(-math.sqrt(A)) + w.size * np.finfo(float).eps

    @pytest.mark.parametrize("A", [4.0, 8.0, 20.0])
    def test_matches_brute_force_sup(self, A):
        # the sup of |2A f - 1| over a 1e-4 grid of [-B, B], f summed from
        # scipy's normal pdf.  |(2A f)''| <= 2A phi(0), so each grid misses
        # an interior maximum by at most A phi(0) pitch^2 / 4; the library's
        # finest pitch is at most 1e-4 too
        pi = solve_capacity(A).input
        B = A - math.sqrt(A)
        y = np.linspace(-B, B, int(math.ceil(2.0 * B / 1e-4)) + 1)
        f = sum(w * norm.pdf(y - x) for x, w in zip(pi.locations, pi.weights))
        brute = float(np.max(np.abs(2.0 * A * f - 1.0)))
        assert bulk_sup_deviation(pi) == pytest.approx(brute, abs=A * norm.pdf(0.0) * 1e-8 / 2)
