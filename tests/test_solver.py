"""Gradient correctness, fixed-K optimization, and capacity escalation."""

import math

import numpy as np
import pytest

from acawgn import (
    DiscreteInput,
    SolveConfig,
    dytso_lower_bound,
    mutual_information,
    solve_capacity,
    solve_fixed_k,
)
from acawgn.inputs import _info_stats
from acawgn.numerics import HALF_LOG_2PI_E
from acawgn.solver import _objective, _Param

from oracles import central_differences, random_param, tangent_part

DYTSO_AT_3 = 1.7628936255133177  # sqrt(1 + 18/(pi*e)), 40-digit arithmetic
DYTSO_AT_5 = 2.6182022749268086


class TestDytsoLowerBound:
    def test_at_zero(self):
        assert dytso_lower_bound(0.0) == 1.0

    def test_high_precision_values(self):
        assert dytso_lower_bound(3.0) == pytest.approx(DYTSO_AT_3, rel=1e-15)
        assert dytso_lower_bound(5.0) == pytest.approx(DYTSO_AT_5, rel=1e-15)

    def test_monotone(self):
        grid = np.linspace(0, 20, 100)
        vals = [dytso_lower_bound(a) for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dytso_lower_bound(-1.0)


class TestInfoGradient:
    """The gradient SLSQP uses: ``_objective`` in the coordinates (x, v)."""

    def test_symmetric_input_antisymmetric_location_gradient(self):
        # the full-atom gradient of a symmetric input is antisymmetric in the
        # locations and symmetric in the weights, and _objective folds it
        pi = DiscreteInput(A=2.0, locations=(-1.5, 0.0, 1.5), weights=(0.3, 0.4, 0.3))
        info, i_vec, d_loc = _info_stats(pi.A, *pi.as_arrays(), want_locations=True)
        assert d_loc[0] == pytest.approx(-d_loc[2], abs=1e-10)
        assert abs(d_loc[1]) <= 1e-10
        assert i_vec[0] == pytest.approx(i_vec[2], abs=1e-10)
        p = _Param(2.0, True, np.array([1.5]), np.array([0.4, 0.3]))
        got, grad = _objective(p)
        assert got == info
        raw = i_vec + HALF_LOG_2PI_E - 1.0
        assert grad == pytest.approx([2 * d_loc[2], raw[1], 2 * raw[2]], abs=1e-12)

    def test_optimal_binary_gradient_vanishes(self):
        # binary +-0.8 is optimal: the weight gradient is a multiple of c, so
        # it vanishes in the tangent space; the atom pushes outward against
        # its box; a zero-weight centre would lower I (i(0) < I)
        binary = _Param(0.8, False, np.array([0.8]), np.array([0.5]))
        info, grad = _objective(binary)
        assert grad[0] > 0.0
        assert grad[1] == pytest.approx(2.0 * (info + HALF_LOG_2PI_E - 1.0), abs=1e-12)
        centred = _Param(0.8, True, np.array([0.8]), np.array([0.0, 0.5]))
        info_c, grad_c = _objective(centred)
        assert info_c == pytest.approx(info, abs=1e-15)
        assert tangent_part(grad_c[1:], centred.weight_constraint())[0] < 0.0

    def test_finite_difference_agreement(self):
        # locations as they are; weights in the tangent space of c . v = 1,
        # where the objective's raw partials and the finite differences of the
        # returned I differ by log(2 pi e)/2 * c; with a centre atom and without
        rng = np.random.default_rng(31)
        for n in range(8):
            p = random_param(rng, has_center=n % 2 == 1)
            _, grad = _objective(p)
            fd = central_differences(lambda z: _objective(p.with_coords(z))[0],
                                     np.concatenate([p.x, p.v]), 1e-5)
            m, c = p.x.size, p.weight_constraint()
            assert np.max(np.abs(grad[:m] - fd[:m])) <= 1e-8
            assert np.max(np.abs(tangent_part(grad[m:] - fd[m:], c))) <= 1e-8
            assert grad[m:] - fd[m:] == pytest.approx(HALF_LOG_2PI_E * c, abs=1e-8)


class TestSolveFixedK:
    def test_binary_small_amplitude(self):
        pi, converged, *_ = solve_fixed_k(0.8, 2)
        assert converged
        assert pi.locations == pytest.approx((-0.8, 0.8), abs=1e-6)
        assert pi.weights == pytest.approx((0.5, 0.5), abs=1e-7)

    def test_k3_collapses_to_binary(self):
        pi2, *_ = solve_fixed_k(0.8, 2)
        pi3, *_ = solve_fixed_k(0.8, 3)
        assert pi3.k == 2 or abs(mutual_information(pi3) - mutual_information(pi2)) <= 1e-7

    def test_single_point_carries_nothing(self):
        for A in (0.5, 3.0):
            pi, *_ = solve_fixed_k(A, 1)
            assert pi.k == 1
            assert abs(mutual_information(pi)) <= 1e-8

    def test_slsqp_reaches_recorded_a8_optimum(self):
        # the equispaced K = 9 start at A = 8; the value is the certified C(8)
        pi, converged, *_ = solve_fixed_k(8.0, 9)
        assert converged
        assert pi.k == 9
        assert abs(mutual_information(pi) - 1.5758716926530236) <= 1e-9

    def test_optimizer_output_is_feasible(self):
        # the raw SLSQP step, before solve_fixed_k renormalizes its weights
        from dataclasses import replace

        from acawgn.solver import _initial_param, _pg_maximize

        A = 3.0
        rng = np.random.default_rng(5)
        for K in (4, 5):
            start = _initial_param(A, K)
            (lo_x, hi_x) = start.bounds()[0]
            perturbed = replace(
                start,
                x=np.clip(start.x + rng.uniform(-0.3, 0.3, start.x.shape), lo_x, hi_x),
                v=start.v * rng.uniform(0.5, 1.5, start.v.shape),
            )
            for p0 in (start, perturbed):
                p, info, _, _ = _pg_maximize(p0, [])
                assert abs(np.dot(p.weight_constraint(), p.v) - 1.0) <= 1e-10
                z = np.concatenate([p.x, p.v])
                lo, hi = np.array(p.bounds()).T
                assert np.all((lo <= z) & (z <= hi))
                assert info > 0.0

    def test_result_is_feasible(self):
        A = 3.0
        binary = DiscreteInput(A=A, locations=(-A, A), weights=(0.5, 0.5))
        # the equispaced start, and a warm start padded with a zero-weight pair
        for K, init in ((4, None), (5, binary)):
            pi, *_ = solve_fixed_k(A, K, init=init, violation=1.0)
            locs, ws = pi.as_arrays()
            assert np.all(np.abs(locs) <= A)
            assert np.all(ws >= 0.0)
            assert ws.sum() == pytest.approx(1.0, abs=1e-12)
            assert mutual_information(pi) > 0.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            solve_fixed_k(1.0, 0)
        with pytest.raises(ValueError):
            solve_fixed_k(-1.0, 2)


class TestSolveConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(kkt_eps=0.0)
        with pytest.raises(ValueError):
            SolveConfig(max_k=0)

    def test_default_cap_follows_amplitude(self):
        assert SolveConfig().max_k_for(5.0) == 40
        assert SolveConfig().max_k_for(40.0) == 80
        assert SolveConfig().max_k_for(20.5) == 42
        assert SolveConfig(max_k=10).max_k_for(40.0) == 10


class TestSolveCapacity:
    def test_small_amplitude_binary(self):
        rep = solve_capacity(0.8)
        assert rep.converged
        assert rep.k == 2
        assert rep.kkt_support <= rep.eps
        assert rep.kkt_global <= rep.eps
        assert rep.k >= dytso_lower_bound(0.8)

    def test_history_monotone(self):
        rep = solve_capacity(2.0)
        infos = [h.info_nats for h in rep.history]
        assert all(b >= a - 1e-9 for a, b in zip(infos, infos[1:]))
        assert rep.converged

    def test_symmetric_solution(self):
        rep = solve_capacity(2.0)
        locs = np.array(rep.input.locations)
        ws = np.array(rep.input.weights)
        assert np.allclose(locs, -locs[::-1], atol=1e-9)
        assert np.allclose(ws, ws[::-1], atol=1e-9)

    def test_deterministic(self):
        r1 = solve_capacity(1.5, SolveConfig(seed=7))
        r2 = solve_capacity(1.5, SolveConfig(seed=7))
        assert r1.input == r2.input
        assert r1.capacity_nats == r2.capacity_nats

    def test_capacity_upper_bound(self):
        rep = solve_capacity(1.5)
        assert rep.capacity_nats <= 0.5 * math.log(1 + 1.5**2) + 1e-6
        assert rep.capacity_nats >= 0.0

    def test_history_records_optimizer_stop(self):
        rep = solve_capacity(2.0)
        step = rep.history[-1]
        assert step.opt_iters >= 1
        assert "success" in step.opt_status
        d = step.to_dict()
        assert d["opt_iters"] == step.opt_iters
        assert d["opt_status"] == step.opt_status

    def test_start_sets_first_level(self):
        start = solve_capacity(4.0).input
        assert start.k == 4
        rep = solve_capacity(5.0, start=start)
        assert rep.history[0].k_tried == 4      # the cold solve starts at 3
        assert rep.converged and rep.k == solve_capacity(5.0).k
        capped = solve_capacity(5.0, SolveConfig(max_k=3), start=start)
        assert capped.history[0].k_tried == 3

    def test_max_k_exhaustion_flags_incomplete(self):
        rep = solve_capacity(5.0, SolveConfig(max_k=3))
        assert not rep.converged
        assert [h.k_tried for h in rep.history] == [3]

    def test_start_smaller_than_first_level(self):
        # the A = 1 input is one pair; scaled to A = 10 it leaves the first
        # level (K = 5, a centre and two pairs) a pair short with no KKT
        # violation to place it at, so that level starts cold and the whole
        # solve is the cold solve
        start = solve_capacity(1.0).input
        assert start.k == 2
        rep = solve_capacity(10.0, start=start)
        cold = solve_capacity(10.0)
        assert [h.k_tried for h in cold.history] == [5, 7, 9, 11]
        assert rep.history == cold.history
        assert rep.converged and rep.k == cold.k == 11
        assert rep.input == cold.input
        assert rep.capacity_nats == cold.capacity_nats

    def test_each_level_samples_log_f_once_after_slsqp(self, monkeypatch):
        # log f is sampled once per objective call and once per level, by the
        # level's KKT scan, which also gives the level's I
        import acawgn.inputs as inputs
        import acawgn.solver as solver

        counts = {"_samples": 0, "_objective": 0}

        def counted(module, name):
            real = getattr(module, name)

            def call(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, call)

        counted(inputs, "_samples")
        counted(solver, "_objective")
        rep = solve_capacity(8.0)
        assert rep.converged and len(rep.history) == 3
        assert counts["_samples"] == counts["_objective"] + len(rep.history)

    @pytest.mark.parametrize("A, K, most", [(12.0, 13, 100), (20.0, 23, 300)],
                             ids=["A12", "A20"])
    def test_cold_solve_iteration_budget(self, A, K, most):
        # SLSQP measures pair locations in units of 1/K (see _pg_maximize);
        # in the raw coordinates these solves took 144 and 544 iterations
        rep = solve_capacity(A)
        assert rep.converged and rep.k == K
        assert sum(h.opt_iters for h in rep.history) <= most

    @pytest.mark.parametrize(
        "A, K, C, ladder",
        [(8.0, 9, 1.5758716926530236, [5, 7, 9]),
         (12.0, 13, 1.912608933896204, [7, 9, 11, 13])],
        ids=["A8", "A12"],
    )
    def test_one_warm_started_slsqp_per_level(self, monkeypatch, A, K, C, ladder):
        import acawgn.solver as solver

        calls = []   # (K, init, solved input) per solve_fixed_k call
        real = solver.solve_fixed_k

        def counted(A_, K_, init=None, **kwargs):
            out = real(A_, K_, init=init, **kwargs)
            calls.append((K_, init, out[0]))
            return out

        monkeypatch.setattr(solver, "solve_fixed_k", counted)
        rep = solve_capacity(A)
        assert rep.converged
        assert rep.k == K
        assert abs(rep.capacity_nats - C) <= 1e-9
        assert [h.k_tried for h in rep.history] == ladder
        assert [k for k, _, _ in calls] == ladder
        # equispaced first level; every later level starts from the one before
        assert calls[0][1] is None
        assert all(now[1] is before[2] for before, now in zip(calls, calls[1:]))

    def test_solve_runs_no_adaptive_quadrature(self, monkeypatch):
        import acawgn.numerics as numerics

        def refuse(*args, **kwargs):
            raise AssertionError("adaptive quadrature called during a solve")

        monkeypatch.setattr(numerics, "_eval_panels", refuse)
        rep = solve_capacity(8.0)
        assert rep.converged
        assert rep.k == 9
        assert abs(rep.capacity_nats - 1.5758716926530236) <= 1e-9

    def test_support_count_matches_blahut_arimoto_at_a3(self):
        # independent route: dense-grid Blahut-Arimoto with mass clustering
        from oracles import blahut_arimoto_capacity

        ba = blahut_arimoto_capacity(3.0)
        rep = solve_capacity(3.0)
        assert rep.converged
        assert rep.k == ba.support_count
        # BA underestimates the grid capacity by at most its duality gap
        assert abs(rep.capacity_nats - ba.capacity_nats) <= ba.duality_gap + 1e-4


class TestIndependentCapacityBrackets:
    """C(A) between brackets that QUADPACK and closed forms give, with no BA.

    None of the bracket values uses acawgn's quadrature.  They are coarse:
    they catch a wrong regime, a wrong sign or a broken density, not a 1e-9
    drift.
    """

    @pytest.mark.parametrize("A", [8.0, 20.0, 40.0])
    def test_uniform_mckellips_and_saddle_point_brackets(self, A):
        from oracles import quadpack_divergence_from_uniform, quadpack_uniform_information

        rep = solve_capacity(A)
        assert rep.converged
        C = rep.capacity_nats
        i_unif = quadpack_uniform_information(A)
        # the uniform input is feasible; McKellips (ISIT 2004) bounds C above
        assert i_unif <= C <= math.log1p(A * math.sqrt(2.0 / (math.pi * math.e)))
        # saddle point: averaging i(x) <= C + r_global over Unif[-A, A] gives
        # I_unif + D(f_unif || f*) <= C + r_global
        div = quadpack_divergence_from_uniform(A, *rep.input.as_arrays())
        assert div <= C + rep.kkt_global - i_unif
