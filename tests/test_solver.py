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
    """The gradient and Hessian the optimizer uses: ``_objective`` in the coordinates (x, v)."""

    def test_symmetric_input_antisymmetric_location_gradient(self):
        # the full-atom gradient of a symmetric input is antisymmetric in the
        # locations and symmetric in the weights; _objective sums i and i' at
        # the centre and the pairs x_j >= 0 only, and must equal the full
        # rows folded onto (x, v): one pair, two, and a pair at 0
        pi = DiscreteInput(A=2.0, locations=(-1.5, 0.0, 1.5), weights=(0.3, 0.4, 0.3))
        i_vec, d1 = _info_stats(pi.A, *pi.as_arrays(), pi.locations, 1)
        assert d1[0] == pytest.approx(-d1[2], abs=1e-10)
        assert abs(d1[1]) <= 1e-10
        assert i_vec[0] == pytest.approx(i_vec[2], abs=1e-10)
        for p in (_Param(2.0, np.array([1.5]), np.array([0.4, 0.3])),
                  _Param(3.0, np.array([0.7, 2.6]), np.array([0.2, 0.2, 0.2])),
                  _Param(3.0, np.array([0.0, 2.2]), np.array([0.1, 0.15, 0.3]))):
            locs, ws = p.expand()
            i_vec, d1 = _info_stats(p.A, locs, ws, locs, 1)
            raw, d_loc = i_vec + HALF_LOG_2PI_E - 1.0, ws * d1
            m = p.x.size
            pos, neg = slice(m + 1, None), slice(m - 1, None, -1)
            folded = np.concatenate([d_loc[pos] - d_loc[neg], raw[m:m + 1],
                                     raw[pos] + raw[neg]])
            got, grad, _ = _objective(p)
            # ws @ i_vec is mutual_information's sum (pi's, for the first p)
            assert abs(got - float(ws @ i_vec)) <= 1e-15
            assert grad == pytest.approx(folded, abs=1e-13)

    def test_optimal_binary_gradient_vanishes(self):
        # binary +-0.8 is optimal: the pair's weight gradient is that of I
        # itself, a multiple of c, so it vanishes in the tangent space; the
        # atom pushes outward against its box; the empty centre would lower
        # I (i(0) < I)
        binary = _Param(0.8, np.array([0.8]), np.array([0.0, 0.5]))
        info, grad, _ = _objective(binary)
        pi = DiscreteInput(A=0.8, locations=(-0.8, 0.8), weights=(0.5, 0.5))
        assert info == pytest.approx(mutual_information(pi), abs=1e-15)
        assert grad[0] > 0.0
        assert grad[2] == pytest.approx(2.0 * (info + HALF_LOG_2PI_E - 1.0), abs=1e-12)
        assert tangent_part(grad[1:], binary.weight_constraint())[0] < 0.0

    def test_finite_difference_agreement(self):
        # locations as they are; weights in the tangent space of c . v = 1,
        # where the objective's raw partials and the finite differences of the
        # returned I differ by log(2 pi e)/2 * c
        rng = np.random.default_rng(31)
        for _ in range(8):
            p = random_param(rng)
            _, grad, _ = _objective(p)
            fd = central_differences(lambda z: _objective(p.with_coords(z))[0],
                                     np.concatenate([p.x, p.v]), 1e-5)
            m, c = p.x.size, p.weight_constraint()
            assert np.max(np.abs(grad[:m] - fd[:m])) <= 1e-8
            assert np.max(np.abs(tangent_part(grad[m:] - fd[m:], c))) <= 1e-8
            assert grad[m:] - fd[m:] == pytest.approx(HALF_LOG_2PI_E * c, abs=1e-8)

    def test_hessian_matches_differences_of_the_gradient(self):
        # the Hessian is the Jacobian of the returned gradient in every
        # coordinate, weights off the simplex included; positive weights keep
        # log f away from the log(max(w, 1e-300)) clamp, and gaps below 2
        # keep the pitch fixed under the differences
        rng = np.random.default_rng(47)
        checked, largest = 0, 0.0
        while checked < 8:
            p = random_param(rng)
            if np.max(np.diff(p.expand()[0])) >= 2.0 or p.v.min() < 1e-3:
                continue
            _, _, hess = _objective(p)
            z = np.concatenate([p.x, p.v])
            # the five-point stencil, whose error at step 1e-4 is O(1e-16)
            # plus rounding near 1e-11
            fd = np.column_stack([
                sum(w * _objective(p.with_coords(z + s * 1e-4 * e))[1]
                    for s, w in ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))) / 12e-4
                for e in np.eye(z.size)
            ])
            assert np.max(np.abs(hess - hess.T)) <= 1e-14
            assert np.max(np.abs(hess - fd)) <= 1e-9
            checked, largest = checked + 1, max(largest, float(np.max(np.abs(hess))))
        assert largest >= 1.0


class TestSolveFixedK:
    def test_binary_small_amplitude(self):
        pi, converged, *_ = solve_fixed_k(0.8, 2)
        assert converged
        assert pi.locations == pytest.approx((-0.8, 0.8), abs=1e-6)
        assert pi.weights == pytest.approx((0.5, 0.5), abs=1e-7)

    def test_k3_collapses_to_binary(self):
        # the centre's weight goes to 0 and the emptied centre is pruned
        pi2, *_ = solve_fixed_k(0.8, 2)
        pi3, *_ = solve_fixed_k(0.8, 3)
        assert pi3.k == 2
        assert abs(mutual_information(pi3) - mutual_information(pi2)) <= 1e-15

    def test_single_point_carries_nothing(self):
        for A in (0.5, 3.0):
            pi, *_ = solve_fixed_k(A, 1)
            assert pi.k == 1
            assert abs(mutual_information(pi)) <= 1e-8

    def test_newton_reaches_the_a20_k25_optimum(self):
        # the exact optimum at A = 20 has 25 atoms (the eps = 1e-6 solve stops
        # at 23): from that solve's input plus a zero-weight pair at its worst
        # KKT violation, one K = 25 run reaches C(20) to rounding
        from acawgn.inputs import _kkt_scan

        pi = solve_capacity(20.0).input
        assert pi.k == 23
        out, *_ = solve_fixed_k(20.0, 25, init=pi, violation=_kkt_scan(pi)[2])
        assert out.k == 25
        assert abs(mutual_information(out) - 2.364833012118387) <= 1e-12

    def test_newton_reaches_recorded_a8_optimum(self):
        # the equispaced K = 9 start at A = 8; the value is the certified C(8)
        pi, converged, *_ = solve_fixed_k(8.0, 9)
        assert converged
        assert pi.k == 9
        assert abs(mutual_information(pi) - 1.5758716926530236) <= 1e-9

    def test_optimizer_output_is_feasible(self):
        # the raw optimizer output, before solve_fixed_k renormalizes its weights
        from dataclasses import replace

        from acawgn.solver import _initial_param, _pg_maximize

        A = 3.0
        rng = np.random.default_rng(5)
        for K in (4, 5):
            start = _initial_param(A, K)
            perturbed = replace(
                start,
                x=np.clip(start.x + rng.uniform(-0.3, 0.3, start.x.shape), 0.0, A),
                v=start.v * rng.uniform(0.5, 1.5, start.v.shape),
            )
            for p0 in (start, perturbed):
                p, info, _, _ = _pg_maximize(p0, [])
                assert abs(np.dot(p.weight_constraint(), p.v) - 1.0) <= 1e-10
                z = np.concatenate([p.x, p.v])
                assert np.all((0.0 <= z) & (z <= p.upper()))
                assert info > 0.0

    def test_optimizer_steps_stay_finite_from_degenerate_starts(self):
        # all mass on the centre with zero-weight pairs out to A: the weights'
        # curvature there reaches 1e19, where lambda_max + sigma rounds to
        # lambda_max; and a pair at 0 on the empty centre beside a pair on A
        import warnings

        from acawgn.solver import _pg_maximize

        causes = {"converged", "model gain below rounding", "trust region failed",
                  "iteration cap"}
        for p0 in (_Param(9.453558403854089, np.array([9.453558403854089, 8.216215105986633,
                                                       4.6128754081325996]),
                          np.array([0.06146387974613124, 0.0, 0.0, 0.0])),
                   _Param(3.0, np.array([0.0, 3.0]), np.array([0.0, 0.3, 0.2]))):
            stop = []
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                p, info, _, _ = _pg_maximize(p0, stop)
            assert stop[0][0] in causes
            assert abs(np.dot(p.weight_constraint(), p.v) - 1.0) <= 1e-10
            assert np.all(p.v >= 0.0) and np.all((0.0 <= p.x) & (p.x <= p.A))
            assert math.isfinite(info) and info >= 0.0

    def test_result_is_feasible(self):
        A = 3.0
        binary = DiscreteInput(A=A, locations=(-A, A), weights=(0.5, 0.5))
        centred = DiscreteInput(A=A, locations=(-A, 0.0, A), weights=(0.4, 0.2, 0.4))
        # the equispaced start, a warm start padded with a zero-weight pair,
        # and a centre mass at even K, which the capped centre weight drops
        for K, init in ((4, None), (5, binary), (2, centred)):
            pi, *_ = solve_fixed_k(A, K, init=init, violation=1.0)
            assert pi.k <= K
            locs, ws = pi.as_arrays()
            assert np.all(np.abs(locs) <= A)
            assert np.all(ws >= 0.0)
            assert ws.sum() == pytest.approx(1.0, abs=1e-12)
            assert mutual_information(pi) > 0.0

    def test_start_without_weight_the_level_can_hold_starts_equispaced(self):
        # an even level caps the centre at 0, so a centre-only init with a
        # zero-weight pair, or one whose pairs all weigh 0, keeps no weight
        import warnings

        A = 3.0
        empty_pairs = DiscreteInput(A=A, locations=(-1.0, 0.0, 1.0), weights=(0.0, 1.0, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cold = solve_fixed_k(A, 2)
            for init, violation in ((DiscreteInput(A, (0.0,), (1.0,)), 1.0), (empty_pairs, None)):
                assert solve_fixed_k(A, 2, init=init, violation=violation) == cold

    def test_iteration_cap_stops_the_run(self, monkeypatch):
        import acawgn.solver as solver

        monkeypatch.setattr(solver, "_MAX_STEPS", 3)
        _, converged, iters, status, evals = solve_fixed_k(8.0, 9)
        assert (converged, iters, status, evals) == (False, 3, "iteration cap", 5)

    def test_rejects_an_input_at_another_amplitude(self):
        # optimized on its own box [0, 5] and then clipped to [-3, 3], an A = 5
        # input would lose I (0.83698 against a cold run's 0.88136)
        at5 = solve_capacity(5.0).input
        with pytest.raises(ValueError):
            solve_fixed_k(3.0, 5, init=at5)
        assert solve_fixed_k(5.0, 5, init=at5)[0].A == 5.0

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
            SolveConfig(kkt_eps=math.inf)
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
        # every level of these solves converges; each step costs at least one
        # objective evaluation, and the start costs one more
        causes = {"converged", "model gain below rounding", "trust region failed",
                  "iteration cap"}
        for A in (2.0, 8.0):
            for step in solve_capacity(A).history:
                assert step.opt_status in causes
                assert step.opt_status == "converged"
                assert step.opt_iters >= 1
                assert step.opt_evals >= step.opt_iters + 1
                d = step.to_dict()
                assert (d["opt_iters"], d["opt_status"], d["opt_evals"]) == (
                    step.opt_iters, step.opt_status, step.opt_evals)

    def test_start_sets_first_level(self):
        start = solve_capacity(4.0).input
        assert start.k == 4
        rep = solve_capacity(5.0, start=start)
        assert rep.history[0].k_tried == 5      # odd; the cold solve starts at 3
        assert rep.converged and rep.k == solve_capacity(5.0).k
        capped = solve_capacity(5.0, SolveConfig(max_k=3), start=start)
        assert capped.history[0].k_tried == 3

    def test_max_k_exhaustion_flags_incomplete(self):
        rep = solve_capacity(5.0, SolveConfig(max_k=3))
        assert not rep.converged
        assert [h.k_tried for h in rep.history] == [3]
        # an even cap below the first odd level runs one even level, whose
        # centre stays empty, so the cap bounds the support
        for A, C in ((3.0, 0.6892979330290776), (5.0, 0.6931463173939845)):
            rep = solve_capacity(A, SolveConfig(max_k=2))
            assert not rep.converged
            assert [h.k_tried for h in rep.history] == [2]
            assert rep.k == 2 and rep.capacity_nats == C
        rep = solve_capacity(0.8, SolveConfig(max_k=2))
        assert rep.converged and rep.k == 2

    def test_start_smaller_than_first_level(self):
        # the A = 1 input is one pair; scaled to A = 10 it leaves the first
        # level (the ripple law's K = 11, a centre and five pairs) four pairs
        # short, so that level starts cold and the whole solve is the cold
        # solve
        start = solve_capacity(1.0).input
        assert start.k == 2
        rep = solve_capacity(10.0, start=start)
        cold = solve_capacity(10.0)
        assert [h.k_tried for h in cold.history] == [11]
        assert rep.history == cold.history
        assert rep.converged and rep.k == cold.k == 11
        assert rep.input == cold.input
        assert rep.capacity_nats == cold.capacity_nats

    def test_each_level_samples_log_f_once(self, monkeypatch):
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
        rep = solve_capacity(12.5)
        assert rep.converged and len(rep.history) == 3
        assert counts["_samples"] == counts["_objective"] + len(rep.history)

    @pytest.mark.parametrize("A, K, most, most_evals", [(12.0, 13, 24, 17), (20.0, 23, 42, 47)],
                             ids=["A12", "A20"])
    def test_cold_solve_iteration_budget(self, A, K, most, most_evals):
        # these solves take 10 and 29 steps, and 13 and 36 objective
        # evaluations: the evaluations are bounded at about 1.3 times that
        rep = solve_capacity(A)
        assert rep.converged and rep.k == K
        assert sum(h.opt_iters for h in rep.history) <= most
        assert sum(h.opt_evals for h in rep.history) <= most_evals

    @pytest.mark.parametrize(
        "A, K, C, ladder",
        [(2.0, 3, 0.6528688117804498, [3]),
         (5.0, 5, 1.2188311884030392, [5]),
         (8.0, 9, 1.5758716926530236, [9]),
         (12.0, 13, 1.912608933896204, [13]),
         (12.5, 14, 1.9477228332121932, [15, 17, 19])],
        ids=["A2", "A5", "A8", "A12", "A12.5"],
    )
    def test_one_warm_started_newton_run_per_level(self, monkeypatch, A, K, C, ladder):
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

    def test_ripple_law_sets_the_large_amplitude_levels(self, monkeypatch):
        # at large A a level's deficit is the ripple of its bulk comb: with d
        # the atom spacing there, r_global ~ 4 exp(-4 pi^2 / d^2), and i(x)
        # peaks midway between two atoms (see SolveConfig.max_k_for)
        import acawgn.solver as solver

        levels = []   # (input, r_global, x_viol) per level
        real = solver._kkt_scan

        def recorded(pi):
            out = real(pi)
            levels.append((np.array(pi.locations), out[1], out[2]))
            return out

        monkeypatch.setattr(solver, "_kkt_scan", recorded)
        # below eps = 1e-6 the walk climbs from the Dytso bound, through the
        # levels that a default solve skips
        assert solve_capacity(40.0, SolveConfig(kkt_eps=1e-7)).converged
        ripple = [lv for lv in levels if 1e-9 < lv[1] < 1e-2]
        assert len(ripple) >= 6
        inv_d2 = [np.median(np.diff(locs[np.abs(locs) <= 20.0])) ** -2 for locs, _, _ in ripple]
        slope = np.polyfit(inv_d2, [math.log(r) for _, r, _ in ripple], 1)[0]
        assert slope == pytest.approx(-4.0 * math.pi**2, rel=0.01)
        for locs, _, x in ripple[-4:]:
            j = np.searchsorted(locs, x)
            assert abs(x - 0.5 * (locs[j - 1] + locs[j])) <= 0.1

    @pytest.mark.parametrize("A, K0", [(5.0, 5), (8.0, 9), (12.0, 13), (40.0, 49)])
    def test_walk_starts_at_the_ripple_level(self, A, K0):
        # the largest odd K <= 2A/d, where the comb spacing d = 2 pi/sqrt(ln(4/eps))
        # has a ripple 4 exp(-4 pi^2/d^2) of eps
        d = 2.0 * math.pi / math.sqrt(math.log(4.0 / 1e-6))
        assert K0 % 2 == 1 and K0 <= 2.0 * A / d < K0 + 2
        rep = solve_capacity(A)
        assert rep.converged and rep.history[0].k_tried == K0

    @pytest.mark.parametrize("A, K", [(40.0, 49), (80.0, 99)])
    def test_large_amplitudes_certify_within_three_levels(self, A, K):
        rep = solve_capacity(A)
        assert rep.converged and rep.k == K
        assert len(rep.history) <= 3

    def test_walk_below_1e6_starts_at_the_dytso_bound(self):
        # the first odd K above the bound, 9.73; the ripple level would be 27
        rep = solve_capacity(20.0, SolveConfig(kkt_eps=1e-8))
        assert 9.0 < dytso_lower_bound(20.0) < 10.0
        assert rep.history[0].k_tried == 11

    def test_flat_ridge_row_at_1e8(self):
        # on the optimum's flat ridges the step rule decides the level: a 0.1
        # acceptance threshold certified K = 23 here, with C 6.6e-12 lower
        rep = solve_capacity(18.0, SolveConfig(kkt_eps=1e-8))
        assert rep.converged and rep.k == 22
        assert abs(rep.capacity_nats - 2.2694810135422574) <= 1e-12

    def test_eps_above_every_ripple_starts_at_the_dytso_bound(self):
        # at eps >= 4 the ripple law bounds no level
        rep = solve_capacity(5.0, SolveConfig(kkt_eps=10.0))
        assert rep.converged and [h.k_tried for h in rep.history] == [3]

    def test_max_k_below_the_ripple_level_caps_the_first_level(self):
        # the ripple level at A = 12 is 13; an even cap runs with an empty centre
        for cap in (9, 10):
            rep = solve_capacity(12.0, SolveConfig(max_k=cap))
            assert [h.k_tried for h in rep.history] == [cap]
            assert not rep.converged and rep.k <= cap

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
        # (2.7e-5 after 9791 over-relaxed iterations; C differs by 8.0e-6)
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


class TestEqualizationByQuadpack:
    @pytest.mark.parametrize("A", [8.0, 12.0])
    def test_every_atom_is_equalized_to_1e10(self, A):
        # i(x_j) by QUADPACK, not by the trapezoid sums of the solve: the
        # optimizer's stationary point holds i(x_j) = C on the support to
        # about 1e-13
        from oracles import log_mixture_pdf, phi, quad_oracle

        rep = solve_capacity(A)
        assert rep.converged
        locs, ws = rep.input.as_arrays()
        for x in locs:
            integral = quad_oracle(lambda y: phi(y - x) * log_mixture_pdf(locs, ws, y),
                                   x - 12.0, x + 12.0, points=[x])
            assert abs(-HALF_LOG_2PI_E - integral - rep.capacity_nats) <= 1e-10
