import math

import numpy as np
import pytest

import lvfte.ode as ode_mod
from lvfte import (
    ComparisonOde,
    HarvestParams,
    IntegrateOptions,
    InvalidParameter,
    KineticParams,
    NumericalError,
    Species,
    StepLimitReached,
    StepSizeUnderflow,
    State2,
    classify_basin,
    comparison_extinction_time,
    comparison_solution,
    fte_threshold,
    integrate,
    predict_fte,
)

FTE_CERTIFIED = KineticParams(a1=1.8, b1=1, c1=0.5, a2=3, b2=1, c2=1.8, p=0.4, q=1.0)
WEAK = KineticParams(a1=1, b1=1, c1=0.3, a2=2, b2=1, c2=1.8)
STRONG_SYMMETRIC = KineticParams(a1=1, b1=1, c1=2, a2=1, b2=1, c2=2)

MIXED = KineticParams(a1=1.8, b1=1, c1=0.5, a2=3, b2=1, c2=1.8, p=1.0, q=0.3)

HARVEST = HarvestParams(
    base=KineticParams(a1=1.8, b1=1, c1=0.5, a2=3, b2=1, c2=1.7, p=1.0, q=0.1),
    d=0.45,
    e=0.55,
)


def logistic(a, b, u0, t):
    e = math.exp(a * t)
    return a * u0 * e / (a + b * u0 * (e - 1.0))


class TestIntegrate:
    def test_single_species_matches_logistic_closed_form(self):
        # v(0) = 0 stays 0, so u follows the scalar logistic exactly
        k = KineticParams(a1=1.3, b1=0.7, c1=1, a2=1, b2=1, c2=1)
        traj = integrate(k, State2(0.05, 0.0), 8.0)
        for t, s in traj.samples:
            assert s.v == 0.0
            assert s.u == pytest.approx(logistic(1.3, 0.7, 0.05, t), rel=1e-7)

    def test_samples_nonnegative_and_times_increasing(self):
        traj = integrate(FTE_CERTIFIED, State2(0.5, 10.0), 50.0)
        times = [t for t, _ in traj.samples]
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        for _, s in traj.samples:
            assert s.u >= 0.0 and s.v >= 0.0

    def test_extinction_event_recorded_and_state_clamped(self):
        traj = integrate(FTE_CERTIFIED, State2(0.5, 10.0), 100.0)
        assert len(traj.events) == 1
        event = traj.events[0]
        assert event.species is Species.U
        assert event.t_star > 0.0
        # u is identically zero from the event on
        for t, s in traj.samples:
            if t >= event.t_star:
                assert s.u == 0.0

    def test_certified_run_terminates_at_v_axis_sink(self):
        traj = integrate(FTE_CERTIFIED, State2(0.5, 10.0), 200.0)
        assert traj.terminal is not None
        assert traj.terminal.name == "v-axis"
        assert traj.terminal.point == pytest.approx((0.0, 3.0), abs=1e-6)

    def test_start_near_sink_locks_immediately(self):
        den = 1 - 0.3 * 1.8
        sink = State2((1 - 0.6) / den, (2 - 1.8) / den)
        traj = integrate(WEAK, State2(sink.u + 1e-8, sink.v), 10.0)
        assert traj.terminal is not None
        assert traj.terminal.name == "interior"
        assert traj.terminal.point == pytest.approx(tuple(sink), abs=1e-5)

    def test_rejects_negative_initial_state(self):
        with pytest.raises(InvalidParameter):
            integrate(WEAK, State2(-0.1, 0.5), 1.0)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(InvalidParameter):
            integrate(WEAK, State2(0.5, 0.5), 0.0)


def mirrored(k: KineticParams) -> KineticParams:
    return KineticParams(a1=k.a2, a2=k.a1, b1=k.b2, b2=k.b1, c1=k.c2, c2=k.c1, p=k.q, q=k.p)


class TestEventTimes:
    def test_certified_event_times_match_a_converged_reference(self):
        # criterion-3-style draws against DOP853 at rtol 1e-12, atol 1e-14,
        # stopped where u crosses EPS_EXT downward; that reference moves by
        # under 1e-9 when its tolerances are tightened further
        from scipy.integrate import solve_ivp

        k = FTE_CERTIFIED

        def field(t, y):
            u, v = y
            return [
                k.a1 * u - k.b1 * u * u - k.c1 * max(u, 0.0) ** k.p * v,
                k.a2 * v - k.b2 * v * v - k.c2 * u * v,
            ]

        def crossing(t, y):
            return y[0] - ode_mod.EPS_EXT

        crossing.terminal, crossing.direction = True, -1
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(100):
            u0 = float(rng.uniform(0.01, 1.8))
            v0 = fte_threshold(k, u0) * float(rng.uniform(1.02, 1.5))
            ref = solve_ivp(
                field, (0.0, 200.0), [u0, v0], method="DOP853", rtol=1e-12, atol=1e-14,
                events=crossing,
            ).t_events[0][0]
            traj = integrate(k, State2(u0, v0), 200.0)
            assert [ev.species for ev in traj.events] == [Species.U], (u0, v0)
            worst = max(worst, abs(traj.events[0].t_star - ref) / ref)
        assert worst <= 1e-8

    @pytest.mark.parametrize(
        "params, u0, v0",
        [
            (FTE_CERTIFIED, 0.5, 10.0),
            (FTE_CERTIFIED, 0.05, 3.5),
            (FTE_CERTIFIED, 1.7, 20.0),
            (MIXED, 1.13231211, 0.7),
            (MIXED, 1.13231211, 2.0),
        ],
        ids=["certified", "certified-small-u", "certified-large-u", "mixed-below", "mixed-above"],
    )
    def test_mirrored_run_is_the_same_computation(self, params, u0, v0):
        # swapping u with v and a1<->a2, b1<->b2, c1<->c2, p<->q swaps the event
        # species and mirrors the terminal point, so the u-side and v-side
        # carried coordinates are one computation
        swap = {Species.U: Species.V, Species.V: Species.U}
        run = integrate(params, State2(u0, v0), 400.0)
        mirror = integrate(mirrored(params), State2(v0, u0), 400.0)
        assert [swap[ev.species] for ev in mirror.events] == [ev.species for ev in run.events]
        for ev, mev in zip(run.events, mirror.events):
            assert mev.t_star == pytest.approx(ev.t_star, rel=1e-10)
        names = {"u-axis": "v-axis", "v-axis": "u-axis", "interior": "interior"}
        assert run.terminal is not None and mirror.terminal is not None
        assert names[mirror.terminal.name] == run.terminal.name
        assert tuple(reversed(mirror.terminal.point)) == pytest.approx(
            tuple(run.terminal.point), abs=1e-12
        )
        assert len(mirror.samples) == len(run.samples)


class TestClassifyBasin:
    def test_bistable_split_by_initial_side(self):
        above = classify_basin(STRONG_SYMMETRIC, State2(0.2, 0.4), 400.0)
        below = classify_basin(STRONG_SYMMETRIC, State2(0.4, 0.2), 400.0)
        assert above.name == "v-axis"
        assert above.point == pytest.approx((0.0, 1.0), abs=1e-5)
        assert below.name == "u-axis"
        assert below.point == pytest.approx((1.0, 0.0), abs=1e-5)

    def test_diagonal_data_approaches_the_interior_saddle(self):
        # u = v is invariant under the symmetric parameters; the saddle only
        # locks on an exact hit, so the verdict stays undecided while the
        # state parks next to it
        res = classify_basin(STRONG_SYMMETRIC, State2(0.1, 0.1), 400.0)
        assert res.name == "undecided"
        assert res.point == pytest.approx((1 / 3, 1 / 3), abs=1e-8)
        assert res.point.u == res.point.v

    def test_short_horizon_reports_undecided(self):
        res = classify_basin(STRONG_SYMMETRIC, State2(0.2, 0.4), 1e-3)
        assert res.name == "undecided"

    def test_requires_strictly_positive_start(self):
        with pytest.raises(InvalidParameter):
            classify_basin(STRONG_SYMMETRIC, State2(0.0, 0.4), 10.0)


class TestFteThreshold:
    def test_coefficient_value(self):
        # (a1*c2 + (1-p)*a1*b1) / ((1-p)*c1*b1) = 4.32 / 0.3 = 14.4
        assert fte_threshold(FTE_CERTIFIED, 1.0) == pytest.approx(14.4, rel=1e-12)

    def test_power_law_shape(self):
        f1 = fte_threshold(FTE_CERTIFIED, 0.5)
        assert f1 == pytest.approx(14.4 * 0.5**0.6, rel=1e-12)

    def test_certificate_is_the_strict_inequality(self):
        u0 = 0.5
        v_edge = fte_threshold(FTE_CERTIFIED, u0)
        assert predict_fte(FTE_CERTIFIED, State2(u0, v_edge * 1.001))
        assert not predict_fte(FTE_CERTIFIED, State2(u0, v_edge * 0.999))
        assert not predict_fte(FTE_CERTIFIED, State2(u0, v_edge))

    def test_requires_fractional_p_and_unit_q(self):
        smooth = KineticParams(a1=1.8, b1=1, c1=0.5, a2=3, b2=1, c2=1.8)
        with pytest.raises(InvalidParameter):
            fte_threshold(smooth, 0.5)
        mixed_q = KineticParams(a1=1.8, b1=1, c1=0.5, a2=3, b2=1, c2=1.8, p=0.4, q=0.9)
        with pytest.raises(InvalidParameter):
            fte_threshold(mixed_q, 0.5)

    def test_initial_u_range_enforced(self):
        with pytest.raises(InvalidParameter):
            predict_fte(FTE_CERTIFIED, State2(0.0, 5.0))
        with pytest.raises(InvalidParameter):
            predict_fte(FTE_CERTIFIED, State2(1.9, 5.0))


class TestComparisonOde:
    def test_solution_at_time_zero_is_g0(self):
        c = ComparisonOde(C4=1.0, C5=0.5, C2=0.8, alpha=0.4, g0=0.7)
        assert comparison_solution(c, 0.0) == pytest.approx(0.7, rel=1e-14)

    def test_ode_satisfied_by_closed_form(self):
        # central difference of g against -C4*exp(-C6*t)*g^alpha
        c = ComparisonOde(C4=1.0, C5=0.5, C2=0.8, alpha=0.4, g0=2.0)
        for t in (0.1, 0.5, 1.5, 3.0):
            g = comparison_solution(c, t)
            if g == 0.0:
                continue
            eps = 1e-6
            dg = (comparison_solution(c, t + eps) - comparison_solution(c, t - eps)) / (
                2 * eps
            )
            expected = -c.C4 * math.exp(-c.C6 * t) * g**c.alpha
            assert dg == pytest.approx(expected, rel=1e-7)

    def test_extinction_time_zero_for_empty_start(self):
        c = ComparisonOde(C4=1.0, C5=0.5, C2=0.8, alpha=0.4, g0=0.0)
        assert comparison_extinction_time(c) == 0.0

    def test_large_start_never_goes_extinct(self):
        c = ComparisonOde(C4=0.1, C5=2.0, C2=2.0, alpha=0.5, g0=5.0)
        assert comparison_extinction_time(c) is None
        assert comparison_solution(c, 100.0) > 0.0

    def test_small_start_hits_zero_at_the_predicted_time(self):
        c = ComparisonOde(C4=2.0, C5=0.3, C2=0.5, alpha=0.5, g0=0.2)
        t_star = comparison_extinction_time(c)
        assert t_star is not None and t_star > 0.0
        assert comparison_solution(c, t_star * (1 - 1e-6)) > 0.0
        assert comparison_solution(c, t_star) == pytest.approx(0.0, abs=1e-7)
        assert comparison_solution(c, t_star * 1.5) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            ComparisonOde(C4=-1.0, C5=0.5, C2=0.8, alpha=0.4, g0=0.7)
        with pytest.raises(InvalidParameter):
            ComparisonOde(C4=1.0, C5=0.5, C2=0.8, alpha=1.0, g0=0.7)
        with pytest.raises(InvalidParameter):
            ComparisonOde(C4=1.0, C5=0.5, C2=0.8, alpha=0.4, g0=-0.1)


class TestHarvestDynamics:
    def test_large_data_settles_at_coexistence(self):
        # cross-checked against scipy.integrate.solve_ivp (DOP853, rtol 1e-12)
        traj = integrate(HARVEST, State2(1.5, 2.0), 400.0)
        assert traj.terminal is not None
        assert traj.terminal.name == "steady"
        assert traj.terminal.point == pytest.approx(
            (0.9609617, 1.6780766), abs=1e-5
        )
        assert not traj.events

    def test_small_data_loses_v_in_finite_time(self):
        # the v^q harvest drain dominates at low density
        traj = integrate(HARVEST, State2(0.2, 0.1), 400.0)
        assert [ev.species for ev in traj.events] == [Species.V]
        assert traj.events[0].t_star == pytest.approx(0.187, abs=5e-3)
        assert traj.final_state.v == 0.0
        assert traj.final_state.u == pytest.approx(1.8, abs=1e-6)

    def test_bistability_is_initial_data_dependent(self):
        big = integrate(HARVEST, State2(1.5, 2.0), 400.0).final_state
        small = integrate(HARVEST, State2(0.2, 0.1), 400.0).final_state
        assert big.v > 1.0 and small.v == 0.0


class TestTolerances:
    @pytest.mark.parametrize(
        "rtol, atol",
        [(0.0, 1e-12), (1e-9, 0.0), (-1e-9, 1e-12), (math.nan, 1e-12), (1e-9, math.inf)],
    )
    def test_bad_tolerances_are_invalid_parameters(self, rtol, atol):
        with pytest.raises(InvalidParameter, match="tol must be positive and finite"):
            integrate(FTE_CERTIFIED, State2(0.5, 10.0), 10.0, IntegrateOptions(rtol=rtol, atol=atol))

    def test_unreachable_tolerance_is_a_numerical_error(self):
        # the scaled error overflows a float; the step is rejected until it underflows
        with pytest.raises(StepSizeUnderflow):
            integrate(
                FTE_CERTIFIED, State2(0.5, 10.0), 10.0, IntegrateOptions(rtol=1e-300, atol=1e-300)
            )


class TestStepAccounting:
    def test_max_steps_raises_with_the_partial_trajectory(self):
        with pytest.raises(StepLimitReached) as info:
            integrate(FTE_CERTIFIED, State2(0.5, 0.5), 200.0, IntegrateOptions(max_steps=50))
        assert isinstance(info.value, NumericalError)
        partial = info.value.trajectory
        assert partial.terminal is None
        assert 0.0 < partial.samples[-1][0] < 200.0

    @pytest.mark.parametrize("max_steps", [0, -1])
    def test_nonpositive_max_steps_is_an_invalid_parameter(self, max_steps):
        # a budget below one step is bad input, not a numerical failure
        with pytest.raises(InvalidParameter, match="max_steps must be at least 1"):
            integrate(FTE_CERTIFIED, State2(0.5, 0.5), 200.0, IntegrateOptions(max_steps=max_steps))

    def test_rhs_calls_per_accepted_step(self, monkeypatch):
        # Dormand-Prince is first-same-as-last: an attempt costs six new stages;
        # the first stage is evaluated only at t = 0 and after the event, and
        # a stage past the zero crossing of x = u^(1-p) costs one more call for
        # its reflection.  The event time is a root of the step's dense output,
        # which calls nothing.  This run (the ode_extinction_event recipe) makes
        # 110 attempts (109 accepted, 1 rejected) and reflects 6 stages, 6.13
        # calls per accepted step.  Stepping in u itself took 184 accepted steps
        # and a 15-trial bisection of the event, 7.20 calls per step.
        counts = {"rhs": 0, "attempts": 0}
        rhs, dp45 = ode_mod.rhs, ode_mod._dp45

        def counting_rhs(*args):
            counts["rhs"] += 1
            return rhs(*args)

        def counting_dp45(*args):
            counts["attempts"] += 1
            return dp45(*args)

        monkeypatch.setattr(ode_mod, "rhs", counting_rhs)
        monkeypatch.setattr(ode_mod, "_dp45", counting_dp45)
        traj = integrate(FTE_CERTIFIED, State2(0.5, 10.0), 200.0)
        assert [ev.species for ev in traj.events] == [Species.U]
        accepted = len(traj.samples) - 1  # the event point replaces its step's sample
        assert (accepted, counts["attempts"], counts["rhs"]) == (109, 110, 668)
        assert counts["rhs"] == 6 * counts["attempts"] + 2 + 6
        assert counts["rhs"] / accepted <= 7.21


class TestEquilibriumMemo:
    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        original = ode_mod.all_equilibria

        def counting(params):
            calls.append(params)
            return original(params)

        monkeypatch.setattr(ode_mod, "all_equilibria", counting)
        ode_mod._known_equilibria.cache_clear()
        yield calls
        ode_mod._known_equilibria.cache_clear()

    def test_equal_parameter_values_share_one_equilibrium_scan(self, scans):
        first = KineticParams(a1=1.8, b1=1, c1=0.5, a2=3, b2=1, c2=1.8, p=0.4, q=1.0)
        second = KineticParams(a1=1.8, b1=1, c1=0.5, a2=3, b2=1, c2=1.8, p=0.4, q=1.0)
        assert first is not second and first == second
        for params in (first, second):
            traj = integrate(params, State2(0.5, 10.0), 200.0)
            assert traj.terminal is not None and traj.terminal.name == "v-axis"
        assert len(scans) == 1

    def test_a_failed_scan_is_not_remembered(self, scans, monkeypatch):
        counting = ode_mod.all_equilibria

        def failing(params):
            counting(params)
            raise NumericalError("scan failed")

        monkeypatch.setattr(ode_mod, "all_equilibria", failing)
        with pytest.raises(NumericalError, match="scan failed"):
            integrate(WEAK, State2(0.5, 0.5), 500.0)
        monkeypatch.setattr(ode_mod, "all_equilibria", counting)
        traj = integrate(WEAK, State2(0.5, 0.5), 500.0)
        assert traj.terminal is not None and traj.terminal.name == "interior"
        assert len(scans) == 2


@pytest.mark.parametrize(
    "params, u, v",
    [
        (KineticParams(a1=1, b1=1, c1=0.3, a2=2, b2=1, c2=1.8, p=1.0, q=0.5), 0.3, 0.7),
        (KineticParams(a1=1, b1=1, c1=0.3, a2=2, b2=1, c2=1.8, p=0.4, q=1.0), 0.3, 0.7),
        (FTE_CERTIFIED, -1e-9, 2.5),
        (WEAK, -1e-9, 0.25),
    ],
    ids=["p=1", "q=1", "negative-u", "negative-u-unit-exponents"],
)
def test_rhs_takes_a_plain_pair(params, u, v):
    pair, state = ode_mod.rhs(params, (u, v)), ode_mod.rhs(params, State2(u, v))
    assert isinstance(pair, State2)
    assert [x.hex() for x in pair] == [x.hex() for x in state]
