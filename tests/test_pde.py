import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded

import lvfte.pde as lvfte_pde
from lvfte.kinetics import safe_pow_arr
from lvfte import (
    COEXIST,
    UNDECIDED,
    U_WINS,
    V_WINS,
    CflViolation,
    Grid1D,
    InvalidParameter,
    KineticParams,
    NonConvergence,
    PdeOptions,
    PdeOutcome,
    PdeParams,
    PdeState,
    ResourceField,
    State2,
    check_recovery_conditions,
    initial_state_for_policy,
    integrate,
    laplacian_neumann,
    scan_diffusion,
    simulate_pde,
    single_species_steady_state,
)

EXCLUSION = KineticParams(a1=1.8, b1=1, c1=0.5, a2=3, b2=1, c2=1.8)
WEAK = KineticParams(a1=1, b1=1, c1=0.3, a2=2, b2=1, c2=1.8)
RECOVERY = KineticParams(a1=1.1, b1=1, c1=1.2, a2=1, b2=1, c2=2, p=0.1, q=1.0)


def logistic_resource(grid):
    x = grid.centers()
    return ResourceField(grid, x * (1.0 - x))


class TestGrid1D:
    def test_centers_are_cell_midpoints(self):
        g = Grid1D(0.0, 1.0, 8)
        xs = g.centers()
        assert xs[0] == pytest.approx(1 / 16)
        assert xs[-1] == pytest.approx(15 / 16)
        assert g.dx == pytest.approx(1 / 8)
        assert g.length == pytest.approx(1.0)

    def test_rejects_tiny_or_inverted_domains(self):
        with pytest.raises(InvalidParameter):
            Grid1D(0.0, 1.0, 4)
        with pytest.raises(InvalidParameter):
            Grid1D(1.0, 0.0, 32)


class TestLaplacian:
    def test_annihilates_constants(self):
        g = Grid1D(0.0, 1.0, 32)
        w = np.full(32, 2.7)
        assert np.all(laplacian_neumann(w, g.dx) == 0.0)

    def test_conserves_mass(self):
        # zero-flux boundaries: column sums of the operator vanish
        rng = np.random.default_rng(7)
        g = Grid1D(0.0, 1.0, 64)
        w = rng.uniform(0.0, 3.0, 64)
        assert abs(laplacian_neumann(w, g.dx).sum()) < 1e-10 / g.dx**2 * 1e-6

    def test_discrete_cosine_eigenfunction(self):
        # cos(pi x / L) at cell centers is an exact eigenvector of the
        # discrete operator with eigenvalue -4 sin^2(pi dx / 2L) / dx^2
        g = Grid1D(0.0, 1.0, 128)
        xs = g.centers()
        w = np.cos(np.pi * xs)
        lam = -4.0 * math.sin(math.pi * g.dx / 2.0) ** 2 / g.dx**2
        assert laplacian_neumann(w, g.dx) == pytest.approx(lam * w, abs=1e-11)

    def test_eigenvalue_approaches_continuum(self):
        g = Grid1D(0.0, 1.0, 256)
        lam = -4.0 * math.sin(math.pi * g.dx / 2.0) ** 2 / g.dx**2
        assert abs(lam - (-math.pi**2)) < 1e-3 * math.pi**2


class TestFieldsAndParams:
    def test_resource_rejects_bad_values(self):
        g = Grid1D(0.0, 1.0, 16)
        with pytest.raises(InvalidParameter):
            ResourceField(g, np.full(16, -0.1))
        with pytest.raises(InvalidParameter):
            ResourceField(g, np.full(15, 0.5))
        with pytest.raises(InvalidParameter):
            ResourceField(g, np.full(16, float("nan")))

    def test_resource_values_are_read_only(self):
        g = Grid1D(0.0, 1.0, 16)
        rf = ResourceField(g, np.full(16, 0.5))
        with pytest.raises(ValueError):
            rf.values[0] = 1.0

    def test_params_need_exactly_one_mode(self):
        g = Grid1D(0.0, 1.0, 16)
        m = logistic_resource(g)
        PdeParams(d1=1.0, d2=0.5, kinetics=EXCLUSION)
        PdeParams(d1=1.0, d2=0.5, b=0.999, c=0.999, p=1.0, m=m)
        with pytest.raises(InvalidParameter):
            PdeParams(d1=1.0, d2=0.5)
        with pytest.raises(InvalidParameter):
            PdeParams(d1=1.0, d2=0.5, kinetics=EXCLUSION, b=0.999, c=0.999, p=1.0, m=m)

    def test_state_fields_validated(self):
        g = Grid1D(0.0, 1.0, 16)
        with pytest.raises(InvalidParameter):
            PdeState(g, np.full(16, -0.2), np.full(16, 0.5))
        with pytest.raises(InvalidParameter):
            PdeState(g, np.full(16, float("inf")), np.full(16, 0.5))
        with pytest.raises(InvalidParameter):
            PdeState(g, np.full(8, 0.5), np.full(16, 0.5))


class TestSingleSpeciesSteadyState:
    def test_constant_resource_gives_constant_state(self):
        g = Grid1D(0.0, 1.0, 32)
        m = ResourceField(g, np.full(32, 1.3))
        theta = single_species_steady_state(0.01, m)
        assert theta == pytest.approx(np.full(32, 1.3), abs=1e-7)

    def test_discrete_steady_equation_residual(self):
        g = Grid1D(0.0, 1.0, 64)
        m = logistic_resource(g)
        for d in (1e-4, 1e-3, 1e-2):
            theta = single_species_steady_state(d, m)
            resid = d * laplacian_neumann(theta, g.dx) + theta * (m.values - theta)
            assert np.max(np.abs(resid)) < 1e-7, d

    def test_profile_bounded_by_resource_range(self):
        g = Grid1D(0.0, 1.0, 64)
        m = logistic_resource(g)
        theta = single_species_steady_state(1e-3, m)
        assert np.all(theta >= 0.0)
        assert np.max(theta) <= np.max(m.values) + 1e-9

    def test_large_diffusion_flattens_toward_mean(self):
        g = Grid1D(0.0, 1.0, 64)
        m = logistic_resource(g)
        theta = single_species_steady_state(10.0, m)
        assert np.max(theta) - np.min(theta) < 1e-3


class TestSimulatePde:
    def test_spatially_constant_run_tracks_the_ode(self):
        # no gradients means diffusion is inert; fields follow the kinetics
        g = Grid1D(0.0, 1.0, 32)
        params = PdeParams(d1=0.3, d2=0.7, kinetics=WEAK)
        init = PdeState(g, np.full(32, 0.5), np.full(32, 0.5))
        t_check = 10.0
        opts = PdeOptions(dt=0.002, snapshot_times=(t_check,), check_interval=50.0)
        snapshots, _ = simulate_pde(params, init, 20.0, opts)
        snap = dict((round(t, 9), s) for t, s in snapshots)[t_check]
        assert np.ptp(snap.u) < 1e-12 and np.ptp(snap.v) < 1e-12
        ref = integrate(WEAK, State2(0.5, 0.5), t_check).final_state
        assert snap.u[0] == pytest.approx(ref.u, abs=1e-6)
        assert snap.v[0] == pytest.approx(ref.v, abs=1e-6)

    def test_exclusion_kinetics_yield_u_wins(self):
        g = Grid1D(0.0, 1.0, 32)
        params = PdeParams(d1=0.01, d2=0.02, kinetics=EXCLUSION)
        x = g.centers()
        init = PdeState(g, 0.5 + 0.1 * np.cos(np.pi * x), np.full(32, 0.5))
        _, outcome = simulate_pde(params, init, 2000.0, PdeOptions(dt=0.01))
        assert outcome.label == U_WINS
        assert not outcome.fte_v  # smooth kinetics: decay, not finite-time zero
        assert outcome.t_reached < 2000.0

    def test_weak_kinetics_yield_coexist(self):
        g = Grid1D(0.0, 1.0, 32)
        params = PdeParams(d1=0.05, d2=0.01, kinetics=WEAK)
        x = g.centers()
        init = PdeState(g, 0.4 + 0.2 * np.cos(np.pi * x), np.full(32, 0.3))
        _, outcome = simulate_pde(params, init, 2000.0, PdeOptions(dt=0.01))
        assert outcome.label == COEXIST
        assert outcome.t_reached < 2000.0

    def test_fractional_p_reports_finite_time_extinction(self):
        # certified band data on the lopsided strong kinetics at p = 0.1
        L = 0.071429
        g = Grid1D(0.0, L, 48)
        x = g.centers()
        u0 = 0.03 + 0.02 * np.cos(np.pi * x / L)
        v0 = 6.0 * u0
        params = PdeParams(d1=1.0, d2=0.001, kinetics=RECOVERY)
        init = PdeState(g, u0, v0)
        _, outcome = simulate_pde(params, init, 400.0, PdeOptions(dt=0.01))
        assert outcome.label == V_WINS
        assert outcome.fte_u
        assert outcome.fte_u_time is not None and outcome.fte_u_time > 0.0
        assert not outcome.fte_v

    def test_snapshots_cover_start_requested_and_final_times(self):
        g = Grid1D(0.0, 1.0, 32)
        params = PdeParams(d1=0.01, d2=0.02, kinetics=WEAK)
        init = PdeState(g, np.full(32, 0.5), np.full(32, 0.5))
        opts = PdeOptions(dt=0.01, snapshot_times=(0.5, 1.5))
        snapshots, outcome = simulate_pde(params, init, 3.0, opts)
        times = [t for t, _ in snapshots]
        assert times[0] == 0.0
        assert 0.5 in times and 1.5 in times
        assert times[-1] == pytest.approx(3.0, abs=1e-9)
        for _, state in snapshots:
            assert np.all(state.u >= 0.0) and np.all(state.v >= 0.0)

    @pytest.mark.parametrize("snapshot_times", [(), (88.0,), (89.5,)])
    def test_snapshot_times_do_not_move_the_verdict(self, snapshot_times):
        # the run coexists by its check at t = 90; a snapshot is recorded but
        # is no check, so the verdict stays at that check
        g = Grid1D(0.0, 1.0, 32)
        init = PdeState(g, 0.4 + 0.2 * np.cos(np.pi * g.centers()), np.full(32, 0.3))
        opts = PdeOptions(dt=0.02, snapshot_times=snapshot_times, check_interval=10.0)
        snapshots, outcome = simulate_pde(PdeParams(0.05, 0.01, kinetics=WEAK), init, 300.0, opts)
        assert outcome.label == COEXIST
        assert abs(outcome.t_reached - 90.0) < 1e-6
        for t_snap in snapshot_times:
            assert min(abs(t - t_snap) for t, _ in snapshots) < 1e-6

    def test_budget_exhaustion_is_reported(self):
        g = Grid1D(0.0, 1.0, 32)
        params = PdeParams(d1=0.01, d2=0.02, kinetics=WEAK)
        init = PdeState(g, np.full(32, 0.5), np.full(32, 0.6))
        opts = PdeOptions(dt=0.01, max_steps=10)
        _, outcome = simulate_pde(params, init, 1000.0, opts)
        assert outcome.label == UNDECIDED
        assert "step budget" in outcome.note

    def test_grid_mismatch_rejected(self):
        g = Grid1D(0.0, 1.0, 32)
        other = Grid1D(0.0, 1.0, 16)
        params = PdeParams(
            d1=0.01, d2=0.02, b=0.999, c=0.999, p=1.0, m=logistic_resource(other)
        )
        init = PdeState(g, np.full(32, 0.2), np.full(32, 0.2))
        with pytest.raises(InvalidParameter):
            simulate_pde(params, init, 10.0)


class TestRecoveryConditions:
    def grid_data(self, n=48):
        L = 0.071429
        g = Grid1D(0.0, L, n)
        x = g.centers()
        u0 = 0.03 + 0.02 * np.cos(np.pi * x / L)
        return g, u0, 6.0 * u0

    def test_reference_point_values(self):
        g, u0, v0 = self.grid_data()
        report = check_recovery_conditions(RECOVERY, u0, v0)
        # closed-form crossing of the two straight nullclines
        assert report.u_star == pytest.approx(0.0714285714, abs=1e-9)
        assert report.v_star == pytest.approx(0.8571428571, abs=1e-9)

    def test_band_certificate_holds_for_the_reference_data(self):
        g, u0, v0 = self.grid_data()
        report = check_recovery_conditions(RECOVERY, u0, v0)
        assert report.cond1.all()
        assert report.cond12.all()
        assert report.cond123
        assert report.all_hold

    def test_band_is_two_sided(self):
        g, u0, v0 = self.grid_data()
        too_low = check_recovery_conditions(RECOVERY, u0, v0 * 0.2)
        assert not too_low.cond1.all()
        too_high = check_recovery_conditions(RECOVERY, u0, v0 * 40.0)
        assert not too_high.cond1.all()

    def test_requires_bistable_regime_and_fractional_p(self):
        with pytest.raises(InvalidParameter):
            check_recovery_conditions(WEAK, np.array([0.1]), np.array([0.1]))
        smooth = KineticParams(a1=1.1, b1=1, c1=1.2, a2=1, b2=1, c2=2)
        with pytest.raises(InvalidParameter):
            check_recovery_conditions(smooth, np.array([0.1]), np.array([0.1]))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(InvalidParameter):
            check_recovery_conditions(RECOVERY, np.array([0.1, 0.2]), np.array([0.1]))


# ---------------------------------------------------------------------------
# Reference: the split stepper with u and v stepped apart
# ---------------------------------------------------------------------------


def _reference_reaction(params):
    if params.kinetics is not None:
        k = params.kinetics

        def react(u, v):
            du = u * (k.a1 - k.b1 * u) - k.c1 * safe_pow_arr(u, k.p) * v
            dv = v * (k.a2 - k.b2 * v) - k.c2 * u * safe_pow_arr(v, k.q)
            return du, dv

        return react
    b, c, p, m = params.b, params.c, params.p, params.m.values

    def react(u, v):
        du = u * (m - u) - b * safe_pow_arr(u, p) * v
        dv = v * (m - v) - c * u * v
        return du, dv

    return react


def two_field_reference(params, init, t_end, opts):
    """simulate_pde as a two-field stepper: one scipy solve per species.

    This is the stepper simulate_pde used before u and v were stacked into
    one field, kept as the bit-for-bit reference.  It has two changes:
    ``check_finite=False`` on the solves, so that a non-finite step reaches
    the dt-halving rule instead of raising ValueError inside scipy, and
    verdicts taken at the checks and t_end only, not at snapshot times.
    Its clamp flags, default ``dt`` and survivor profiles are the
    per-flavour formulas written out here, and its verdict tolerances
    (1e-4, 1e-4, 1e-7), clamp level (1e-10), dt floor (1e-12) and tail
    threshold (1e-6) are literals, so it shares none of that set-up with
    simulate_pde and a changed module constant fails the cases below.
    Returns (snapshots, outcome, entered_imex_tail, dt_halvings, deaths),
    where ``deaths`` maps "u" / "v" to the step that first left the field
    zero everywhere: "start" (the clamp at t = 0), "rk4" or "tail".
    """
    grid = init.grid
    n, dx = grid.n_x, grid.dx
    u, v = init.u.copy(), init.v.copy()
    react = _reference_reaction(params)
    kin = params.kinetics
    if kin is not None:
        clamp_u, clamp_v = kin.p < 1.0, kin.q < 1.0
        rate_max = max(kin.a1, kin.a2, kin.c1, kin.c2)
    else:
        clamp_u, clamp_v = params.p < 1.0, False
        rate_max = max(float(params.m.values.max()), params.b, params.c, 1e-6)
    dt = opts.dt if opts.dt is not None else 0.05 / rate_max
    refs = {"u": None, "v": None}
    ref_failed, ref_note = set(), []

    def survivor(name):
        if refs[name] is None and name not in ref_failed:
            if kin is not None:
                a, b = (kin.a1, kin.b1) if name == "u" else (kin.a2, kin.b2)
                refs[name] = np.full(n, a / b)
            else:
                try:
                    refs[name] = single_species_steady_state(
                        params.d1 if name == "u" else params.d2, params.m
                    )
                except (NonConvergence, InvalidParameter) as exc:
                    ref_note.append(f"reference profile unavailable: {exc}")
                    ref_failed.add(name)
        return refs[name]

    factors = {}

    def solve(dcoef, h, rhs):
        key = (dcoef, h)
        if key not in factors:
            r = dcoef * h / (dx * dx)
            ab = np.zeros((2, n))
            ab[1, :] = 1.0 + 2.0 * r
            ab[1, 0] = ab[1, -1] = 1.0 + r
            ab[0, 1:] = -r
            factors[key] = cholesky_banded(ab)
        return cho_solve_banded((factors[key], False), rhs, check_finite=False)

    snap_times = {float(s) for s in opts.snapshot_times if 0.0 < s <= t_end}
    checks = {t_end}
    if opts.check_interval > 0.0:
        k = 1
        while k * opts.check_interval < t_end:
            checks.add(k * opts.check_interval)
            k += 1

    snapshots = [(0.0, PdeState(grid, u, v))]
    fte = {"u": None, "v": None}
    label, note, t, steps = None, "", 0.0, 0
    entered_tail, halvings, deaths = False, 0, {}

    def clamp(t_now, mode):
        np.maximum(u, 0.0, out=u)
        np.maximum(v, 0.0, out=v)
        low_u, low_v = u < 1e-10, v < 1e-10
        if (clamp_u and low_u.any()) or (clamp_v and low_v.any()):
            du, dv = react(u, v)
            if clamp_u:
                u[low_u & (du <= 0.0)] = 0.0
            if clamp_v:
                v[low_v & (dv <= 0.0)] = 0.0
        if clamp_u and fte["u"] is None and not u.any():
            fte["u"], deaths["u"] = t_now, mode
        if clamp_v and fte["v"] is None and not v.any():
            fte["v"], deaths["v"] = t_now, mode

    def classify(rate):
        if float(v.max()) < 1e-4:
            ref = survivor("u")
            if ref is not None and float(np.max(np.abs(u - ref))) < 1e-4:
                return U_WINS
        if float(u.max()) < 1e-4:
            ref = survivor("v")
            if ref is not None and float(np.max(np.abs(v - ref))) < 1e-4:
                return V_WINS
        if min(float(u.min()), float(v.min())) > 1e-4 and rate < 1e-7:
            return COEXIST
        return None

    clamp(0.0, "start")
    rate, tail, budget_hit = math.inf, False, False
    for target in sorted(snap_times | checks):
        while target - t > 1e-12 * max(1.0, target):
            if steps >= opts.max_steps:
                budget_hit = True
                break
            h = min(dt, target - t)
            u_prev, v_prev = u, v
            low = min(float(u.max()), float(v.max()))
            if not tail and low < 1e-6:
                tail = entered_tail = True
            elif tail and low > 10.0 * 1e-6:
                tail = False
            if tail:
                fu, fv = react(u, v)
                u = solve(params.d1, h, u + h * fu)
                v = solve(params.d2, h, v + h * fv)
            else:
                u1 = solve(params.d1, 0.5 * h, u)
                v1 = solve(params.d2, 0.5 * h, v)
                k1u, k1v = react(u1, v1)
                k2u, k2v = react(u1 + 0.5 * h * k1u, v1 + 0.5 * h * k1v)
                k3u, k3v = react(u1 + 0.5 * h * k2u, v1 + 0.5 * h * k2v)
                k4u, k4v = react(u1 + h * k3u, v1 + h * k3v)
                sixth = h / 6.0
                u2 = u1 + sixth * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
                v2 = v1 + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
                u = solve(params.d1, 0.5 * h, u2)
                v = solve(params.d2, 0.5 * h, v2)
            steps += 1
            if not math.isfinite(float(u.sum()) + float(v.sum())):
                u, v = u_prev, v_prev
                dt *= 0.5
                halvings += 1
                if dt < 1e-12:
                    raise CflViolation("time step underflow")
                continue
            t += h
            clamp(t, "tail" if tail else "rk4")
            rate = max(float(np.max(np.abs(u - u_prev))), float(np.max(np.abs(v - v_prev)))) / h
        if budget_hit:
            note = f"step budget ({opts.max_steps}) exhausted at t={t:g}"
            break
        if target in snap_times:
            snapshots.append((t, PdeState(grid, u, v)))
        verdict = classify(rate) if target in checks else None
        if verdict is not None:
            label = verdict
            break
    if label is None:
        label = UNDECIDED
        if not note:
            note = f"no verdict by t={t:g}" + (f"; {ref_note[-1]}" if ref_note else "")
    if snapshots[-1][0] != t:
        snapshots.append((t, PdeState(grid, u, v)))
    outcome = PdeOutcome(
        label=label,
        t_reached=t,
        fte_u=fte["u"] is not None,
        fte_v=fte["v"] is not None,
        fte_u_time=fte["u"],
        fte_v_time=fte["v"],
        note=note,
    )
    return snapshots, outcome, entered_tail, halvings, deaths


def _stacked_cases():
    """(name, params, init, t_end, opts, expect_tail, expect_halving, deaths).

    ``deaths`` is the reference's map of the rows that reach zero everywhere
    to the step that got them there ("start", "rk4" or "tail"), so each FTE
    case shows that the dead-row path of simulate_pde is actually taken.
    """
    g32 = Grid1D(0.0, 1.0, 32)
    x32 = g32.centers()
    g64 = Grid1D(0.0, 1.0, 64)
    m64 = logistic_resource(g64)
    half = m64.values / 2.0 + 0.01
    L = 0.071429
    g48 = Grid1D(0.0, L, 48)
    x48 = g48.centers()
    band = 0.03 + 0.02 * np.cos(np.pi * x48 / L)
    clamp_opts = PdeOptions(dt=0.01, snapshot_times=(0.5, 2.0))
    recovery_pq = KineticParams(a1=1.1, b1=1, c1=1.2, a2=1, b2=1, c2=2, p=0.1, q=0.5)
    map_opts = PdeOptions(dt=0.5, check_interval=100.0, max_steps=200_000)
    cases = [
        # smooth exclusion; the one check is at t_end, so v decays into the
        # IMEX tail before the verdict (a check every 20 would end at t = 60)
        ("const-exclusion-tail", PdeParams(0.01, 0.02, kinetics=EXCLUSION),
         PdeState(g32, 0.5 + 0.1 * np.cos(np.pi * x32), np.full(32, 0.5)), 400.0,
         PdeOptions(dt=0.05, check_interval=0.0), True, False, {}),
        ("const-coexist-snapshots", PdeParams(0.05, 0.01, kinetics=WEAK),
         PdeState(g32, 0.4 + 0.2 * np.cos(np.pi * x32), np.full(32, 0.3)), 300.0,
         PdeOptions(dt=0.02, snapshot_times=(0.7, 3.1, 42.0), check_interval=10.0), False, False,
         {}),
        # p < 1: u is clamped to zero in finite time, on an RK4 step
        ("const-p-clamp", PdeParams(1.0, 0.001, kinetics=RECOVERY),
         PdeState(g48, band, 6.0 * band), 400.0, clamp_opts, True, False, {"u": "rk4"}),
        # p < 1 and q < 1: u dies while v is still a live clampable row
        ("const-pq-u-dies-v-live", PdeParams(1.0, 0.001, kinetics=recovery_pq),
         PdeState(g48, band, 6.0 * band), 400.0, clamp_opts, True, False, {"u": "rk4"}),
        # the mirror: v dies while u is still a live clampable row
        ("const-pq-v-dies-u-live", PdeParams(0.001, 1.0, kinetics=KineticParams(
            a1=1, b1=1, c1=2, a2=1.1, b2=1, c2=1.2, p=0.5, q=0.1)),
         PdeState(g48, 6.0 * band, band), 400.0, clamp_opts, True, False, {"v": "rk4"}),
        # u is dead from t = 0; v invades from the left, and its front goes
        # through the clamp test while u's row is dead
        ("const-pq-v-front-after-u-dead", PdeParams(1.0, 1e-4, kinetics=recovery_pq),
         PdeState(g48, np.zeros(48), np.where(x48 < L / 4, 6.0 * band, 0.0)), 200.0,
         PdeOptions(dt=0.01, snapshot_times=(0.5, 2.0, 20.0), check_interval=10.0),
         True, False, {"u": "start"}),
        # both rows dead from t = 0
        ("const-pq-both-dead", PdeParams(0.01, 0.02, kinetics=recovery_pq),
         PdeState(g48, np.zeros(48), np.zeros(48)), 5.0,
         PdeOptions(dt=0.05, snapshot_times=(1.0,), check_interval=2.0), True, False,
         {"u": "start", "v": "start"}),
        # q < 1: the mirror image clamps v
        ("const-q-clamp", PdeParams(0.001, 1.0, kinetics=KineticParams(
            a1=1, b1=1, c1=2, a2=1.1, b2=1, c2=1.2, p=1.0, q=0.1)),
         PdeState(g48, 6.0 * band, band), 400.0, clamp_opts, True, False, {"v": "rk4"}),
        # criterion 6 cells: smooth resource kinetics and the p = 0.7 flip
        ("resource-p1", PdeParams(3.98e-3, 3.98e-2, b=0.999, c=0.999, p=1.0, m=m64),
         PdeState(g64, half, half), 60000.0, map_opts, True, False, {}),
        ("resource-p07", PdeParams(1e-4, 1e-1, b=0.999, c=0.999, p=0.7, m=m64),
         PdeState(g64, half, half), 60000.0, map_opts, True, False, {"u": "rk4"}),
        # u starts at 1e20 on three cells: RK4 overflows until dt has been
        # halved twice, and the overshoot then zeroes both fields, which
        # sends the run into the IMEX tail
        ("dt-halving", PdeParams(0.01, 0.02, kinetics=EXCLUSION),
         PdeState(g32, np.where(x32 < 0.1, 1e20, 0.5), np.full(32, 0.5)), 20.0,
         PdeOptions(dt=1.0, check_interval=5.0, snapshot_times=(0.3,)),
         True, True, {}),
    ]
    rng = np.random.default_rng(11)
    seeded = (
        (1.0, 1.0, {}), (0.5, 1.0, {}), (1.0, 0.4, {"v": "rk4"}),
        # v dies in the IMEX tail while u is a live clampable row
        (0.6, 0.7, {"v": "tail"}),
    )
    for k, (p, q, deaths) in enumerate(seeded):
        a1, a2 = rng.uniform(0.5, 3.0, 2)
        b1, b2 = rng.uniform(0.5, 1.5, 2)
        c1, c2 = rng.uniform(0.2, 2.5, 2)
        d1, d2 = 10.0 ** rng.uniform(-3.0, -1.0, 2)
        u0 = rng.uniform(0.05, 1.5) * (1.0 + 0.3 * np.cos(np.pi * x32 * (k + 1)))
        v0 = rng.uniform(0.05, 1.5) * (1.0 + 0.3 * np.sin(np.pi * x32))
        cases.append((
            f"const-seeded-{k}",
            PdeParams(d1, d2, kinetics=KineticParams(a1, a2, b1, b2, c1, c2, p, q)),
            PdeState(g32, u0, v0), 200.0,
            PdeOptions(dt=0.05, snapshot_times=(1.0, 12.5), check_interval=10.0),
            None, False, deaths,
        ))
    return cases


STACKED_CASES = _stacked_cases()


@pytest.mark.parametrize(
    "name, params, init, t_end, opts, expect_tail, expect_halving, deaths",
    STACKED_CASES,
    ids=[case[0] for case in STACKED_CASES],
)
def test_stacked_stepper_matches_two_field_reference(
    name, params, init, t_end, opts, expect_tail, expect_halving, deaths
):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflowing attempts
        ref_snaps, ref_outcome, entered_tail, halvings, ref_deaths = two_field_reference(
            params, init, t_end, opts
        )
        snaps, outcome = simulate_pde(params, init, t_end, opts)
    if expect_tail is not None:
        assert entered_tail == expect_tail
    assert (halvings > 0) == expect_halving
    assert ref_deaths == deaths
    assert (outcome.fte_u, outcome.fte_v) == ("u" in deaths, "v" in deaths)
    assert outcome == ref_outcome
    assert [t for t, _ in snaps] == [t for t, _ in ref_snaps]
    for (_, got), (_, want) in zip(snaps, ref_snaps):
        assert got.u.tobytes() == want.u.tobytes()
        assert got.v.tobytes() == want.v.tobytes()


def _record_cases():
    """(name, params) over both flavours, unit and non-unit crowding, p and q."""
    g = Grid1D(0.0, 1.0, 24)
    m = logistic_resource(g)
    rng = np.random.default_rng(8)
    a1, a2, b1, b2, c1, c2 = rng.uniform(0.3, 2.5, 6)
    return [
        ("const-unit-crowding-p01", PdeParams(0.1, 0.2, kinetics=RECOVERY)),
        ("const-unit-crowding-pq1", PdeParams(0.1, 0.2, kinetics=WEAK)),
        ("const-crowding-pq1", PdeParams(0.1, 0.2, kinetics=KineticParams(a1, a2, b1, b2, c1, c2))),
        ("const-crowding-p", PdeParams(0.1, 0.2, kinetics=KineticParams(
            a1, a2, b1, b2, c1, c2, p=0.4))),
        ("const-crowding-q", PdeParams(0.1, 0.2, kinetics=KineticParams(
            a1, a2, b1, b2, c1, c2, q=0.3))),
        ("const-crowding-pq", PdeParams(0.1, 0.2, kinetics=KineticParams(
            a1, a2, 1.0, b2, c1, c2, p=0.6, q=0.7))),
        ("resource-p1", PdeParams(0.01, 0.1, b=0.999, c=1.3, p=1.0, m=m)),
        ("resource-p07", PdeParams(0.01, 0.1, b=0.8, c=0.999, p=0.7, m=m)),
    ]


@pytest.mark.parametrize("name, params", _record_cases(), ids=[c[0] for c in _record_cases()])
def test_resolved_record_matches_the_per_flavour_formulas(name, params):
    n, offset = 24, 0.01
    g = Grid1D(0.0, 1.0, n)
    rec = lvfte_pde._resolve(params, n)
    kin = params.kinetics
    if kin is not None:
        clampable = (kin.p < 1.0, kin.q < 1.0)
        dt = 0.05 / max(kin.a1, kin.a2, kin.c1, kin.c2)
        half = np.full(n, kin.a1 / (2.0 * kin.b1) + offset)
        survivors = (np.full(n, kin.a1 / kin.b1), np.full(n, kin.a2 / kin.b2))
    else:
        clampable = (params.p < 1.0, False)
        dt = 0.05 / max(float(params.m.values.max()), params.b, params.c, 1e-6)
        half = params.m.values / 2.0 + offset
        survivors = tuple(single_species_steady_state(d, params.m) for d in (params.d1, params.d2))
    assert (rec.p < 1.0, rec.q < 1.0) == clampable
    assert repr(lvfte_pde._default_dt(rec)) == repr(dt)
    refs = lvfte_pde._ReferenceCache(rec, (params.d1, params.d2))
    for k in (0, 1):
        assert refs.ref(k).tobytes() == survivors[k].tobytes()
    state = initial_state_for_policy(params, g, offset)
    assert state.u.tobytes() == state.v.tobytes() == half.tobytes()

    react = lvfte_pde._make_reaction(rec)
    want_react = _reference_reaction(params)
    rng = np.random.default_rng(5)
    for dead in ((), (0,), (1,), (0, 1)):
        for scale in (1e-12, 0.3, 2.5):
            w = rng.uniform(0.0, scale, (2, n))
            w[:, :3] = 0.0  # points already clamped to zero
            for k in dead:
                w[k] = 0.0
            want = np.stack(want_react(w[0].copy(), w[1].copy()))
            assert react(w.copy(), dead).tobytes() == want.tobytes()


def test_default_dt_has_one_floor_for_both_flavours():
    # every rate coefficient below 1e-6: the 1e-6 floor of the resource
    # flavour now bounds constant kinetics too (dt 5e4, not 0.05 / 5e-7)
    tiny = KineticParams(a1=1e-7, a2=5e-7, b1=1, b2=1, c1=2e-7, c2=3e-7)
    rec = lvfte_pde._resolve(PdeParams(0.1, 0.2, kinetics=tiny), 16)
    assert lvfte_pde._default_dt(rec) == 0.05 / 1e-6


def test_dead_row_skips_the_cross_terms(monkeypatch):
    # criterion 6 cell (0, 15) at p = 0.7: u is zero everywhere from
    # t = 30.5 on; after that no step evaluates u^p or the cross terms
    calls = []

    def counted(x, e):
        calls.append(e)
        return safe_pow_arr(x, e)

    monkeypatch.setattr(lvfte_pde, "safe_pow_arr", counted)
    g = Grid1D(0.0, 1.0, 64)
    m = logistic_resource(g)
    half = m.values / 2.0 + 0.01
    params = PdeParams(1e-4, 1e-1, b=0.999, c=0.999, p=0.7, m=m)
    counts = []
    for t_end in (35.0, 100.0):
        calls.clear()
        _, outcome = simulate_pde(params, PdeState(g, half, half), t_end, PdeOptions(dt=0.5))
        assert outcome.fte_u_time == 30.5
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_joint_block_factor_equals_separate_factors():
    n, dx, h = 64, 1.0 / 64, 0.25
    ds = (3.98e-3, 3.98e-2)
    rhs = np.random.default_rng(3).uniform(0.0, 1.0, (2, n))
    joint = lvfte_pde._ImplicitDiffusion(n, dx, ds, h).apply(rhs)
    for k, d in enumerate(ds):
        alone = lvfte_pde._ImplicitDiffusion(n, dx, (d,), h).apply(rhs[k].copy())
        assert joint[k].tobytes() == alone.tobytes()


class TestNonFiniteStep:
    PARAMS = PdeParams(0.01, 0.01, kinetics=KineticParams(1, 1, 1, 1, 0.5, 0.5))

    def test_underflow_raises_cfl_violation(self):
        g = Grid1D(0.0, 1.0, 16)
        init = PdeState(g, np.full(16, 1e30), np.full(16, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(CflViolation, match="time step underflow"):
                simulate_pde(self.PARAMS, init, 200.0, PdeOptions(dt=50.0))

    def test_sweep_records_the_failure_as_an_undecided_cell(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            grid = scan_diffusion(
                self.PARAMS, (0.01,), (0.01, 0.02), 200.0,
                grid=Grid1D(0.0, 1.0, 16), options=PdeOptions(dt=50.0),
                ic_offset=1e30, workers=1,
            )
        assert grid.labels == ((UNDECIDED, UNDECIDED),)
        assert all(note.startswith("CflViolation: ") for note in grid.notes[0])


class TestOptionValidation:
    GRID = Grid1D(0.0, 1.0, 16)
    PARAMS = PdeParams(0.01, 0.02, kinetics=WEAK)
    INIT = PdeState(GRID, np.full(16, 0.5), np.full(16, 0.6))

    @pytest.mark.parametrize(
        "field, value",
        [("dt", 0.0), ("dt", math.nan), ("max_steps", 0), ("check_interval", math.nan)],
    )
    def test_bad_value_raises_for_a_run_and_a_sweep(self, field, value):
        opts = replace(PdeOptions(dt=0.01), **{field: value})
        with pytest.raises(InvalidParameter, match=field):
            simulate_pde(self.PARAMS, self.INIT, 1.0, opts)
        with pytest.raises(InvalidParameter, match=field):
            scan_diffusion(self.PARAMS, (0.01,), (0.02,), 1.0, grid=self.GRID,
                           options=opts, workers=1)

    @pytest.mark.parametrize(
        "field, value", [("check_interval", 0.0), ("check_interval", -1.0)]
    )
    def test_documented_edge_values_stay_legal(self, field, value):
        opts = replace(PdeOptions(dt=0.01), **{field: value})
        _, outcome = simulate_pde(self.PARAMS, self.INIT, 1.0, opts)
        assert outcome.t_reached == pytest.approx(1.0)


def test_every_factorisation_and_solve_goes_through_the_module_names(monkeypatch):
    # perfbench's tracer counts lvfte.pde.cholesky_banded and cho_solve_banded
    # by replacing those module attributes, so no call may bypass them
    calls = {"factor": 0, "solve": 0}

    def counted(kind, fn):
        def wrapper(*args):
            calls[kind] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(lvfte_pde, "cholesky_banded", counted("factor", lvfte_pde.cholesky_banded))
    monkeypatch.setattr(lvfte_pde, "cho_solve_banded", counted("solve", lvfte_pde.cho_solve_banded))
    # 20 Strang steps of h = 0.5: one factor for h/2, two solves per step
    g = Grid1D(0.0, 1.0, 16)
    init = PdeState(g, np.full(16, 0.5), np.full(16, 0.6))
    simulate_pde(PdeParams(0.01, 0.02, kinetics=WEAK), init, 10.0,
                 PdeOptions(dt=0.5))
    assert calls == {"factor": 1, "solve": 40}

    # the steady-state march: one factor per _ImplicitDiffusion, one solve per apply
    monkeypatch.setattr(lvfte_pde._ImplicitDiffusion, "__init__",
                        counted("built", lvfte_pde._ImplicitDiffusion.__init__))
    monkeypatch.setattr(lvfte_pde._ImplicitDiffusion, "apply",
                        counted("applied", lvfte_pde._ImplicitDiffusion.apply))
    calls.update(factor=0, solve=0, built=0, applied=0)
    lvfte_pde._steady_state.cache_clear()
    single_species_steady_state(2.5e-3, logistic_resource(Grid1D(0.0, 1.0, 64)))
    assert calls["factor"] == calls["built"] > 1
    assert calls["solve"] == calls["applied"] > 64


# ---------------------------------------------------------------------------
# Memoised single-species steady states
# ---------------------------------------------------------------------------


class TestSteadyStateCache:
    def test_cached_profile_equals_a_fresh_march(self):
        g = Grid1D(0.0, 1.0, 64)
        m = logistic_resource(g)
        first = single_species_steady_state(2.5e-3, m)
        again = single_species_steady_state(2.5e-3, m)
        fresh = lvfte_pde._steady_state.__wrapped__(2.5e-3, g, m.values.tobytes())
        assert first.tobytes() == fresh.tobytes()
        assert again.tobytes() == fresh.tobytes()

    def test_key_is_the_value_not_the_object(self):
        g = Grid1D(0.0, 1.0, 64)
        one = single_species_steady_state(3.5e-3, logistic_resource(g))
        hits = lvfte_pde._steady_state.cache_info().hits
        other = single_species_steady_state(3.5e-3, logistic_resource(Grid1D(0.0, 1.0, 64)))
        assert lvfte_pde._steady_state.cache_info().hits == hits + 1
        assert one.tobytes() == other.tobytes()

    def test_mutating_the_result_does_not_poison_the_cache(self):
        g = Grid1D(0.0, 1.0, 64)
        m = logistic_resource(g)
        first = single_species_steady_state(4.5e-3, m)
        want = first.copy()
        first[:] = -1.0
        assert single_species_steady_state(4.5e-3, m).tobytes() == want.tobytes()

    def test_failures_are_not_cached(self, monkeypatch):
        monkeypatch.setattr(lvfte_pde, "STEADY_T_MAX", 1.0)
        g = Grid1D(0.0, 1.0, 64)
        m = logistic_resource(g)
        for _ in range(2):
            with pytest.raises(NonConvergence):
                single_species_steady_state(5.5e-3, m)

    def test_nonconvergence_reaches_the_reference_note(self, monkeypatch):
        # the memo key holds no march length, so drop profiles of full marches
        lvfte_pde._steady_state.cache_clear()
        monkeypatch.setattr(lvfte_pde, "STEADY_T_MAX", 1.0)
        g = Grid1D(0.0, 1.0, 64)
        m = logistic_resource(g)
        half = m.values / 2.0 + 0.01
        params = PdeParams(1e-4, 1e-1, b=0.999, c=0.999, p=0.7, m=m)
        opts = PdeOptions(dt=0.5, check_interval=100.0)
        for _ in range(2):  # the second run must fail the same way
            _, outcome = simulate_pde(params, PdeState(g, half, half), 200.0, opts)
            assert outcome.label == UNDECIDED
            assert "reference profile unavailable" in outcome.note
            assert "not reached by t=1" in outcome.note


# ---------------------------------------------------------------------------
# Verdicts under dt refinement (criterion 6 cells)
# ---------------------------------------------------------------------------

AXIS = np.geomspace(1e-4, 1e-1, 16)


@pytest.mark.parametrize(
    "p, i, j",
    [(1.0, 8, 13), (1.0, 13, 14), (0.7, 0, 15), (0.7, 15, 0)],
)
def test_map_cell_verdict_holds_when_dt_is_halved(p, i, j):
    g = Grid1D(0.0, 1.0, 64)
    m = logistic_resource(g)
    half = m.values / 2.0 + 0.01
    params = PdeParams(AXIS[i], AXIS[j], b=0.999, c=0.999, p=p, m=m)
    verdicts = []
    for dt in (0.5, 0.25):
        opts = PdeOptions(dt=dt, check_interval=100.0, max_steps=400_000)
        _, outcome = simulate_pde(params, PdeState(g, half, half), 60000.0, opts)
        verdicts.append((outcome.label, outcome.fte_u, outcome.fte_v))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][0] != UNDECIDED
