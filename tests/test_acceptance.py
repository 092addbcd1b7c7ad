"""End-to-end checks for the toolkit's headline behaviors.

Each test covers one advertised capability, pins the published reference
numbers with explicit tolerances, and enforces a wall-clock budget.  Run
with ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from lvfte import (
    COEXIST,
    UNDECIDED,
    U_WINS,
    V_WINS,
    ComparisonOde,
    Grid1D,
    KineticParams,
    PdeOptions,
    PdeParams,
    PdeState,
    ResourceField,
    Species,
    Stability,
    State2,
    check_recovery_conditions,
    comparison_extinction_time,
    comparison_solution,
    fte_threshold,
    integrate,
    interior_equilibria,
    laplacian_neumann,
    log_axis,
    scan_diffusion,
    simulate_pde,
)

MIXED = KineticParams(a1=1.8, b1=1, c1=0.5, a2=3, b2=1, c2=1.8, p=1.0, q=0.3)
FTE_CERTIFIED = KineticParams(a1=1.8, b1=1, c1=0.5, a2=3, b2=1, c2=1.8, p=0.4, q=1.0)
LOPSIDED = KineticParams(a1=1.1, b1=1, c1=1.2, a2=1, b2=1, c2=2)

RECOVERY_DOMAIN = 0.071429  # interior crossing abscissa of the p=1 nullclines


def certified_band_state(n_x):
    grid = Grid1D(0.0, RECOVERY_DOMAIN, n_x)
    x = grid.centers()
    u0 = 0.03 + 0.02 * np.cos(np.pi * x / RECOVERY_DOMAIN)
    return grid, PdeState(grid, u0, 6.0 * u0)


def logistic_resource(grid):
    x = grid.centers()
    return ResourceField(grid, x * (1.0 - x))


def test_criterion_1_interior_pair_with_printed_linearizations():
    t0 = time.perf_counter()
    eqs = interior_equilibria(MIXED)
    assert len(eqs) == 2
    # reference values: saddle listed first, then the sink
    references = [
        ((1.1323, 1.3354), [[-1.1323, -0.5662], [-1.9632, -0.1702]],
         -1.3025, -0.9188, Stability.SADDLE),
        ((0.5788, 2.4424), [[-0.5788, -0.2894], [-2.3530, -2.0521]],
         -2.6309, 0.5068, Stability.SINK),
    ]
    for point_ref, jac_ref, tr_ref, det_ref, stab_ref in references:
        matches = [e for e in eqs if abs(e.point.u - point_ref[0]) < 1e-3]
        assert len(matches) == 1, point_ref
        eq = matches[0]
        assert eq.point.u == pytest.approx(point_ref[0], abs=1e-3)
        assert eq.point.v == pytest.approx(point_ref[1], abs=1e-3)
        assert eq.jacobian == pytest.approx(np.array(jac_ref), abs=1e-3)
        tr = eq.jacobian[0, 0] + eq.jacobian[1, 1]
        det = eq.jacobian[0, 0] * eq.jacobian[1, 1] - eq.jacobian[0, 1] * eq.jacobian[1, 0]
        assert tr == pytest.approx(tr_ref, abs=1e-3)
        assert det == pytest.approx(det_ref, abs=1e-3)
        assert eq.stability is stab_ref
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_recovery_certificate_reference_point():
    t0 = time.perf_counter()
    params = KineticParams(a1=1.1, b1=1, c1=1.2, a2=1, b2=1, c2=2, p=0.1, q=1.0)
    _, state = certified_band_state(64)
    report = check_recovery_conditions(params, state.u, state.v)
    assert report.u_star == pytest.approx(0.071429, abs=1e-5)
    assert report.v_star == pytest.approx(0.85714, abs=1e-5)
    assert report.cond123 is True
    assert report.all_hold
    assert time.perf_counter() - t0 < 1.0


def test_criterion_3_certified_extinction_dichotomy_100_draws():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260815)
    for _ in range(100):
        u0 = float(rng.uniform(0.01, 1.8))
        v0 = fte_threshold(FTE_CERTIFIED, u0) * float(rng.uniform(1.02, 1.5))
        traj = integrate(FTE_CERTIFIED, State2(u0, v0), 200.0)
        assert [ev.species for ev in traj.events] == [Species.U], (u0, v0)
        assert traj.events[0].t_star > 0.0
        assert traj.terminal is not None, (u0, v0)
        final = traj.terminal.point
        assert math.hypot(final.u - 0.0, final.v - 3.0) < 1e-4, (u0, v0)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_4_same_data_extinction_at_p1_recovery_at_p01():
    t0 = time.perf_counter()
    grid, state = certified_band_state(128)
    report = check_recovery_conditions(
        KineticParams(a1=1.1, b1=1, c1=1.2, a2=1, b2=1, c2=2, p=0.1, q=1.0),
        state.u,
        state.v,
    )
    assert report.cond1.all() and report.cond12.all()

    opts = PdeOptions(dt=0.01, check_interval=5.0)
    smooth = PdeParams(d1=1.0, d2=0.001, kinetics=LOPSIDED)
    _, outcome_smooth = simulate_pde(smooth, state, 400.0, opts)
    assert outcome_smooth.label == U_WINS

    fractional = PdeParams(
        d1=1.0,
        d2=0.001,
        kinetics=KineticParams(a1=1.1, b1=1, c1=1.2, a2=1, b2=1, c2=2, p=0.1, q=1.0),
    )
    _, outcome_frac = simulate_pde(fractional, state, 400.0, opts)
    assert outcome_frac.label == V_WINS
    assert time.perf_counter() - t0 < 120.0


def test_criterion_5_slower_diffuser_rule_and_its_reversal():
    t0 = time.perf_counter()
    grid = Grid1D(0.0, 1.0, 128)
    m = logistic_resource(grid)
    base = m.values / 2.0 + 0.01
    state = PdeState(grid, base, base.copy())
    opts = PdeOptions(dt=0.2, check_interval=50.0)
    d1, d2 = 0.00012425, 0.00033167
    assert d1 < d2

    smooth = PdeParams(d1=d1, d2=d2, b=0.999, c=0.999, p=1.0, m=m)
    _, outcome_smooth = simulate_pde(smooth, state, 50000.0, opts)
    assert outcome_smooth.label == U_WINS

    fractional = PdeParams(d1=d1, d2=d2, b=0.999, c=0.999, p=0.7, m=m)
    _, outcome_frac = simulate_pde(fractional, state, 50000.0, opts)
    assert outcome_frac.label == V_WINS
    assert outcome_frac.fte_u  # u hits exactly zero in finite time
    assert not outcome_frac.fte_v  # v survives
    assert time.perf_counter() - t0 < 180.0


def test_criterion_6_outcome_maps_over_the_diffusivity_plane():
    t0 = time.perf_counter()
    grid = Grid1D(0.0, 1.0, 64)
    m = logistic_resource(grid)
    axis = log_axis(1e-4, 1e-1, 16)
    opts = PdeOptions(dt=0.5, check_interval=100.0, max_steps=200_000)

    def run_map(p):
        template = PdeParams(d1=1.0, d2=1.0, b=0.999, c=0.999, p=p, m=m)
        return scan_diffusion(
            template, axis, axis, 60000.0, grid=grid, options=opts, workers=1
        )

    smooth = run_map(1.0)
    lower = [
        smooth.labels[i][j]
        for i in range(16)
        for j in range(16)
        if smooth.d1_values[i] < smooth.d2_values[j]
    ]
    # below the diagonal the slower u-diffuser wins outright or coexists
    assert set(lower) <= {U_WINS, COEXIST}
    assert lower.count(U_WINS) >= 1
    assert lower.count(COEXIST) >= 1

    fractional = run_map(0.7)
    flipped = [
        fractional.labels[i][j]
        for i in range(16)
        for j in range(16)
        if fractional.d1_values[i] < fractional.d2_values[j]
    ]
    assert flipped.count(V_WINS) >= 1
    assert time.perf_counter() - t0 < 1200.0


def test_criterion_7_property_suites():
    t0 = time.perf_counter()

    # spatially constant data: the reaction-diffusion run tracks the kinetics
    weak = KineticParams(a1=1, b1=1, c1=0.3, a2=2, b2=1, c2=1.8)
    grid = Grid1D(0.0, 1.0, 32)
    state = PdeState(grid, np.full(32, 0.5), np.full(32, 0.5))
    params = PdeParams(d1=0.3, d2=0.7, kinetics=weak)
    t_check = 10.0
    snaps, _ = simulate_pde(
        params,
        state,
        12.0,
        PdeOptions(dt=0.002, snapshot_times=(t_check,), check_interval=50.0),
    )
    snap = dict((round(t, 9), s) for t, s in snaps)[t_check]
    ode_ref = integrate(weak, State2(0.5, 0.5), t_check).final_state
    assert np.max(np.abs(snap.u - ode_ref.u)) < 1e-6
    assert np.max(np.abs(snap.v - ode_ref.v)) < 1e-6

    # zero-flux Laplacian reproduces its lowest nonconstant eigenpair
    fine = Grid1D(0.0, 1.0, 256)
    xs = fine.centers()
    w = np.cos(np.pi * xs)
    lam_continuum = -math.pi**2
    applied = laplacian_neumann(w, fine.dx)
    rel_err = np.max(np.abs(applied - lam_continuum * w)) / abs(lam_continuum)
    assert rel_err < 1e-3

    # closed-form decay solution against an independent stiff integrator on
    # the unreduced equation y' = C5*y - C4*exp(-C2*t)*y^alpha, g = y*exp(-C5*t)
    rng = np.random.default_rng(20260815)
    for _ in range(50):
        c = ComparisonOde(
            C4=float(rng.uniform(0.2, 3.0)),
            C5=float(rng.uniform(0.1, 2.0)),
            C2=float(rng.uniform(0.1, 2.0)),
            alpha=float(rng.uniform(0.1, 0.9)),
            g0=float(rng.uniform(0.05, 2.0)),
        )
        t_star = comparison_extinction_time(c)
        t_hi = 0.9 * t_star if t_star is not None else 5.0
        sol = solve_ivp(
            lambda t, y: [c.C5 * y[0] - c.C4 * np.exp(-c.C2 * t) * max(y[0], 0.0) ** c.alpha],
            (0.0, t_hi),
            [c.g0],
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
            dense_output=True,
        )
        assert sol.success
        for t in np.linspace(0.0, t_hi, 7):
            oracle = float(sol.sol(t)[0]) * math.exp(-c.C5 * t)
            assert abs(comparison_solution(c, float(t)) - oracle) < 1e-8

    # a sweep gives identical grids serially and across worker processes
    exclusion = KineticParams(a1=1.8, b1=1, c1=0.5, a2=3, b2=1, c2=1.8)
    template = PdeParams(d1=1.0, d2=1.0, kinetics=exclusion)
    small_grid = Grid1D(0.0, 1.0, 16)
    sweep_opts = PdeOptions(dt=0.05, check_interval=25.0)

    def sweep(workers):
        return scan_diffusion(
            template,
            log_axis(1e-3, 1e-1, 2),
            log_axis(1e-3, 1e-1, 2),
            2000.0,
            grid=small_grid,
            options=sweep_opts,
            workers=workers,
        )

    assert sweep(1) == sweep(2)

    # verdicts are stable under grid refinement
    opts = PdeOptions(dt=0.01, check_interval=5.0)
    recovery = KineticParams(a1=1.1, b1=1, c1=1.2, a2=1, b2=1, c2=2, p=0.1, q=1.0)
    labels = {}
    for n_x in (128, 256):
        _, band = certified_band_state(n_x)
        _, smooth_out = simulate_pde(
            PdeParams(d1=1.0, d2=0.001, kinetics=LOPSIDED), band, 400.0, opts
        )
        _, frac_out = simulate_pde(
            PdeParams(d1=1.0, d2=0.001, kinetics=recovery), band, 400.0, opts
        )
        labels[n_x] = (smooth_out.label, frac_out.label)
    assert labels[128] == labels[256] == (U_WINS, V_WINS)

    assert time.perf_counter() - t0 < 300.0
