import math

import numpy as np
import pytest

import lvfte.ode as ode_mod
from lvfte import (
    InvalidParameter,
    KineticParams,
    NonFiniteState,
    NotASaddle,
    Stability,
    State2,
    StepLimitReached,
    StepSizeUnderflow,
    all_equilibria,
    classify_basin,
    interior_equilibria,
    rhs,
    trace_separatrix,
)
from lvfte.ode import _clip_to_box, _dp45

STRONG_SYMMETRIC = KineticParams(a1=1, b1=1, c1=2, a2=1, b2=1, c2=2)
STRONG_LOPSIDED = KineticParams(a1=1.1, b1=1, c1=1.2, a2=1, b2=1, c2=2)
# configs/separatrix_threshold.ini
THRESHOLD = KineticParams(a1=1.8, a2=3, b1=1, b2=1, c1=0.5, c2=1.8, p=0.4)


def saddle_of(params):
    saddles = [e for e in interior_equilibria(params) if e.stability is Stability.SADDLE]
    assert len(saddles) == 1
    return saddles[0]


def interpolate_v(polyline, u_query):
    pts = sorted(polyline, key=lambda s: s.u)
    for a, b in zip(pts, pts[1:]):
        if a.u <= u_query <= b.u and b.u > a.u:
            w = (u_query - a.u) / (b.u - a.u)
            return a.v + w * (b.v - a.v)
    raise AssertionError(f"u={u_query} outside the traced range")


def reference_separatrix(params, saddle, delta=1e-6, max_backward_time=200.0,
                         rtol=1e-9, atol=1e-12):
    """trace_separatrix with its own accept/reject loop per branch.

    This is the branch loop trace_separatrix used before it shared the
    adaptive loop of integrate, kept as the bit-for-bit reference: it stops
    silently on an absolute step below 1e-14 or after 200 000 attempts.
    """
    eigvals, eigvecs = np.linalg.eig(saddle.jacobian)
    eigvals = np.real(eigvals)
    stable_idx = int(np.argmin(eigvals))
    vs = np.real(eigvecs[:, stable_idx])
    vs = vs / np.linalg.norm(vs)
    if vs[0] < 0.0 or (vs[0] == 0.0 and vs[1] < 0.0):
        vs = -vs
    box = ((0.0, 2.0 * params.a1 / params.b1), (0.0, 2.0 * params.a2 / params.b2))

    def backward(u, v):
        du, dv = rhs(params, State2(u, v))
        return -du, -dv

    others = [
        eq
        for eq in all_equilibria(params)
        if math.hypot(eq.point.u - saddle.point.u, eq.point.v - saddle.point.v) > 1e-9
    ]

    def trace_branch(sign):
        u = saddle.point.u + sign * delta * float(vs[0])
        v = saddle.point.v + sign * delta * float(vs[1])
        pts = [State2(u, v)]
        t, h = 0.0, 1e-4
        (ulo, uhi), (vlo, vhi) = box
        du, dv = backward(u, v)
        for _ in range(200_000):
            if t >= max_backward_time:
                break
            if math.hypot(du, dv) < 1e-10:
                break
            if any(math.hypot(u - eq.point.u, v - eq.point.v) < 1e-6 for eq in others):
                break
            h = min(h, max_backward_time - t)
            u5, v5, k7u, k7v, eu, ev, _ = _dp45(backward, u, v, h, du, dv)
            if not (math.isfinite(u5) and math.isfinite(v5)):
                h *= 0.25
                if h < 1e-14:
                    break
                continue
            su = atol + rtol * max(abs(u), abs(u5))
            sv = atol + rtol * max(abs(v), abs(v5))
            err = math.sqrt(0.5 * ((eu / su) ** 2 + (ev / sv) ** 2))
            factor = min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0.0 else 5.0))
            if err > 1.0:
                h *= factor
                if h < 1e-14:
                    break
                continue
            t += h
            if not (ulo <= u5 <= uhi and vlo <= v5 <= vhi):
                pts.append(_clip_to_box(State2(u, v), State2(u5, v5), box))
                break
            u, v, du, dv = u5, v5, k7u, k7v
            pts.append(State2(u, v))
            h *= factor
        return pts

    return list(reversed(trace_branch(-1.0))) + [saddle.point] + trace_branch(+1.0)


def nan_rhs(params, s):
    return State2(math.nan, math.nan)


class TestTraceSeparatrix:
    def test_symmetric_case_is_the_diagonal(self):
        sep = trace_separatrix(STRONG_SYMMETRIC, saddle_of(STRONG_SYMMETRIC))
        assert len(sep.polyline) > 50
        for pt in sep.polyline:
            assert abs(pt.u - pt.v) < 1e-9

    def test_passes_through_the_saddle(self):
        saddle = saddle_of(STRONG_LOPSIDED)
        sep = trace_separatrix(STRONG_LOPSIDED, saddle)
        closest = min(
            abs(pt.u - saddle.point.u) + abs(pt.v - saddle.point.v)
            for pt in sep.polyline
        )
        assert closest < 1e-8

    def test_stays_in_the_closed_quadrant(self):
        sep = trace_separatrix(STRONG_LOPSIDED, saddle_of(STRONG_LOPSIDED))
        for pt in sep.polyline:
            assert pt.u >= -1e-12 and pt.v >= -1e-12

    def test_curve_is_a_graph_over_u_near_the_saddle(self):
        # the stable manifold enters the saddle transversally to both axes
        sep = trace_separatrix(STRONG_LOPSIDED, saddle_of(STRONG_LOPSIDED))
        us = [pt.u for pt in sep.polyline]
        assert min(us) < 0.02
        assert max(us) > 0.09

    @pytest.mark.parametrize(
        "params",
        [STRONG_SYMMETRIC, STRONG_LOPSIDED, THRESHOLD],
        ids=["symmetric", "lopsided", "separatrix_threshold"],
    )
    def test_matches_the_reference_branch_loop(self, params):
        saddle = saddle_of(params)
        assert trace_separatrix(params, saddle).polyline == reference_separatrix(params, saddle)

    def test_non_finite_state_raises(self, monkeypatch):
        saddle = saddle_of(STRONG_LOPSIDED)
        monkeypatch.setattr(ode_mod, "rhs", nan_rhs)
        with pytest.raises(NonFiniteState):
            trace_separatrix(STRONG_LOPSIDED, saddle)

    def test_step_size_underflow_raises(self):
        # no step can meet this tolerance, so every attempt is rejected
        with pytest.raises(StepSizeUnderflow):
            trace_separatrix(STRONG_LOPSIDED, saddle_of(STRONG_LOPSIDED), rtol=1e-100, atol=1e-100)

    def test_overflowing_error_norm_raises_step_size_underflow(self):
        # the scaled error overflows a float, which rejects the step
        with pytest.raises(StepSizeUnderflow):
            trace_separatrix(STRONG_LOPSIDED, saddle_of(STRONG_LOPSIDED), rtol=1e-300, atol=1e-300)

    @pytest.mark.parametrize(
        "rtol, atol", [(0.0, 1e-12), (1e-9, -1e-12), (math.nan, 1e-12), (1e-9, math.inf)]
    )
    def test_bad_tolerances_are_invalid_parameters(self, rtol, atol):
        with pytest.raises(InvalidParameter, match="tol must be positive and finite"):
            trace_separatrix(STRONG_LOPSIDED, saddle_of(STRONG_LOPSIDED), rtol=rtol, atol=atol)

    def test_step_limit_raises(self, monkeypatch):
        monkeypatch.setattr(ode_mod, "SEPARATRIX_MAX_STEPS", 20)
        with pytest.raises(StepLimitReached):
            trace_separatrix(STRONG_LOPSIDED, saddle_of(STRONG_LOPSIDED))

    def test_rejects_non_saddle_start(self):
        weak = KineticParams(a1=1, b1=1, c1=0.3, a2=2, b2=1, c2=1.8)
        sink = interior_equilibria(weak)[0]
        assert sink.stability is Stability.SINK
        with pytest.raises(NotASaddle):
            trace_separatrix(weak, sink)


class TestSeparatrixSplitsBasins:
    def test_forward_dynamics_agrees_with_the_traced_boundary(self):
        # probe points just above and below the curve at a few abscissae
        params = STRONG_LOPSIDED
        sep = trace_separatrix(params, saddle_of(params))
        for u_query in (0.02, 0.05, 0.071):
            v_sep = interpolate_v(sep.polyline, u_query)
            above = classify_basin(params, State2(u_query, v_sep * 1.05), 600.0)
            below = classify_basin(params, State2(u_query, v_sep * 0.95), 600.0)
            assert above.name == "v-axis", (u_query, v_sep, above)
            assert below.name == "u-axis", (u_query, v_sep, below)
