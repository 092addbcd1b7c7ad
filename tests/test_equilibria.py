import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lvfte import (
    EquilibriumKind,
    InvalidParameter,
    KineticParams,
    NullclineSide,
    SingularLinearization,
    Species,
    Stability,
    State2,
    all_equilibria,
    boundary_equilibria,
    classify_stability,
    interior_equilibria,
    jacobian,
    nullcline_value,
    rhs,
)
from lvfte.equilibria import (
    DEDUPE_FRACTION,
    SCAN_POINTS,
    _crossing,
    _refine_bracket,
    _refine_tangency,
    scalar_roots,
)

# Root positions frozen from an independent scipy.optimize.brentq pass over
# the same nullcline reductions (xtol 1e-14).
MIXED_SADDLE_SINK = KineticParams(a1=1.8, b1=1, c1=0.5, a2=3, b2=1, c2=1.8, p=1.0, q=0.3)
MIXED_ROOTS = ((0.578811655203, 2.442376689593), (1.132312105631, 1.335375788738))

FRACTIONAL_P_SADDLE = KineticParams(a1=1.8, b1=1, c1=0.5, a2=3, b2=1, c2=1.8, p=0.4, q=1.0)
FRACTIONAL_P_ROOT = (0.679287681886, 1.777282172605)

WEAK = KineticParams(a1=1, b1=1, c1=0.3, a2=2, b2=1, c2=1.8)
STRONG_SYMMETRIC = KineticParams(a1=1, b1=1, c1=2, a2=1, b2=1, c2=2)


class TestNullclines:
    def test_linear_branches(self):
        k = WEAK
        g = NullclineSide(Species.V, "u")
        assert nullcline_value(k, g, 0.0) == pytest.approx(2.0)  # a2/b2
        assert nullcline_value(k, g, 1.0) == pytest.approx((2 - 1.8) / 1)
        f1 = NullclineSide(Species.U, "v")
        assert nullcline_value(k, f1, 0.0) == pytest.approx(1.0)  # a1/b1

    def test_power_branch_at_zero(self):
        # u^(1-p) -> 1 when p = 1, -> 0 when p < 1
        f = NullclineSide(Species.U, "u")
        assert nullcline_value(MIXED_SADDLE_SINK, f, 0.0) == pytest.approx(3.6)
        assert nullcline_value(FRACTIONAL_P_SADDLE, f, 0.0) == 0.0

    def test_power_branch_value(self):
        f = NullclineSide(Species.U, "u")
        k = FRACTIONAL_P_SADDLE
        u = 0.5
        assert nullcline_value(k, f, u) == pytest.approx(
            u**0.6 * (1.8 - u) / 0.5, rel=1e-14
        )

    def test_rejects_negative_coordinate(self):
        with pytest.raises(InvalidParameter):
            nullcline_value(WEAK, NullclineSide(Species.U, "u"), -0.1)

    def test_rejects_bad_parameterization(self):
        with pytest.raises(InvalidParameter):
            NullclineSide(Species.U, "x")


class TestJacobian:
    def test_matches_finite_differences(self):
        k = FRACTIONAL_P_SADDLE
        at = State2(0.7, 1.3)
        J = jacobian(k, at)
        eps = 1e-7
        for col, (du, dv) in enumerate([(eps, 0.0), (0.0, eps)]):
            plus = rhs(k, State2(at.u + du, at.v + dv))
            minus = rhs(k, State2(at.u - du, at.v - dv))
            fd = (np.array(plus) - np.array(minus)) / (2 * eps)
            assert J[:, col] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_singular_at_axis_with_fractional_power(self):
        with pytest.raises(SingularLinearization):
            jacobian(FRACTIONAL_P_SADDLE, State2(0.0, 3.0))
        with pytest.raises(SingularLinearization):
            jacobian(MIXED_SADDLE_SINK, State2(1.8, 0.0))

    def test_defined_at_axis_with_unit_power(self):
        J = jacobian(MIXED_SADDLE_SINK, State2(0.0, 3.0))
        assert J[0, 0] == pytest.approx(1.8 - 0.5 * 3)
        assert J[0, 1] == 0.0

    def test_rejects_negative_state(self):
        with pytest.raises(InvalidParameter):
            jacobian(WEAK, State2(-0.1, 1.0))


class TestClassifyStability:
    @pytest.mark.parametrize(
        "matrix,expected",
        [
            ([[1, 0], [0, 2]], Stability.SOURCE),
            ([[-1, 0], [0, -2]], Stability.SINK),
            ([[1, 0], [0, -1]], Stability.SADDLE),
            ([[0, 1], [-1, 0]], Stability.CENTER),
            ([[-1, 1], [-1, -1]], Stability.SPIRAL_SINK),
            ([[1, 1], [-1, 1]], Stability.SPIRAL_SOURCE),
            ([[0, 0], [0, 1]], Stability.NON_HYPERBOLIC),
        ],
    )
    def test_synthetic_matrices(self, matrix, expected):
        assert classify_stability(np.array(matrix, dtype=float)) is expected


class TestBoundaryEquilibria:
    def test_smooth_case_kinds_and_stability(self):
        k = KineticParams(a1=1.8, b1=1, c1=0.5, a2=3, b2=1, c2=1.8)
        eqs = boundary_equilibria(k)
        by_kind = {eq.kind: eq for eq in eqs}
        assert set(by_kind) == {
            EquilibriumKind.ORIGIN,
            EquilibriumKind.U_AXIS,
            EquilibriumKind.V_AXIS,
        }
        assert by_kind[EquilibriumKind.ORIGIN].stability is Stability.SOURCE
        u_axis = by_kind[EquilibriumKind.U_AXIS]
        assert u_axis.point == pytest.approx((1.8, 0.0))
        assert u_axis.stability is Stability.SINK
        v_axis = by_kind[EquilibriumKind.V_AXIS]
        assert v_axis.point == pytest.approx((0.0, 3.0))
        assert v_axis.stability is Stability.SADDLE

    def test_fractional_q_leaves_axis_unclassifiable(self):
        eqs = boundary_equilibria(MIXED_SADDLE_SINK)
        by_kind = {eq.kind: eq for eq in eqs}
        for kind in (EquilibriumKind.ORIGIN, EquilibriumKind.U_AXIS):
            assert by_kind[kind].stability is Stability.UNCLASSIFIABLE
            assert by_kind[kind].jacobian is None
        # v-axis has v = 3 > 0 and p = 1, so its linearization exists
        assert by_kind[EquilibriumKind.V_AXIS].stability is Stability.SADDLE


class TestInteriorEquilibria:
    def test_mixed_exponent_pair_matches_frozen_roots(self):
        eqs = interior_equilibria(MIXED_SADDLE_SINK)
        assert len(eqs) == 2
        for eq, (u_ref, v_ref) in zip(eqs, MIXED_ROOTS):
            assert eq.point.u == pytest.approx(u_ref, abs=1e-9)
            assert eq.point.v == pytest.approx(v_ref, abs=1e-9)
        assert eqs[0].stability is Stability.SINK
        assert eqs[1].stability is Stability.SADDLE

    def test_fractional_p_single_saddle(self):
        eqs = interior_equilibria(FRACTIONAL_P_SADDLE)
        assert len(eqs) == 1
        assert eqs[0].point.u == pytest.approx(FRACTIONAL_P_ROOT[0], abs=1e-9)
        assert eqs[0].point.v == pytest.approx(FRACTIONAL_P_ROOT[1], abs=1e-9)
        assert eqs[0].stability is Stability.SADDLE

    def test_weak_regime_closed_form(self):
        eqs = interior_equilibria(WEAK)
        assert len(eqs) == 1
        den = 1 * 1 - 0.3 * 1.8
        assert eqs[0].point.u == pytest.approx((1 * 1 - 0.3 * 2) / den, rel=1e-10)
        assert eqs[0].point.v == pytest.approx((2 * 1 - 1.8 * 1) / den, rel=1e-10)
        assert eqs[0].stability is Stability.SINK

    def test_strong_symmetric_saddle(self):
        eqs = interior_equilibria(STRONG_SYMMETRIC)
        assert len(eqs) == 1
        assert eqs[0].point == pytest.approx((1 / 3, 1 / 3), rel=1e-10)
        assert eqs[0].stability is Stability.SADDLE

    def test_exclusion_regime_has_no_interior(self):
        k = KineticParams(a1=1.8, b1=1, c1=0.5, a2=3, b2=1, c2=1.8)
        assert interior_equilibria(k) == []

    def test_residuals_vanish_at_reported_points(self):
        for k in (MIXED_SADDLE_SINK, FRACTIONAL_P_SADDLE, WEAK, STRONG_SYMMETRIC):
            for eq in interior_equilibria(k):
                du, dv = rhs(k, eq.point)
                assert abs(du) < 1e-9 and abs(dv) < 1e-9

    @given(
        a1=st.floats(0.5, 3.0),
        a2=st.floats(0.5, 3.0),
        b1=st.floats(0.5, 3.0),
        b2=st.floats(0.5, 3.0),
        f1=st.floats(0.05, 0.9),
        f2=st.floats(0.05, 0.9),
    )
    @settings(max_examples=40, deadline=None)
    def test_weak_regime_always_single_interior_at_closed_form(
        self, a1, a2, b1, b2, f1, f2
    ):
        # c1, c2 scaled inside the weak wedge by construction
        c1 = f1 * b2 * a1 / a2
        c2 = f2 * b1 * a2 / a1
        k = KineticParams(a1=a1, b1=b1, c1=c1, a2=a2, b2=b2, c2=c2)
        den = b1 * b2 - c1 * c2
        u_star = (a1 * b2 - c1 * a2) / den
        v_star = (a2 * b1 - c2 * a1) / den
        eqs = interior_equilibria(k)
        assert len(eqs) == 1
        assert eqs[0].point.u == pytest.approx(u_star, rel=1e-6)
        assert eqs[0].point.v == pytest.approx(v_star, rel=1e-6)


class TestAllEquilibria:
    def test_order_boundary_first_then_interior_by_u(self):
        eqs = all_equilibria(MIXED_SADDLE_SINK)
        kinds = [eq.kind for eq in eqs]
        assert kinds[:3] == [
            EquilibriumKind.ORIGIN,
            EquilibriumKind.U_AXIS,
            EquilibriumKind.V_AXIS,
        ]
        interior = eqs[3:]
        assert [eq.kind for eq in interior] == [EquilibriumKind.INTERIOR] * 2
        assert interior[0].point.u < interior[1].point.u


def _loop_scan(fn, lo, hi, points=SCAN_POINTS):
    """Reference for scalar_roots: the list-based scan it replaced, calling fn
    one float at a time and finding brackets with Python loops."""
    xs = np.linspace(lo, hi, points + 2)[1:-1]
    fs = np.array([fn(float(x)) for x in xs])
    scale = float(np.max(np.abs(fs))) or 1.0
    roots = []
    for i in range(len(xs) - 1):
        if fs[i] == 0.0:
            roots.append(float(xs[i]))
        elif fs[i] * fs[i + 1] < 0.0:
            roots.append(_refine_bracket(fn, float(xs[i]), float(xs[i + 1])))
    if fs[-1] == 0.0:
        roots.append(float(xs[-1]))
    for i in range(1, len(xs) - 1):
        a = abs(fs[i])
        if a <= abs(fs[i - 1]) and a <= abs(fs[i + 1]) and a < 1e-9 * scale:
            if fs[i - 1] * fs[i + 1] > 0.0 and fs[i] != 0.0:
                x = _refine_tangency(fn, float(xs[i - 1]), float(xs[i + 1]))
                if abs(fn(x)) <= 1e-10 * scale:
                    roots.append(x)
    deduped = []
    for r in sorted(roots):
        if not deduped or r - deduped[-1] > DEDUPE_FRACTION * (hi - lo):
            deduped.append(r)
    return deduped


class TestScalarRoots:
    XS = np.linspace(0.0, 1.0, SCAN_POINTS + 2)[1:-1]  # the scan points on (0, 1)

    def test_double_root_on_a_scan_point_reported_once(self):
        x0 = float(self.XS[700])
        fn = lambda x: (x - x0) ** 2  # noqa: E731
        assert scalar_roots(fn, 0.0, 1.0) == [x0] == _loop_scan(fn, 0.0, 1.0)

    def test_grazing_root_next_to_a_scan_point_reported_once(self):
        # no sign change anywhere; |fn| dips to 1e-14 at the nearest scan point
        x0 = float(self.XS[700]) + 1e-7
        fn = lambda x: (x - x0) ** 2  # noqa: E731
        roots = scalar_roots(fn, 0.0, 1.0)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(x0, abs=1e-5)
        assert roots == _loop_scan(fn, 0.0, 1.0)

    @pytest.mark.parametrize("shift", [0.5 / (SCAN_POINTS + 1), 3e-5], ids=["halfway", "3e-5-past"])
    def test_grazing_root_between_scan_points_is_found(self, shift):
        # |fn| at the nearest scan point is far above 1e-9 of the scale, but
        # the parabola through the three scan values around it touches zero
        x0 = float(self.XS[700]) + shift
        fn = lambda x: (x - x0) ** 2  # noqa: E731
        roots = scalar_roots(fn, 0.0, 1.0)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(x0, abs=1e-6)

    def test_simple_roots_and_a_root_on_a_scan_point(self):
        x0 = float(self.XS[300])
        fn = lambda x: (x - x0) * (x - 0.61)  # noqa: E731
        roots = scalar_roots(fn, 0.0, 1.0)
        assert roots[0] == x0
        assert roots[1] == pytest.approx(0.61, abs=1e-14)
        assert roots == _loop_scan(fn, 0.0, 1.0)

    @pytest.mark.parametrize("branch", ["q=1", "p=1", "mixed"])
    def test_array_scan_matches_pointwise_evaluation(self, branch):
        # The crossing function of each branch of interior_equilibria, scanned
        # as one array, must bracket the same roots as evaluating it point by
        # point, so the refined roots agree bit for bit.
        rng = np.random.default_rng({"q=1": 11, "p=1": 12, "mixed": 13}[branch])
        found = 0
        for _ in range(100):
            p, q = rng.uniform(0.1, 0.95, 2)
            p, q = {"q=1": (p, 1.0), "p=1": (1.0, q), "mixed": (p, q)}[branch]
            k = KineticParams(*rng.uniform(0.3, 3.0, 6), p=p, q=q)
            fn, hi, _ = _crossing(k)
            xs = np.linspace(0.0, hi, SCAN_POINTS + 2)[1:-1]
            pointwise = np.array([fn(float(x)) for x in xs])
            assert np.array_equal(np.sign(fn(xs)), np.sign(pointwise))
            roots = scalar_roots(fn, 0.0, hi)
            assert roots == _loop_scan(fn, 0.0, hi)
            found += len(roots)
        assert found > 50  # the draws do cross


class TestArrayNullclines:
    def test_array_matches_scalar_values(self):
        xs = np.linspace(0.0, 2.0, 9)
        for k in (FRACTIONAL_P_SADDLE, MIXED_SADDLE_SINK):
            for side in (NullclineSide(Species.U, "u"), NullclineSide(Species.V, "v")):
                scalar = [nullcline_value(k, side, float(x)) for x in xs]
                assert nullcline_value(k, side, xs) == pytest.approx(scalar, rel=1e-14, abs=1e-15)

    def test_rejects_a_negative_entry(self):
        with pytest.raises(InvalidParameter):
            nullcline_value(WEAK, NullclineSide(Species.U, "u"), np.array([0.5, -0.1]))
