import math

import pytest
from hypothesis import given, settings, strategies as st

from lvfte import (
    HarvestParams,
    InvalidParameter,
    KineticParams,
    Regime,
    State2,
    classify_regime,
    harvest_rhs,
    rhs,
    safe_pow,
)


def k(a1, b1, c1, a2, b2, c2, p=1.0, q=1.0):
    return KineticParams(a1=a1, b1=b1, c1=c1, a2=a2, b2=b2, c2=c2, p=p, q=q)


class TestSafePow:
    def test_zero_base_fractional_exponent_is_zero(self):
        assert safe_pow(0.0, 0.5) == 0.0
        assert safe_pow(0.0, 0.1) == 0.0

    def test_exponent_one_is_identity(self):
        for x in (0.0, 1e-300, 0.3, 2.0, 17.5):
            assert safe_pow(x, 1.0) == x

    def test_matches_math_pow_for_positive_base(self):
        assert safe_pow(4.0, 0.5) == pytest.approx(2.0, abs=1e-15)
        assert safe_pow(2.0, 0.3) == pytest.approx(math.pow(2.0, 0.3), abs=1e-15)

    def test_negative_base_clamps_to_zero(self):
        # negative densities are rounding artifacts, never real states
        assert safe_pow(-1e-9, 0.5) == 0.0


class TestKineticParams:
    def test_rejects_nonpositive_coefficients(self):
        with pytest.raises(InvalidParameter):
            k(-1.8, 1, 0.5, 3, 1, 1.8)
        with pytest.raises(InvalidParameter):
            k(1.8, 0.0, 0.5, 3, 1, 1.8)

    def test_rejects_exponents_outside_unit_interval(self):
        with pytest.raises(InvalidParameter):
            k(1.8, 1, 0.5, 3, 1, 1.8, p=0.0)
        with pytest.raises(InvalidParameter):
            k(1.8, 1, 0.5, 3, 1, 1.8, p=1.5)
        with pytest.raises(InvalidParameter):
            k(1.8, 1, 0.5, 3, 1, 1.8, q=-0.2)

    def test_accepts_boundary_exponent_one(self):
        params = k(1.8, 1, 0.5, 3, 1, 1.8, p=1.0, q=0.3)
        assert params.p == 1.0 and params.q == 0.3

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidParameter):
            k(float("nan"), 1, 0.5, 3, 1, 1.8)
        with pytest.raises(InvalidParameter):
            k(float("inf"), 1, 0.5, 3, 1, 1.8)


class TestRhs:
    def test_origin_is_a_fixed_point(self):
        params = k(1.8, 1, 0.5, 3, 1, 1.8, p=0.4, q=0.3)
        assert rhs(params, State2(0.0, 0.0)) == State2(0.0, 0.0)

    def test_axis_states_with_fractional_exponents(self):
        # u = 0 with p < 1 must not produce NaN from 0**negative
        params = k(1.8, 1, 0.5, 3, 1, 1.8, p=0.4, q=1.0)
        du, dv = rhs(params, State2(0.0, 3.0))
        assert du == 0.0
        assert dv == pytest.approx(3 * (3 - 3), abs=1e-15)

    def test_matches_hand_formula(self):
        params = k(1.8, 1, 0.5, 3, 1, 1.8, p=0.4, q=0.3)
        u, v = 0.7, 1.3
        du, dv = rhs(params, State2(u, v))
        assert du == pytest.approx(1.8 * u - u * u - 0.5 * u**0.4 * v, rel=1e-14)
        assert dv == pytest.approx(3 * v - v * v - 1.8 * u * v**0.3, rel=1e-14)

    @given(
        u=st.floats(0.0, 10.0),
        v=st.floats(0.0, 10.0),
        p=st.floats(0.05, 1.0),
        q=st.floats(0.05, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_rhs_agrees_with_direct_evaluation(self, u, v, p, q):
        params = k(1.1, 1, 1.2, 1, 1, 2, p=p, q=q)
        du, dv = rhs(params, State2(u, v))
        up = math.pow(u, p) if u > 0 else 0.0
        vq = math.pow(v, q) if v > 0 else 0.0
        assert du == pytest.approx(1.1 * u - u * u - 1.2 * up * v, rel=1e-12, abs=1e-12)
        assert dv == pytest.approx(1.0 * v - v * v - 2.0 * u * vq, rel=1e-12, abs=1e-12)


class TestRegimes:
    def test_exclusion_u_wins(self):
        # a1/a2 = 0.6 exceeds both b1/c2 = 0.556 and c1/b2 = 0.5
        assert classify_regime(k(1.8, 1, 0.5, 3, 1, 1.8)) is Regime.EXCLUSION_U_WINS

    def test_exclusion_v_wins(self):
        # a1/a2 = 1/3 below min(b1/c2, c1/b2) = 0.5
        assert classify_regime(k(1, 1, 0.5, 3, 1, 1.8)) is Regime.EXCLUSION_V_WINS

    def test_weak_competition(self):
        # b1/c2 = 0.556 > a1/a2 = 0.5 > c1/b2 = 0.3
        assert classify_regime(k(1, 1, 0.3, 2, 1, 1.8)) is Regime.WEAK_COMPETITION

    def test_strong_competition(self):
        # c1/b2 = 2 > a1/a2 = 1 > b1/c2 = 0.5
        assert classify_regime(k(1, 1, 2, 1, 1, 2)) is Regime.STRONG_COMPETITION

    def test_degenerate_on_exact_tie(self):
        # a1/a2 == b1/c2 == 1
        assert classify_regime(k(1, 1, 2, 1, 1, 1)) is Regime.DEGENERATE

    def test_tags_are_stable_strings(self):
        assert classify_regime(k(1.8, 1, 0.5, 3, 1, 1.8)).value == "ExclusionUWins"
        assert classify_regime(k(1, 1, 2, 1, 1, 2)).value == "StrongCompetition"

    @given(scale=st.floats(1e-3, 1e3))
    @settings(max_examples=40, deadline=None)
    def test_regime_invariant_under_common_scaling(self, scale):
        # the regime depends only on coefficient ratios
        base = k(1, 1, 0.3, 2, 1, 1.8)
        scaled = k(
            scale * 1, scale * 1, scale * 0.3, scale * 2, scale * 1, scale * 1.8
        )
        assert classify_regime(scaled) is classify_regime(base)

    def test_regime_independent_of_exponents(self):
        with_exp = k(1, 1, 0.3, 2, 1, 1.8, p=0.6, q=0.9)
        assert classify_regime(with_exp) is Regime.WEAK_COMPETITION


class TestHarvestParams:
    def base(self):
        return k(1.8, 1, 0.5, 3, 1, 1.7, q=0.1)

    def test_split_fractions_must_sum_to_one(self):
        with pytest.raises(InvalidParameter):
            HarvestParams(base=self.base(), d=0.45, e=0.5)
        HarvestParams(base=self.base(), d=0.45, e=0.55)

    def test_split_sum_tolerance_is_tight(self):
        HarvestParams(base=self.base(), d=0.45, e=0.55 + 5e-13)
        with pytest.raises(InvalidParameter):
            HarvestParams(base=self.base(), d=0.45, e=0.55 + 5e-12)

    def test_interspecific_coefficient_defaults_to_one(self):
        hp = HarvestParams(base=self.base(), d=0.45, e=0.55)
        assert hp.a == 1.0

    def test_rhs_matches_hand_formula(self):
        hp = HarvestParams(base=self.base(), d=0.45, e=0.55)
        u, v = 1.5, 2.0
        du, dv = harvest_rhs(hp, State2(u, v))
        assert du == pytest.approx(u * (1.8 - u) - 0.5 * 1.0 * u * v, rel=1e-14)
        assert dv == pytest.approx(
            v * (3 - v) - 1.7 * 0.45 * u * v - 1.7 * 0.55 * v**0.1, rel=1e-14
        )

    def test_harvest_origin_not_fixed(self):
        # the e*v^q drain acts even at v=0+ only through v^q; at exactly 0 it
        # vanishes, so the origin is still a fixed point
        hp = HarvestParams(base=self.base(), d=0.45, e=0.55)
        assert harvest_rhs(hp, State2(0.0, 0.0)) == State2(0.0, 0.0)
