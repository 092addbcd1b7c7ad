import numpy as np
import pytest

import lvfte.scan as scan_mod
from lvfte import (
    Grid1D,
    InvalidParameter,
    KineticParams,
    NonConvergence,
    OutcomeGrid,
    PdeOptions,
    PdeParams,
    ResourceField,
    UNDECIDED,
    U_WINS,
    initial_state_for_policy,
    log_axis,
    scan_c1_window,
    scan_diffusion,
)

EXCLUSION = KineticParams(a1=1.8, b1=1, c1=0.5, a2=3, b2=1, c2=1.8)
WINDOW_TEMPLATE = KineticParams(a1=1, b1=1, c1=0.3, a2=2, b2=1, c2=1.8)


def const_template():
    return PdeParams(d1=1.0, d2=1.0, kinetics=EXCLUSION)


def tiny_scan(workers=1):
    return scan_diffusion(
        const_template(),
        log_axis(1e-3, 1e-1, 2),
        log_axis(1e-3, 1e-1, 2),
        2000.0,
        grid=Grid1D(0.0, 1.0, 16),
        options=PdeOptions(dt=0.05, check_interval=25.0),
        workers=workers,
    )


class TestLogAxis:
    def test_endpoints_and_spacing(self):
        axis = log_axis(1e-4, 1e-1, 4)
        assert axis[0] == pytest.approx(1e-4)
        assert axis[-1] == pytest.approx(1e-1)
        ratios = [b / a for a, b in zip(axis, axis[1:])]
        assert ratios == pytest.approx([10.0] * 3, rel=1e-12)

    def test_single_point_axis(self):
        assert log_axis(0.5, 1.0, 1) == (0.5,)

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            log_axis(1.0, 0.5, 4)
        with pytest.raises(InvalidParameter):
            log_axis(0.0, 0.5, 4)
        with pytest.raises(InvalidParameter):
            log_axis(0.1, 0.5, 0)


class TestInitialPolicy:
    def test_constant_kinetics_policy(self):
        g = Grid1D(0.0, 1.0, 16)
        state = initial_state_for_policy(const_template(), g, 0.01)
        assert state.u.tobytes() == np.full(16, 1.8 / (2.0 * 1.0) + 0.01).tobytes()
        assert state.v.tobytes() == state.u.tobytes()

    def test_resource_policy_follows_the_profile(self):
        g = Grid1D(0.0, 1.0, 16)
        x = g.centers()
        m = ResourceField(g, x * (1 - x))
        template = PdeParams(d1=1.0, d2=1.0, b=0.999, c=0.999, p=1.0, m=m)
        state = initial_state_for_policy(template, g, 0.01)
        assert state.u.tobytes() == (m.values / 2.0 + 0.01).tobytes()
        assert state.v.tobytes() == state.u.tobytes()

    def test_nonpositive_offset_rejected(self):
        g = Grid1D(0.0, 1.0, 16)
        with pytest.raises(InvalidParameter):
            initial_state_for_policy(const_template(), g, 0.0)


class TestScanDiffusion:
    def test_labels_are_placed_by_axis_indices(self):
        result = tiny_scan()
        assert isinstance(result, OutcomeGrid)
        assert result.labels == ((U_WINS, U_WINS), (U_WINS, U_WINS))
        assert result.count(U_WINS) == 4
        assert len(result.labels) == len(result.d1_values) == 2
        assert all(len(row) == len(result.d2_values) == 2 for row in result.labels)

    def test_deterministic_across_runs(self):
        assert tiny_scan() == tiny_scan()

    def test_parallel_matches_serial(self):
        assert tiny_scan(workers=2) == tiny_scan(workers=1)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise AttributeError("patched")

        monkeypatch.setattr(scan_mod, "simulate_pde", broken)
        with pytest.raises(AttributeError, match="patched"):
            tiny_scan()

    def test_cell_failures_become_undecided_notes(self, monkeypatch):
        # A numerical failure (LvfteError) in one cell is a verdict, not an abort.
        def boom(*args, **kwargs):
            raise NonConvergence("injected fault")

        monkeypatch.setattr(scan_mod, "simulate_pde", boom)
        result = tiny_scan()
        assert result.count(UNDECIDED) == 4
        for row in result.notes:
            for note in row:
                assert note == "NonConvergence: injected fault"

    def test_scan_validation(self):
        with pytest.raises(InvalidParameter):
            scan_diffusion(const_template(), (), (1e-3,), 10.0, options=PdeOptions(), workers=1)
        with pytest.raises(InvalidParameter):
            scan_diffusion(const_template(), (1e-3,), (1e-3,), -1.0, options=PdeOptions(),
                           workers=1)


class TestScanC1Window:
    def test_two_point_sweep_hits_both_variants(self):
        ws = scan_c1_window(WINDOW_TEMPLATE, 0.3, 0.47, 2, 0.6, 0.9)
        assert ws.c1_values == pytest.approx((0.3, 0.47))
        assert ws.counts_p == (2, 0)
        assert ws.counts_q == (0, 2)
        assert ws.in_regime == (True, True)
        assert ws.windows_p == ((0.3, 0.3),)
        assert ws.windows_q == ((0.47, 0.47),)

    def test_dense_sweep_window_structure(self):
        # counts verified independently with scipy.optimize.brentq on the
        # nullcline reductions at every sample
        ws = scan_c1_window(WINDOW_TEMPLATE, 0.25, 0.5, 18, 0.6, 0.9)
        assert ws.counts_p == (2,) * 8 + (0,) * 10
        assert ws.counts_q == (0,) * 13 + (2,) * 4 + (1,)
        assert ws.in_regime == (True,) * 17 + (False,)
        assert len(ws.windows_p) == 1 and len(ws.windows_q) == 1
        assert ws.windows_p[0] == pytest.approx((ws.c1_values[0], ws.c1_values[7]))
        assert ws.windows_q[0] == pytest.approx((ws.c1_values[13], ws.c1_values[16]))
        # the two mechanisms occupy disjoint c1 ranges, fractional p first
        assert ws.windows_p[0][1] < ws.windows_q[0][0]

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            scan_c1_window(WINDOW_TEMPLATE, 0.5, 0.3, 4, 0.6, 0.9)
        with pytest.raises(InvalidParameter):
            scan_c1_window(WINDOW_TEMPLATE, 0.3, 0.5, 1, 0.6, 0.9)
        with pytest.raises(InvalidParameter):
            scan_c1_window(WINDOW_TEMPLATE, 0.3, 0.5, 4, 1.0, 0.9)
