"""Time integration of the non-Lipschitz competition ODEs.

Provides an adaptive embedded Runge-Kutta (Dormand-Prince 4/5) integrator
with extinction-event detection and clamping, sufficient-condition
predicates for finite-time extinction, stable-manifold (separatrix)
tracing by backward integration, basin classification, and the closed-form
solution of the scalar comparison equation

    dg/dt = -C4 * exp(-C6*t) * g**alpha,   0 < alpha < 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .equilibria import Equilibrium, EquilibriumKind, Stability, all_equilibria
from .exceptions import (
    InvalidParameter,
    NonFiniteState,
    NotASaddle,
    StepLimitReached,
    StepSizeUnderflow,
)
from .kinetics import (
    AnyParams,
    HarvestParams,
    KineticParams,
    Species,
    State2,
    harvest_rhs,
    rhs,
)

# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) coefficients
# ---------------------------------------------------------------------------

_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168,
    -355 / 33,
    46732 / 5247,
    49 / 176,
    -5103 / 18656,
)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# Difference between the 5th- and 4th-order weights (error estimator).
_E1 = 35 / 384 - 5179 / 57600
_E3 = 500 / 1113 - 7571 / 16695
_E4 = 125 / 192 - 393 / 640
_E5 = -2187 / 6784 + 92097 / 339200
_E6 = 11 / 84 - 187 / 2100
_E7 = -1 / 40
# Dense output: over the step, y(t + th*h) = y0 + th*(r2 + (1-th)*(r3 + th*(r4 + (1-th)*r5)))
# with r5 = h * (D1*k1 + D3*k3 + ... + D7*k7) (Hairer, Norsett & Wanner, Solving
# ODEs I, sec. II.6).
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075 / 11282082432,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
)

Rhs2 = Callable[[float, float], Tuple[float, float]]


def _dp45(f: Rhs2, u: float, v: float, h: float, k1u: float, k1v: float):
    """One Dormand-Prince step of size h from (u, v), given k1 = f(u, v).

    Returns (u5, v5, k7u, k7v, err_u, err_v, stages); k7 = f(u5, v5) is the
    next step's k1 (first same as last), and stages = (k3u, k3v, k4u, k4v,
    k5u, k5v, k6u, k6v) are what the dense output needs besides k1 and k7.
    """
    k2u, k2v = f(u + h * (_A21 * k1u), v + h * (_A21 * k1v))
    k3u, k3v = f(u + h * (_A31 * k1u + _A32 * k2u), v + h * (_A31 * k1v + _A32 * k2v))
    k4u, k4v = f(
        u + h * (_A41 * k1u + _A42 * k2u + _A43 * k3u),
        v + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v),
    )
    k5u, k5v = f(
        u + h * (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u),
        v + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v),
    )
    k6u, k6v = f(
        u + h * (_A61 * k1u + _A62 * k2u + _A63 * k3u + _A64 * k4u + _A65 * k5u),
        v + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v + _A64 * k4v + _A65 * k5v),
    )
    u5 = u + h * (_B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
    v5 = v + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
    k7u, k7v = f(u5, v5)
    err_u = h * (_E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u + _E6 * k6u + _E7 * k7u)
    err_v = h * (_E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v + _E7 * k7v)
    return u5, v5, k7u, k7v, err_u, err_v, (k3u, k3v, k4u, k4v, k5u, k5v, k6u, k6v)


def _interpolant(h, y0, y1, k1, k3, k4, k5, k6, k7) -> Tuple[float, float, float, float]:
    """(c1, c2, c3, c4) with y(t + th*h) = y0 + th*(c1 + th*(c2 + th*(c3 + th*c4))),
    the dense output of one component over an accepted step, th in [0, 1]."""
    r2 = y1 - y0
    r3 = h * k1 - r2
    r4 = r2 - h * k7 - r3
    r5 = h * (_D1 * k1 + _D3 * k3 + _D4 * k4 + _D5 * k5 + _D6 * k6 + _D7 * k7)
    return r2 + r3, r4 + r5 - r3, -r4 - 2.0 * r5, r5


def _horner(y0: float, c, th: float) -> float:
    """The interpolant y0 + th*(c1 + th*(c2 + th*(c3 + th*c4))) at th."""
    c1, c2, c3, c4 = c
    return y0 + th * (c1 + th * (c2 + th * (c3 + th * c4)))


def _dense_root(y0: float, c, level: float) -> float:
    """th in (0, 1] where the interpolant falls to level, given
    y(0) >= level > y(1): Newton steps kept inside the bracket, with
    bisection where a step would leave it."""
    c1, c2, c3, c4 = c
    lo, hi = 0.0, 1.0
    th = (y0 - level) / -(c1 + c2 + c3 + c4)  # where the chord falls to level
    for _ in range(100):
        g = _horner(y0, c, th) - level
        if g == 0.0:
            return th
        if g > 0.0:
            lo = th
        else:
            hi = th
        dg = c1 + th * (2.0 * c2 + th * (3.0 * c3 + th * 4.0 * c4))
        nxt = th - g / dg if dg != 0.0 else lo
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - th) <= 1e-15 or hi - lo <= 1e-15:
            return nxt
        th = nxt
    return th


def _adaptive_dp45(
    f: Rhs2, t: float, u: float, v: float, k1u: float, k1v: float, h: float, t_end: float,
    rtol: float, atol: float, max_steps: int, accept, trajectory=None,
) -> None:
    """Adaptive Dormand-Prince steps from (t, u, v), with k1 = f(u, v), to t_end.

    Attempts are clipped to t_end.  A non-finite result is retried with h/4
    and a rejected one with h * factor, until h falls below
    1e-14 * max(1, |t|) (NonFiniteState, StepSizeUnderflow); max_steps
    attempts end in StepLimitReached.  The errors carry ``trajectory``.
    Each accepted step calls accept(t, h, u, v, k1u, k1v, u5, v5, k7u, k7v,
    factor, stages), with k7 = f(u5, v5), h * factor the proposed next step
    and stages those of _dp45; it returns the next (t, u, v, k1u, k1v, h), or
    None to stop.
    """
    steps = 0
    while t < t_end:
        if steps >= max_steps:
            raise StepLimitReached(
                f"max_steps={max_steps} used up at t={t:.6g} of t_end={t_end:.6g}",
                trajectory=trajectory,
            )
        steps += 1
        h = min(h, t_end - t)
        u5, v5, k7u, k7v, eu, ev, stages = _dp45(f, u, v, h, k1u, k1v)
        if not (math.isfinite(u5) and math.isfinite(v5)):
            h *= 0.25
            if h < 1e-14 * max(1.0, abs(t)):
                raise NonFiniteState(
                    f"state became non-finite near t={t:.6g}", trajectory=trajectory
                )
            continue
        # Scaled RMS error; factor sizes the next attempt, the retry included.
        su = atol + rtol * max(abs(u), abs(u5))
        sv = atol + rtol * max(abs(v), abs(v5))
        try:
            err = math.sqrt(0.5 * ((eu / su) ** 2 + (ev / sv) ** 2))
        except OverflowError:  # tolerances far below the error: reject
            err = math.inf
        factor = min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0.0 else 5.0))
        if err > 1.0:
            h *= factor
            if h < 1e-14 * max(1.0, abs(t)):
                raise StepSizeUnderflow(
                    f"step size underflow near t={t:.6g}", trajectory=trajectory
                )
            continue
        nxt = accept(t, h, u, v, k1u, k1v, u5, v5, k7u, k7v, factor, stages)
        if nxt is None:
            return
        t, u, v, k1u, k1v, h = nxt


# ---------------------------------------------------------------------------
# Trajectory containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FteEvent:
    """A species reaching exactly zero at finite time t_star."""

    species: Species
    t_star: float


@dataclass(frozen=True)
class Attractor:
    """Terminal label of a trajectory: a named point it locked onto."""

    name: str  # origin | u-axis | v-axis | interior | steady | undecided
    point: State2


@dataclass
class Trajectory:
    """Time-stamped state samples with extinction events and a terminal label.

    terminal is None when integration reached t_end without locking onto
    an equilibrium.
    """

    samples: List[Tuple[float, State2]] = field(default_factory=list)
    events: List[FteEvent] = field(default_factory=list)
    terminal: Optional[Attractor] = None

    @property
    def times(self) -> List[float]:
        return [t for t, _ in self.samples]

    @property
    def final_state(self) -> State2:
        return self.samples[-1][1]


@dataclass
class IntegrateOptions:
    rtol: float = 1e-9
    atol: float = 1e-12
    max_steps: int = 10_000_000


EPS_EXT = 1e-10  # extinction clamp threshold
LOCK_RADIUS = 1e-6  # distance for terminal lock-on
LOCK_SPEED = 1e-8  # speed for terminal lock-on
# s at which x' is taken for its limit at x = 0+ (x = s**(1 - e) > 0 there).
_S_TINY = 1e-200

_REPELLING = (Stability.SOURCE, Stability.SPIRAL_SOURCE, Stability.SADDLE)

_KIND_NAMES = {
    EquilibriumKind.ORIGIN: "origin",
    EquilibriumKind.U_AXIS: "u-axis",
    EquilibriumKind.V_AXIS: "v-axis",
    EquilibriumKind.INTERIOR: "interior",
}


def _check_tolerances(rtol: float, atol: float) -> None:
    for name, value in (("rtol", rtol), ("atol", atol)):
        if not (math.isfinite(value) and value > 0.0):
            raise InvalidParameter(f"{name} must be positive and finite, got {value!r}")


def _loss_exponents(params: AnyParams) -> Tuple[float, float]:
    """The exponent e of each species' sub-linear loss term -B*s**e, or 1.0
    for a species without one.  A species with e < 1 can reach 0 in finite
    time."""
    if isinstance(params, HarvestParams):
        return 1.0, params.base.q if params.e > 0.0 else 1.0
    return params.p, params.q


@functools.lru_cache(maxsize=256)
def _known_equilibria(params: KineticParams) -> Tuple[Equilibrium, ...]:
    """all_equilibria(params), computed once per parameter value."""
    return tuple(all_equilibria(params))


def integrate(
    params: AnyParams,
    ic: State2,
    t_end: float,
    opts: Optional[IntegrateOptions] = None,
) -> Trajectory:
    """Integrate from ic over [0, t_end] with extinction clamping.

    A species whose loss term is -B*s**e with e < 1 can reach 0 in finite
    time, and near that time s falls like (t* - t)**(1/(1 - e)), which no
    Runge-Kutta step resolves.  So each such species is carried as
    x = s**(1 - e), which crosses 0 with a non-zero slope.  Its x' comes
    from rhs by the chain rule, x' = (1 - e) * s**(-e) * s'; a stage past
    the crossing (x < 0) takes x'(x) = 2*x'(0+) - x'(|x|), which extends
    x' smoothly to O(|x|**(1 + 1/(1 - e))).  rtol and atol bound the error
    of x for such a species.  Samples report (u, v).

    When a species drops below EPS_EXT with a non-positive derivative, its
    crossing time of the EPS_EXT level is the root of the step's dense
    output at x = EPS_EXT**(1 - e).  From then on the species is exactly 0
    and the survivor is integrated as it is; its loss term needs the dead
    species, so no second extinction follows.  An FteEvent is recorded.
    The trajectory terminates early with an Attractor label when the state
    comes within LOCK_RADIUS of a non-repelling equilibrium at speed below
    LOCK_SPEED (repelling equilibria only lock when hit exactly).  Harvest
    runs have no equilibrium list; they lock onto any state slower than
    LOCK_SPEED as "steady".
    """
    opts = opts or IntegrateOptions()
    if not (ic.u >= 0.0 and ic.v >= 0.0):
        raise InvalidParameter(f"initial condition must be componentwise >= 0, got {ic}")
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise InvalidParameter(f"t_end must be positive and finite, got {t_end}")
    _check_tolerances(opts.rtol, opts.atol)
    if opts.max_steps < 1:
        raise InvalidParameter(f"max_steps must be at least 1, got {opts.max_steps!r}")

    harvest = isinstance(params, HarvestParams)
    kinetics = harvest_rhs if harvest else rhs
    eu, ev = _loss_exponents(params)
    # gu, gv: x = s**g for a species that can die; below lo its x' is reflected.
    gu, gv = 1.0 - eu, 1.0 - ev
    ku, kv = 1.0 / gu if eu < 1.0 else 1.0, 1.0 / gv if ev < 1.0 else 1.0
    lo_u = _S_TINY**gu if eu < 1.0 else -math.inf
    lo_v = _S_TINY**gv if ev < 1.0 else -math.inf
    xu, xv = eu < 1.0, ev < 1.0  # which species is carried as x, until an event

    def f(a: float, b: float) -> Tuple[float, float]:
        """Time derivative in the carried coordinates (a, b)."""
        if a < lo_u or b < lo_v:
            # A stage past the crossing: reflect x' through its value at 0+.
            zu, zv = f(max(a, lo_u), max(b, lo_v))
            ru, rv = f(max(-a, lo_u) if a < lo_u else a, max(-b, lo_v) if b < lo_v else b)
            return 2.0 * zu - ru, 2.0 * zv - rv
        u = a**ku if xu else a
        v = b**kv if xv else b
        du, dv = kinetics(params, (u, v))
        if xu:
            du *= gu * a / u
        if xv:
            dv *= gv * b / v
        return du, dv

    def to_uv(a: float, b: float, da: float, db: float) -> Tuple[float, float, float, float]:
        """(u, v) and its speed from carried coordinates, with s' = x' * s**e / (1 - e)."""
        if xu:
            u = a**ku
            da = da * u / (gu * a) if a > 0.0 else 0.0
            a = u
        if xv:
            v = b**kv
            db = db * v / (gv * b) if b > 0.0 else 0.0
            b = v
        return a, b, da, db

    known = () if harvest else _known_equilibria(params)
    traj = Trajectory()
    samples = traj.samples

    def terminal_at(u: float, v: float, du: float, dv: float) -> Optional[Attractor]:
        speed = math.hypot(du, dv)
        # Every lock rule needs speed < LOCK_SPEED (an exact hit needs 1e-12).
        if not speed < LOCK_SPEED:
            return None
        for eq in known:
            r = math.hypot(u - eq.point.u, v - eq.point.v)
            if r < 1e-12 and speed < 1e-12:
                return Attractor(_KIND_NAMES[eq.kind], eq.point)
            if r < LOCK_RADIUS and eq.stability not in _REPELLING:
                return Attractor(_KIND_NAMES[eq.kind], eq.point)
        if harvest:
            return Attractor("steady", State2(u, v))
        return None

    def lock(idx: int, t_star: float, u: float, v: float) -> Tuple[float, float]:
        """Record species idx extinct at t_star and set it to 0.  Both species
        are plain (u, v) from here on; a dead species stays exactly 0, since
        every term of its rhs carries it as a factor."""
        nonlocal xu, xv, lo_u, lo_v
        xu = xv = False
        lo_u = lo_v = -math.inf
        traj.events.append(FteEvent((Species.U, Species.V)[idx], t_star))
        return (0.0, v) if idx == 0 else (u, 0.0)

    u, v = float(ic.u), float(ic.v)
    # An initial value already at/below the clamp level with non-increasing
    # derivative counts as extinct at t = 0.
    for idx, (e, val) in enumerate(((eu, u), (ev, v))):
        if e < 1.0 and val < EPS_EXT and kinetics(params, (u, v))[idx] <= 0.0:
            u, v = lock(idx, 0.0, u, v)
    samples.append((0.0, State2(u, v)))
    a, b = (u**gu if xu else u), (v**gv if xv else v)
    k1a, k1b = f(a, b)
    term = terminal_at(*to_uv(a, b, k1a, k1b))
    if term is not None:
        traj.terminal = term
        return traj
    # The EPS_EXT level in carried coordinates.
    level_u, level_v = EPS_EXT**gu, EPS_EXT**gv

    def accept(t, h, a, b, k1a, k1b, a5, b5, k7a, k7b, factor, stages):
        # Extinction: the carried species ends the step below the level with
        # a non-positive derivative.  The derivative test floors the other
        # species, so it is the last stage unless that one ended below 0.
        if xu and a5 < level_u and (k7a if b5 >= 0.0 else f(a5, 0.0)[0]) <= 0.0:
            idx = 0
        elif xv and b5 < level_v and (k7b if a5 >= 0.0 else f(0.0, b5)[1]) <= 0.0:
            idx = 1
        else:
            idx = None
        if idx is not None:
            k3a, k3b, k4a, k4b, k5a, k5b, k6a, k6b = stages
            ca = _interpolant(h, a, a5, k1a, k3a, k4a, k5a, k6a, k7a)
            cb = _interpolant(h, b, b5, k1b, k3b, k4b, k5b, k6b, k7b)
            y0, c, level = (a, ca, level_u) if idx == 0 else (b, cb, level_v)
            # th = 0 when the species already began the step below the level.
            th = _dense_root(y0, c, level) if y0 >= level else 0.0
            u, v, _, _ = to_uv(max(_horner(a, ca, th), 0.0), max(_horner(b, cb, th), 0.0), 0.0, 0.0)
            t += th * h
            a, b = lock(idx, t, u, v)
            k1a, k1b = f(a, b)  # a species is now dead
            h_next = max(h, 1e-8)
        else:
            # Floor tiny sub-zero excursions.  The last stage is the next
            # first stage unless the floor moved the state.
            a, b, t = max(a5, 0.0), max(b5, 0.0), t + h
            k1a, k1b = f(a, b) if a5 < 0.0 or b5 < 0.0 else (k7a, k7b)
            h_next = h * factor
        u, v, du, dv = to_uv(a, b, k1a, k1b)
        samples.append((t, State2(u, v)))
        term = terminal_at(u, v, du, dv)
        if term is not None:
            traj.terminal = term
            return None
        return t, a, b, k1a, k1b, h_next

    h = min(1e-3, t_end / 100.0)
    _adaptive_dp45(
        f, 0.0, a, b, k1a, k1b, h, t_end, opts.rtol, opts.atol, opts.max_steps, accept, traj
    )
    return traj


def classify_basin(
    params: AnyParams,
    ic: State2,
    t_max: float,
    opts: Optional[IntegrateOptions] = None,
) -> Attractor:
    """Integrate from a strictly positive ic and report the terminal label.

    Returns an Attractor named "undecided" (carrying the final state) when
    t_max elapses without lock-on.
    """
    if not (ic.u > 0.0 and ic.v > 0.0):
        raise InvalidParameter(f"basin classification needs ic > 0, got {ic}")
    traj = integrate(params, ic, t_max, opts)
    if traj.terminal is not None:
        return traj.terminal
    return Attractor("undecided", traj.final_state)


# ---------------------------------------------------------------------------
# Finite-time-extinction threshold (sufficient condition)
# ---------------------------------------------------------------------------


def fte_coefficient(params: KineticParams) -> float:
    """The coefficient of fte_threshold, unchecked (callers check p and q)."""
    one_m_p = 1.0 - params.p
    return (params.a1 * params.c2 + one_m_p * params.a1 * params.b1) / (
        one_m_p * params.c1 * params.b1
    )


def fte_threshold(params: KineticParams, u0: float) -> float:
    """Threshold curve value f(u0) above which v(0) certifies u-extinction.

        f(u0) = ((a1*c2 + (1-p)*a1*b1) / ((1-p)*c1*b1)) * u0^(1-p)

    Defined for 0 < p < 1 with q = 1 and u0 > 0.
    """
    if not 0.0 < params.p < 1.0:
        raise InvalidParameter(
            f"threshold requires 0 < p < 1, got p={params.p}"
        )
    if params.q != 1.0:
        raise InvalidParameter(f"threshold requires q = 1, got q={params.q}")
    if not (math.isfinite(u0) and u0 > 0.0):
        raise InvalidParameter(f"u0 must be positive, got {u0!r}")
    return fte_coefficient(params) * math.pow(u0, 1.0 - params.p)


def predict_fte(params: KineticParams, ic: State2) -> bool:
    """True iff v(0) > f(u(0)), a sufficient certificate for finite-time
    extinction of u.  False means "not certified", not "no extinction".

    Requires 0 < p < 1, q = 1, and u(0) in (0, a1/b1].
    """
    if not 0.0 < ic.u <= params.a1 / params.b1:
        raise InvalidParameter(
            f"certificate requires 0 < u(0) <= a1/b1={params.a1 / params.b1}, got {ic.u}"
        )
    return ic.v > fte_threshold(params, ic.u)


# ---------------------------------------------------------------------------
# Separatrix (stable manifold of an interior saddle)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Separatrix:
    """Polyline through the saddle tracing its stable manifold."""

    polyline: List[State2]
    saddle: Equilibrium


def _clip_to_box(inside: State2, outside: State2, box) -> State2:
    """Intersection of segment inside->outside with the box boundary."""
    (ulo, uhi), (vlo, vhi) = box
    s = 1.0
    du = outside.u - inside.u
    dv = outside.v - inside.v
    for val, d, lo, hi in ((inside.u, du, ulo, uhi), (inside.v, dv, vlo, vhi)):
        if d > 0.0 and val + d > hi:
            s = min(s, (hi - val) / d)
        elif d < 0.0 and val + d < lo:
            s = min(s, (lo - val) / d)
    return State2(inside.u + s * du, inside.v + s * dv)


SEPARATRIX_MAX_STEPS = 200_000  # step attempts per branch


def trace_separatrix(
    params: KineticParams,
    saddle: Equilibrium,
    delta: float = 1e-6,
    max_backward_time: float = 200.0,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> Separatrix:
    """Trace the stable manifold of an interior saddle by backward-time
    integration from saddle +/- delta * v_s along the stable eigenvector.

    Branches stop on leaving the box [0, 2*a1/b1] x [0, 2*a2/b2] (the exit
    point is clipped onto the boundary), on backward speed dropping below
    1e-10, on coming within 1e-6 of another equilibrium, or at
    max_backward_time.  A branch that cannot go on raises instead:
    NonFiniteState or StepSizeUnderflow once the step falls below
    1e-14 * max(1, |t|), StepLimitReached after SEPARATRIX_MAX_STEPS
    attempts.  Backward deviations off the manifold decay, so the tracing is
    self-correcting.
    """
    _check_tolerances(rtol, atol)
    if saddle.stability is not Stability.SADDLE or saddle.jacobian is None:
        raise NotASaddle(f"separatrix tracing needs a saddle, got {saddle}")
    eigvals, eigvecs = np.linalg.eig(saddle.jacobian)
    eigvals = np.real(eigvals)
    stable_idx = int(np.argmin(eigvals))
    if not (eigvals[stable_idx] < 0.0 < eigvals[1 - stable_idx]):
        raise NotASaddle(
            f"eigenvalues {eigvals} do not straddle zero; not a saddle"
        )
    vs = np.real(eigvecs[:, stable_idx])
    vs = vs / np.linalg.norm(vs)
    if vs[0] < 0.0 or (vs[0] == 0.0 and vs[1] < 0.0):
        vs = -vs

    box = ((0.0, 2.0 * params.a1 / params.b1), (0.0, 2.0 * params.a2 / params.b2))

    def backward(u: float, v: float) -> Tuple[float, float]:
        du, dv = rhs(params, (u, v))
        return -du, -dv

    others = [
        eq
        for eq in _known_equilibria(params)
        if math.hypot(eq.point.u - saddle.point.u, eq.point.v - saddle.point.v) > 1e-9
    ]
    (ulo, uhi), (vlo, vhi) = box

    def at_rest(u: float, v: float, du: float, dv: float) -> bool:
        return math.hypot(du, dv) < 1e-10 or any(
            math.hypot(u - eq.point.u, v - eq.point.v) < 1e-6 for eq in others
        )

    def trace_branch(sign: float) -> List[State2]:
        u = saddle.point.u + sign * delta * float(vs[0])
        v = saddle.point.v + sign * delta * float(vs[1])
        pts: List[State2] = [State2(u, v)]

        def accept(t, h, u, v, du, dv, u5, v5, k7u, k7v, factor, stages):
            if not (ulo <= u5 <= uhi and vlo <= v5 <= vhi):
                pts.append(_clip_to_box(State2(u, v), State2(u5, v5), box))
                return None
            pts.append(State2(u5, v5))
            if at_rest(u5, v5, k7u, k7v):
                return None
            return t + h, u5, v5, k7u, k7v, h * factor

        du, dv = backward(u, v)
        if not at_rest(u, v, du, dv):
            _adaptive_dp45(
                backward, 0.0, u, v, du, dv, 1e-4, max_backward_time,
                rtol, atol, SEPARATRIX_MAX_STEPS, accept,
            )
        return pts

    plus = trace_branch(+1.0)
    minus = trace_branch(-1.0)
    polyline = list(reversed(minus)) + [saddle.point] + plus
    return Separatrix(polyline=polyline, saddle=saddle)


# ---------------------------------------------------------------------------
# Comparison ODE closed form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonOde:
    """Constants of dg/dt = -C4*exp(-C6*t)*g**alpha with C6 = C2 + (1-alpha)*C5.

    C6 is the rate produced by removing an exponential weight e^(C5*t) from
    the comparison variable (substitution y = g*e^(C5*t)); it is derived, not
    stored.
    """

    C4: float
    C5: float
    C2: float
    alpha: float
    g0: float

    def __post_init__(self):
        for name in ("C4", "C5", "C2"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidParameter(f"{name} must be positive, got {value!r}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "g0", float(self.g0))
        if not 0.0 < self.alpha < 1.0:
            raise InvalidParameter(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (math.isfinite(self.g0) and self.g0 >= 0.0):
            raise InvalidParameter(f"g0 must be >= 0, got {self.g0!r}")

    @property
    def C6(self) -> float:
        return self.C2 + (1.0 - self.alpha) * self.C5


def comparison_solution(c: ComparisonOde, t: float) -> float:
    """Closed-form solution, truncated at 0 once the base goes non-positive:

        g(t) = ((1-alpha)*C4*exp(-C6*t)/C6 + K) ^ (1/(1-alpha)),
        K    = g0^(1-alpha) - (1-alpha)*C4/C6.
    """
    amplitude = (1.0 - c.alpha) * c.C4 / c.C6
    K = math.pow(c.g0, 1.0 - c.alpha) - amplitude if c.g0 > 0.0 else -amplitude
    base = amplitude * math.exp(-c.C6 * t) + K
    if base <= 0.0:
        return 0.0
    return math.pow(base, 1.0 / (1.0 - c.alpha))


def comparison_extinction_time(c: ComparisonOde) -> Optional[float]:
    """Finite extinction time T*, or None when the solution stays positive.

    Extinction happens iff g0^(1-alpha) < (1-alpha)*C4/C6, at

        T* = -(1/C6) * ln(-K*C6 / ((1-alpha)*C4)).
    """
    if c.g0 == 0.0:
        return 0.0
    amplitude = (1.0 - c.alpha) * c.C4 / c.C6
    K = math.pow(c.g0, 1.0 - c.alpha) - amplitude
    if K >= 0.0:
        return None
    return -(1.0 / c.C6) * math.log(-K / amplitude)
