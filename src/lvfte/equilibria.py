"""Equilibrium location, Jacobians, and linear stability classification.

Interior equilibria are intersections of the two nullclines.  For every
exponent pair they are the roots of one scalar function on a bounded
interval, the composition H(u) = u - g1(f(u)) on (0, a1/b1), which vanishes
exactly at nullcline crossings; roots are located by a dense sign scan over
one array and refined by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional

import numpy as np

from .exceptions import InvalidParameter, SingularLinearization
from .kinetics import KineticParams, Species, State2, safe_pow, safe_pow_arr

# Absolute tolerance on trace/determinant when deciding hyperbolicity.
HYPERBOLICITY_TOL = 1e-10
# Number of points in the dense sign scan for interior roots.
SCAN_POINTS = 2048
# Roots closer than this fraction of the scan interval collapse to one.
DEDUPE_FRACTION = 1e-8


class EquilibriumKind(Enum):
    ORIGIN = "Origin"
    U_AXIS = "UAxis"
    V_AXIS = "VAxis"
    INTERIOR = "Interior"


class Stability(Enum):
    SINK = "Sink"
    SOURCE = "Source"
    SADDLE = "Saddle"
    SPIRAL_SINK = "SpiralSink"
    SPIRAL_SOURCE = "SpiralSource"
    CENTER = "Center"
    NON_HYPERBOLIC = "NonHyperbolic"
    UNCLASSIFIABLE = "Unclassifiable"


@dataclass(frozen=True, eq=False)
class Equilibrium:
    """A fixed point with its linearization.

    jacobian is None exactly when stability is Unclassifiable (fractional
    power makes the linearization singular at an axis point).
    """

    point: State2
    kind: EquilibriumKind
    jacobian: Optional[np.ndarray]
    stability: Stability

    def __repr__(self):  # compact, the default dataclass repr dumps the matrix
        return (
            f"Equilibrium(({self.point.u:.6g}, {self.point.v:.6g}), "
            f"{self.kind.value}, {self.stability.value})"
        )


@dataclass(frozen=True)
class NullclineSide:
    """Selects one nullcline branch: whose derivative vanishes, and the
    variable it is parameterized by."""

    species: Species
    by: str  # "u" or "v"

    def __post_init__(self):
        if self.by not in ("u", "v"):
            raise InvalidParameter(f"parameterization must be 'u' or 'v', got {self.by!r}")


def nullcline_value(params: KineticParams, side: NullclineSide, x):
    """Evaluate the selected nullcline branch at coordinate x >= 0, a float
    or, elementwise, a numpy array.

    (U, by u): v = f(u)  = u^(1-p) * (a1 - b1*u) / c1
    (V, by u): v = g(u)  = (a2 - c2*u) / b2
    (U, by v): u = f1(v) = (a1 - c1*v) / b1
    (V, by v): u = g1(v) = v^(1-q) * (a2 - b2*v) / c2
    """
    array = isinstance(x, np.ndarray)
    if not (np.all(np.isfinite(x) & (x >= 0.0)) if array else math.isfinite(x) and x >= 0.0):
        raise InvalidParameter(f"nullcline coordinate must be finite and >= 0, got {x!r}")
    power = safe_pow_arr if array else safe_pow
    if side.species is Species.U and side.by == "u":
        expo = 1.0 - params.p
        factor = 1.0 if expo == 0.0 else power(x, expo)
        return factor * (params.a1 - params.b1 * x) / params.c1
    if side.species is Species.V and side.by == "u":
        return (params.a2 - params.c2 * x) / params.b2
    if side.species is Species.U and side.by == "v":
        return (params.a1 - params.c1 * x) / params.b1
    expo = 1.0 - params.q
    factor = 1.0 if expo == 0.0 else power(x, expo)
    return factor * (params.a2 - params.b2 * x) / params.c2


def jacobian(params: KineticParams, at: State2) -> np.ndarray:
    """Jacobian of the right-hand side at a state.

    [[a1 - 2*b1*u - p*c1*u^(p-1)*v,  -c1*u^p      ],
     [-c2*v^q,                        a2 - 2*b2*v - q*c2*u*v^(q-1)]]

    Raises SingularLinearization when u = 0 with p < 1 or v = 0 with q < 1,
    where the fractional powers are undefined.
    """
    u, v = at
    if u < 0.0 or v < 0.0:
        raise InvalidParameter(f"state must be componentwise >= 0, got {at}")
    if u == 0.0 and params.p < 1.0:
        raise SingularLinearization(
            f"u^(p-1) undefined at u=0 for p={params.p} < 1"
        )
    if v == 0.0 and params.q < 1.0:
        raise SingularLinearization(
            f"v^(q-1) undefined at v=0 for q={params.q} < 1"
        )
    cross_u = params.p * params.c1 * math.pow(u, params.p - 1.0) * v
    cross_v = params.q * params.c2 * u * math.pow(v, params.q - 1.0)
    j11 = params.a1 - 2.0 * params.b1 * u - cross_u
    j12 = -params.c1 * safe_pow(u, params.p)
    j21 = -params.c2 * safe_pow(v, params.q)
    j22 = params.a2 - 2.0 * params.b2 * v - cross_v
    return np.array([[j11, j12], [j21, j22]], dtype=float)


def classify_stability(J) -> Stability:
    """Classify a 2x2 linearization by trace and determinant.

    Saddle iff det < 0; Sink/Source split by the sign of the trace when
    det > 0, with Spiral variants when tr^2 - 4*det < 0; Center when the
    trace vanishes with det > 0; NonHyperbolic when det vanishes.  The
    vanishing tests use absolute tolerance 1e-10.
    """
    J = np.asarray(J, dtype=float)
    if J.shape != (2, 2):
        raise InvalidParameter(f"expected a 2x2 matrix, got shape {J.shape}")
    if not np.all(np.isfinite(J)):
        raise InvalidParameter("matrix entries must be finite")
    tr = J[0, 0] + J[1, 1]
    det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    if abs(det) <= HYPERBOLICITY_TOL:
        return Stability.NON_HYPERBOLIC
    if det < 0.0:
        return Stability.SADDLE
    if abs(tr) <= HYPERBOLICITY_TOL:
        return Stability.CENTER
    if tr * tr - 4.0 * det < 0.0:
        return Stability.SPIRAL_SINK if tr < 0.0 else Stability.SPIRAL_SOURCE
    return Stability.SINK if tr < 0.0 else Stability.SOURCE


def _classified(params: KineticParams, point: State2, kind: EquilibriumKind) -> Equilibrium:
    try:
        J = jacobian(params, point)
    except SingularLinearization:
        return Equilibrium(point, kind, None, Stability.UNCLASSIFIABLE)
    return Equilibrium(point, kind, J, classify_stability(J))


def boundary_equilibria(params: KineticParams) -> List[Equilibrium]:
    """The three boundary fixed points (0,0), (a1/b1,0), (0,a2/b2).

    Points where a fractional exponent makes the linearization singular are
    reported Unclassifiable rather than approximated.
    """
    return [
        _classified(params, State2(0.0, 0.0), EquilibriumKind.ORIGIN),
        _classified(params, State2(params.a1 / params.b1, 0.0), EquilibriumKind.U_AXIS),
        _classified(params, State2(0.0, params.a2 / params.b2), EquilibriumKind.V_AXIS),
    ]


def _refine_bracket(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Bisection to machine width on a sign-change bracket."""
    flo = fn(lo)
    if flo == 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _refine_tangency(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Golden-section minimization of |fn| for a grazing (double) root."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = abs(fn(x1)), abs(fn(x2))
    for _ in range(120):
        if b - a < 1e-14 * max(1.0, abs(a)):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = abs(fn(x1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = abs(fn(x2))
    return 0.5 * (a + b)


def scalar_roots(fn: Callable[[float], float], lo: float, hi: float) -> List[float]:
    """All roots of a smooth scalar function on the open interval (lo, hi).

    fn takes a float or, elementwise, a numpy array.  Dense sign scan of
    fn over one array of SCAN_POINTS points, then bisection on floats;
    grazing double roots (no sign change, |fn| dipping to ~0) are looked
    for at the discrete local minima of |fn| whose three-point parabola
    dips to ~0, refined by golden section and reported once.
    """
    xs = np.linspace(lo, hi, SCAN_POINTS + 2)[1:-1]
    fs = np.asarray(fn(xs), dtype=float)
    scale = float(np.max(np.abs(fs))) or 1.0
    roots: List[float] = [float(x) for x in xs[fs == 0.0]]
    for i in np.flatnonzero(fs[:-1] * fs[1:] < 0.0):
        roots.append(_refine_bracket(fn, float(xs[i]), float(xs[i + 1])))
    # Grazing roots: interior local minima of |fn| with no sign change around
    # them, refined where the parabola through the three scan values dips to
    # within 1e-9 * scale of zero (or past it).
    absfs = np.abs(fs)
    mid = absfs[1:-1]
    lows = (mid <= absfs[:-2]) & (mid <= absfs[2:])
    lows &= (fs[:-2] * fs[2:] > 0.0) & (fs[1:-1] != 0.0)
    for i in np.flatnonzero(lows) + 1:
        left, here, right = float(fs[i - 1]), float(fs[i]), float(fs[i + 1])
        curve = right - 2.0 * here + left
        vertex = here - (right - left) ** 2 / (8.0 * curve) if curve != 0.0 else here
        if (vertex if left > 0.0 else -vertex) >= 1e-9 * scale:
            continue
        x = _refine_tangency(fn, float(xs[i - 1]), float(xs[i + 1]))
        if abs(fn(x)) <= 1e-10 * scale:
            roots.append(x)
    roots.sort()
    deduped: List[float] = []
    tol = DEDUPE_FRACTION * (hi - lo)
    for r in roots:
        if not deduped or r - deduped[-1] > tol:
            deduped.append(r)
    return deduped


_F_U = NullclineSide(Species.U, "u")
_G1_V = NullclineSide(Species.V, "v")


def _composition(params: KineticParams) -> Callable:
    """H(u) = u - g1(max(f(u), 0)) on a float or, elementwise, a numpy array."""

    def composition(u):
        v = nullcline_value(params, _F_U, u)
        # Outside the admissible strip (v < 0) g1(0) = 0, so H is u: no crossing.
        v = np.maximum(v, 0.0) if isinstance(v, np.ndarray) else max(v, 0.0)
        return u - nullcline_value(params, _G1_V, v)

    return composition


def interior_equilibria(params: KineticParams) -> List[Equilibrium]:
    """All strictly positive fixed points, sorted by u-coordinate.

    For every exponent pair the roots of the composition H(u) = u - g1(f(u))
    on (0, a1/b1) are scanned, and each root u gives the crossing (u, f(u)).
    Grazing (tangential) intersections are reported once; their vanishing
    Jacobian determinant classifies them NonHyperbolic.
    """
    roots = scalar_roots(_composition(params), 0.0, params.a1 / params.b1)  # sorted
    points = [State2(u, nullcline_value(params, _F_U, u)) for u in roots]
    return [
        _classified(params, point, EquilibriumKind.INTERIOR)
        for point in points
        if point.u > 0.0 and point.v > 0.0
    ]


def all_equilibria(params: KineticParams) -> List[Equilibrium]:
    """Boundary equilibria followed by interior equilibria sorted by u."""
    return boundary_equilibria(params) + interior_equilibria(params)
