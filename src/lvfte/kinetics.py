"""Parameter containers, regime classification, and right-hand sides.

The base model is the two-species competition system

    du/dt = a1*u - b1*u**2 - c1*u**p * v
    dv/dt = a2*v - b2*v**2 - c2*u * v**q

with 0 < p, q <= 1.  Exponents strictly below one make the interspecific
pressure non-Lipschitz at the axes, which is what allows a species to hit
exactly zero in finite time rather than decaying asymptotically.

The harvest variant splits the pressure on v into a mass-action part and a
self-regulating part with fractions d + e = 1:

    du/dt = a1*u - b1*u**2 - c1*a*u*v
    dv/dt = a2*v - b2*v**2 - c2*d*u*v - c2*e*v**q
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Tuple, Union

import numpy as np

from .exceptions import InvalidParameter

# Relative tolerance below which a regime-defining inequality counts as a tie.
TIE_TOL = 1e-12


class Species(Enum):
    U = "u"
    V = "v"


class State2(NamedTuple):
    """A point (u, v) in population-density space."""

    u: float
    v: float


def safe_pow(x: float, e: float) -> float:
    """x**e for scalars with the convention 0**e = 0 for e > 0.

    Never evaluates log(0).  Negative bases (transient integrator
    excursions below an axis) are treated as 0 so fractional exponents
    cannot produce NaN.
    """
    if e == 1.0:
        return x
    if x <= 0.0:
        return 0.0
    return math.pow(x, e)


def safe_pow_arr(x: np.ndarray, e: float) -> np.ndarray:
    """Elementwise x**e treating negatives as 0; identity when e == 1."""
    if e == 1.0:
        return x
    return np.power(np.maximum(x, 0.0), e)


@dataclass(frozen=True)
class KineticParams:
    """The eight constants of the competition model.

    a1, a2: intrinsic growth rates (1/time).
    b1, b2: intraspecific competition (1/(density*time)).
    c1, c2: interspecific competition (1/(density*time)).
    p, q:   extinction exponents in (0, 1]; 1 recovers the classical model.
    """

    a1: float
    a2: float
    b1: float
    b2: float
    c1: float
    c2: float
    p: float = 1.0
    q: float = 1.0

    def __post_init__(self):
        for name in ("a1", "a2", "b1", "b2", "c1", "c2", "p", "q"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("a1", "a2", "b1", "b2", "c1", "c2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidParameter(
                    f"{name} must be a finite positive number, got {value!r}"
                )
        for name in ("p", "q"):
            value = getattr(self, name)
            if not (math.isfinite(value) and 0.0 < value <= 1.0):
                raise InvalidParameter(f"{name} must lie in (0, 1], got {value!r}")


@dataclass(frozen=True)
class HarvestParams:
    """Harvest/self-regulation variant parameters.

    base: the underlying KineticParams; base.q is the self-regulation
          exponent, base.p is unused by the harvest right-hand side.
    d, e: population split fractions with d + e = 1.
    a:    literal coefficient on the u-side interspecific term (default 1).
    """

    base: KineticParams
    d: float
    e: float
    a: float = 1.0

    def __post_init__(self):
        for name in ("d", "e", "a"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("d", "e"):
            value = getattr(self, name)
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                raise InvalidParameter(f"{name} must lie in [0, 1], got {value!r}")
        if abs(self.d + self.e - 1.0) > TIE_TOL:
            raise InvalidParameter(
                f"d + e must equal 1 within {TIE_TOL}, got d={self.d} e={self.e}"
            )
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise InvalidParameter(f"a must be a finite positive number, got {self.a!r}")


AnyParams = Union[KineticParams, HarvestParams]


class Regime(Enum):
    """Long-run competition regime of the kinetic constants."""

    EXCLUSION_U_WINS = "ExclusionUWins"
    EXCLUSION_V_WINS = "ExclusionVWins"
    WEAK_COMPETITION = "WeakCompetition"
    STRONG_COMPETITION = "StrongCompetition"
    DEGENERATE = "Degenerate"


def _ties(x: float, y: float) -> bool:
    return abs(x - y) <= TIE_TOL * max(abs(x), abs(y))


def classify_regime(params: KineticParams) -> Regime:
    """Classify the parameter point by the ratio a1/a2 against b1/c2 and c1/b2.

    ExclusionUWins  iff a1/a2 > max(b1/c2, c1/b2)
    ExclusionVWins  iff a1/a2 < min(b1/c2, c1/b2)
    WeakCompetition iff b1/c2 > a1/a2 > c1/b2
    StrongCompetition iff b1/c2 < a1/a2 < c1/b2
    Degenerate on any tie within relative tolerance 1e-12.
    """
    ratio = params.a1 / params.a2
    m1 = params.b1 / params.c2
    m2 = params.c1 / params.b2
    if _ties(ratio, m1) or _ties(ratio, m2):
        return Regime.DEGENERATE
    if ratio > max(m1, m2):
        return Regime.EXCLUSION_U_WINS
    if ratio < min(m1, m2):
        return Regime.EXCLUSION_V_WINS
    if m1 > ratio > m2:
        return Regime.WEAK_COMPETITION
    return Regime.STRONG_COMPETITION


def rhs(params: KineticParams, s: Tuple[float, float]) -> State2:
    """Time derivative of the competition model at state s, any (u, v) pair."""
    u, v = s
    # A unit exponent is the identity; safe_pow would return the base as is.
    up = u if params.p == 1.0 else safe_pow(u, params.p)
    vq = v if params.q == 1.0 else safe_pow(v, params.q)
    du = u * (params.a1 - params.b1 * u) - params.c1 * up * v
    dv = v * (params.a2 - params.b2 * v) - params.c2 * u * vq
    return State2(du, dv)


def harvest_rhs(params: HarvestParams, s: State2) -> State2:
    """Time derivative of the harvest/self-regulation variant at state s."""
    k = params.base
    u, v = s
    du = u * (k.a1 - k.b1 * u) - k.c1 * params.a * u * v
    dv = (
        v * (k.a2 - k.b2 * v)
        - k.c2 * params.d * u * v
        - k.c2 * params.e * safe_pow(v, k.q)
    )
    return State2(du, dv)
