"""Reaction-diffusion twin of the kinetics on a 1-D interval.

The model couples two diffusing densities through the same competition
kinetics used by the ODE layer, with zero-flux (reflecting) boundaries:
u_t = d1 u_xx + u (g_u - k_u u) - c_u u^p v, and v alike with d2, g_v, k_v
and c_v u v^q.  Both flavours of :class:`PdeParams` resolve into one record
of per-point growth rows g, crowding rows k, c_u, c_v, p and q.  Constant
kinetics give g = (a1, a2), k = (b1, b2), c_u = c1, c_v = c2 and the
closed-form survivors a1/b1 and a2/b2.  A resource m(x) gives g = m for
both species, unit crowding, c_u = b, c_v = c and q = 1; its survivors are
single-species steady states, marched once per diffusivity.

Space is discretised on cell centres, ``x_i = x0 + (i + 1/2) dx``, so the
zero-flux closure is a one-sided difference at each end.  Time stepping is
one IMEX Runge-Kutta step, ARS(2,2,2) of Ascher, Ruuth & Spiteri (1997) at
gamma = 1 + 1/sqrt(2): L-stable implicit diffusion, explicit reaction,
second order in time, with every steady state of D w + R(w) = 0 as a fixed
point.  Both implicit stages solve with I - gamma h D; the first stage is
kept non-negative, or a dying row's overshoot, fed back through the weight
1 - gamma < 0, can hold it just above zero.  Both densities are stepped as
one flat field of length 2 n_x, u's points then v's, so each solve is a
single banded solve of the block-diagonal system for u and v together.  The
reaction is specialised once per run (unit crowding, linear cross terms) to
the fewest numpy calls that give the per-species formulas' bits.

Sub-threshold clamping mirrors the ODE layer: a species whose kinetics lose
Lipschitz continuity at zero (exponent < 1) is set to exactly zero at grid
points that fall below ``ode.EPS_EXT`` while its local reaction is non-positive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .exceptions import (
    CflViolation,
    InvalidParameter,
    NonConvergence,
    NonFiniteField,
)
from .kinetics import KineticParams, Regime, classify_regime, safe_pow_arr
from .ode import EPS_EXT, fte_coefficient

__all__ = [
    "Grid1D",
    "ResourceField",
    "PdeParams",
    "PdeState",
    "PdeOptions",
    "PdeOutcome",
    "RecoveryReport",
    "U_WINS",
    "V_WINS",
    "COEXIST",
    "UNDECIDED",
    "laplacian_neumann",
    "simulate_pde",
    "single_species_steady_state",
    "check_recovery_conditions",
]

# Outcome labels reported by simulate_pde / scans.
U_WINS = "UWins"
V_WINS = "VWins"
COEXIST = "Coexist"
UNDECIDED = "Undecided"


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centred grid on [x0, x1] with n_x cells."""

    x0: float
    x1: float
    n_x: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "x0", float(self.x0))
        object.__setattr__(self, "x1", float(self.x1))
        object.__setattr__(self, "n_x", int(self.n_x))
        if not (math.isfinite(self.x0) and math.isfinite(self.x1)):
            raise InvalidParameter("grid endpoints must be finite")
        if not self.x1 > self.x0:
            raise InvalidParameter("grid requires x1 > x0")
        if self.n_x < 8:
            raise InvalidParameter("grid requires n_x >= 8")

    @property
    def dx(self) -> float:
        return (self.x1 - self.x0) / self.n_x

    @property
    def length(self) -> float:
        return self.x1 - self.x0

    def centers(self) -> np.ndarray:
        """Cell-centre coordinates, shape (n_x,)."""
        dx = self.dx
        return self.x0 + dx * (np.arange(self.n_x) + 0.5)


def _as_field(grid: Grid1D, values: object, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (grid.n_x,):
        raise InvalidParameter(
            f"{name} must have shape ({grid.n_x},), got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidParameter(f"{name} must be finite everywhere")
    if np.any(arr < 0.0):
        raise InvalidParameter(f"{name} must be non-negative everywhere")
    out = arr.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ResourceField:
    """Non-negative resource profile m(x) sampled at cell centres."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_field(self.grid, self.values, "resource"))


@dataclass(frozen=True, eq=False)
class PdeParams:
    """Diffusivities plus one of the two reaction flavours.

    Constant kinetics: pass ``kinetics`` and leave b/c/p/m unset.
    Resource-driven kinetics: leave ``kinetics`` unset and pass ``b``, ``c``,
    ``p`` and the resource field ``m`` (v's cross term is linear in u).
    """

    d1: float
    d2: float
    kinetics: Optional[KineticParams] = None
    b: Optional[float] = None
    c: Optional[float] = None
    p: Optional[float] = None
    m: Optional[ResourceField] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "d1", float(self.d1))
        object.__setattr__(self, "d2", float(self.d2))
        for nm in ("d1", "d2"):
            val = getattr(self, nm)
            if not (math.isfinite(val) and val > 0.0):
                raise InvalidParameter(f"{nm} must be positive and finite")
        resource_keys = (self.b, self.c, self.p, self.m)
        if self.kinetics is not None:
            if any(k is not None for k in resource_keys):
                raise InvalidParameter(
                    "constant-kinetics mode takes no b/c/p/m arguments"
                )
        else:
            if any(k is None for k in resource_keys):
                raise InvalidParameter(
                    "resource mode requires b, c, p and m together"
                )
            object.__setattr__(self, "b", float(self.b))
            object.__setattr__(self, "c", float(self.c))
            object.__setattr__(self, "p", float(self.p))
            for nm in ("b", "c"):
                val = getattr(self, nm)
                if not (math.isfinite(val) and val > 0.0):
                    raise InvalidParameter(f"{nm} must be positive and finite")
            if not (0.0 < self.p <= 1.0):
                raise InvalidParameter("exponent p must lie in (0, 1]")

    @property
    def resource_model(self) -> bool:
        return self.kinetics is None

    @property
    def grid(self) -> Optional[Grid1D]:
        return self.m.grid if self.m is not None else None


@dataclass(frozen=True, eq=False)
class PdeState:
    """Pair of non-negative density fields on a grid."""

    grid: Grid1D
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", _as_field(self.grid, self.u, "u field"))
        object.__setattr__(self, "v", _as_field(self.grid, self.v, "v field"))


@dataclass(frozen=True)
class PdeOutcome:
    """Verdict of a long-run integration.

    ``label`` is one of U_WINS / V_WINS / COEXIST / UNDECIDED.  ``fte_u`` /
    ``fte_v`` report whether the corresponding field hit exactly zero
    everywhere at some finite time (only possible for a clampable species),
    with the first such time in ``fte_u_time`` / ``fte_v_time``.  ``note``
    carries a human-readable reason when the run ends Undecided.
    """

    label: str
    t_reached: float
    fte_u: bool = False
    fte_v: bool = False
    fte_u_time: Optional[float] = None
    fte_v_time: Optional[float] = None
    note: str = ""


# Verdict tolerances and step rules of simulate_pde (see its docstring).
TOL_OUT = 1e-4  # sup-norm tolerance of an exclusion verdict
TOL_POS = 1e-4  # Coexist needs both fields above this everywhere
TOL_STEADY = 1e-7  # Coexist needs the discrete time derivative below this
DT_MIN = 1e-12  # halving dt below this raises CflViolation
# ARS(2,2,2) at the root of its order condition where both explicit weights,
# DELTA and 1 - DELTA, are positive: a dying row still overshoots to the clamp
GAMMA = 1.0 + 1.0 / math.sqrt(2.0)
DELTA = 1.0 - 1.0 / (2.0 * GAMMA)


@dataclass
class PdeOptions:
    """Step, snapshots, check spacing and step budget of simulate_pde.

    dt=None picks a conservative reaction-limited step.  Classification is
    attempted every ``check_interval`` time units, and the run returns at
    its first verdict.  The verdict tolerances, the clamp level and the dt
    floor are the module constants TOL_OUT, TOL_POS, TOL_STEADY,
    ``ode.EPS_EXT`` and DT_MIN.
    """

    dt: Optional[float] = None
    snapshot_times: Sequence[float] = ()
    check_interval: float = 5.0
    max_steps: int = 20_000_000

    def validate(self) -> None:
        """Raise InvalidParameter for values that would end a run silently.

        A given ``dt`` must be finite and positive, ``max_steps`` at least 1
        and ``check_interval`` not NaN.  A ``check_interval`` <= 0 (no
        periodic checks) stays legal.
        """
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0.0):
            raise InvalidParameter(f"dt must be positive and finite, got {self.dt!r}")
        if self.max_steps < 1:
            raise InvalidParameter(f"max_steps must be at least 1, got {self.max_steps!r}")
        if math.isnan(self.check_interval):
            raise InvalidParameter("check_interval must not be NaN")


def laplacian_neumann(f: np.ndarray, dx: float) -> np.ndarray:
    """Second difference with zero-flux closure on a cell-centred grid.

    End cells use the one-sided form (f[1]-f[0])/dx^2, which is the exact
    divergence of face fluxes when the boundary flux vanishes; the row sums
    of the underlying matrix are zero, so total mass is conserved.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or f.size < 3:
        raise InvalidParameter("laplacian_neumann needs a 1-D field of length >= 3")
    if not (math.isfinite(dx) and dx > 0.0):
        raise InvalidParameter("dx must be positive and finite")
    inv = 1.0 / (dx * dx)
    lap = np.empty_like(f)
    lap[1:-1] = (f[:-2] - 2.0 * f[1:-1] + f[2:]) * inv
    lap[0] = (f[1] - f[0]) * inv
    lap[-1] = (f[-2] - f[-1]) * inv
    return lap


# scipy's banded Cholesky and LAPACK dpbtrs, bound by the first
# cholesky_banded call: the ODE, equilibria and config layers need numpy
# only, so importing lvfte does not import scipy.
_scipy_cholesky_banded = None
_dpbtrs = None


def cholesky_banded(ab: np.ndarray) -> np.ndarray:
    """Upper banded Cholesky factor of ``ab`` (``scipy.linalg.cholesky_banded``).

    The first call imports scipy and binds LAPACK ``dpbtrs`` for
    ``cho_solve_banded``.
    """
    global _scipy_cholesky_banded, _dpbtrs
    if _scipy_cholesky_banded is None:
        from scipy.linalg import cholesky_banded as _scipy_cholesky_banded
        from scipy.linalg.lapack import dpbtrs as _dpbtrs
    return _scipy_cholesky_banded(ab)


def cho_solve_banded(cb_and_lower: Tuple[np.ndarray, bool], b: np.ndarray) -> np.ndarray:
    """Solve A x = b given the banded Cholesky factor of A (LAPACK dpbtrs).

    The factor must come from ``cholesky_banded``, which binds ``dpbtrs``.
    Unlike ``scipy.linalg.cho_solve_banded`` this neither converts ``b`` nor
    checks it for non-finite values: the factor was checked once when
    ``cholesky_banded`` built it, and a non-finite right-hand side gives a
    non-finite solution, which the stepper rejects after the step.
    """
    cb, lower = cb_and_lower
    x, info = _dpbtrs(cb, b, lower=lower)
    if info != 0:
        raise ValueError(f"dpbtrs: illegal value in argument {-info}")
    return x


def _diffusion_factor(n: int, dx: float, ds: Sequence[float], h: float) -> Tuple[np.ndarray, bool]:
    """Factor of the backward-Euler diffusion step (I - h d_k L) w_k = b_k.

    One block per diffusivity in ``ds``; block k of a flat field of length
    len(ds) * n, its points k*n to (k+1)*n - 1, diffuses with ``ds[k]``.
    The block-diagonal matrix is symmetric positive definite (diagonally
    dominant), so its banded Cholesky factor, passed to ``cho_solve_banded``
    with the field, serves every step of that size.  The coupling entry
    between blocks is zero, so the joint factor and solve give bit for bit
    what separate per-block factors and solves give.
    """
    ab = np.zeros((2, n * len(ds)))
    for k, d in enumerate(ds):
        r = d * h / (dx * dx)
        lo, hi = k * n, (k + 1) * n
        ab[1, lo:hi] = 1.0 + 2.0 * r
        ab[1, lo] = 1.0 + r
        ab[1, hi - 1] = 1.0 + r
        ab[0, lo + 1 : hi] = -r
    return cholesky_banded(ab), False


@dataclass(frozen=True, eq=False)
class _Kinetics:
    """The reaction of a PdeParams on n points (see the module docstring).

    ``growth`` and ``crowding`` are full (2, n) rows, u's first: at n_x = 64
    a broadcast (2, 1) column makes the logistic term about 1.7x slower.
    ``survivors`` holds the closed-form survivor rows, or for a resource the
    field whose single-species steady states are the survivors.
    """

    growth: np.ndarray
    crowding: np.ndarray
    c_u: float
    c_v: float
    p: float
    q: float
    survivors: Union[np.ndarray, ResourceField]


def _resolve(params: PdeParams, n: int) -> _Kinetics:
    """The one reader of the flavour fields outside PdeParams and the grid check."""
    kin = params.kinetics
    if kin is None:
        growth = np.stack((params.m.values, params.m.values))
        return _Kinetics(growth, np.ones_like(growth), params.b, params.c,
                         params.p, 1.0, params.m)
    growth = np.repeat([[kin.a1], [kin.a2]], n, axis=1)
    crowding = np.repeat([[kin.b1], [kin.b2]], n, axis=1)
    return _Kinetics(growth, crowding, kin.c1, kin.c2, kin.p, kin.q, growth / crowding)


def _make_reaction(rec: _Kinetics) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorised reaction term d(u, v)/dt of a resolved record.

    The returned function maps the flat field w = (u, v), length 2 n, to
    its reaction.  Every entry is computed with the same floating-point
    operations, in the same order, as the per-species formulas
    du = u (g_u - k_u u) - c_u u^p v and dv = v (g_v - k_v v) - c_v u v^q.
    The run's record picks the fewest numpy calls that keep those bits:
    unit crowding drops the product k w (1.0 * w == w bit for bit), and
    p = q = 1 computes both cross terms as one broadcast (c u) v with c the
    column (c_u, c_v) (u^1 is u itself, as ``safe_pow_arr`` returns it).
    """
    n = rec.growth.shape[1]
    growth = rec.growth.reshape(-1)
    crowding = None if np.all(rec.crowding == 1.0) else rec.crowding.reshape(-1)
    c_u, c_v, p, q = rec.c_u, rec.c_v, rec.p, rec.q
    coef = np.array([[c_u], [c_v]]) if p == q == 1.0 else None

    def react(w: np.ndarray) -> np.ndarray:
        out = w * (growth - w) if crowding is None else w * (growth - crowding * w)
        u, v = w[:n], w[n:]
        if coef is not None:
            out -= ((coef * u) * v).ravel()
        else:
            out[:n] -= c_u * safe_pow_arr(u, p) * v
            out[n:] -= c_v * u * safe_pow_arr(v, q)
        return out

    return react


STEADY_TOL = 1e-9  # a steady-state march stops once sup|Δw|/dt falls below this
STEADY_T_MAX = 1e5  # and raises NonConvergence if it has not stopped by this time


def single_species_steady_state(d: float, m: ResourceField) -> np.ndarray:
    """Positive steady profile of w_t = d w_xx + w (m - w), zero-flux ends.

    Marches the scalar equation with implicit diffusion and explicit
    reaction; a fixed point of that update solves the discrete steady
    problem exactly, so the stopping rule sup|Δw|/dt < STEADY_TOL bounds
    the discrete residual directly.  A march that has not stopped by
    STEADY_T_MAX raises NonConvergence.  Requires max(m) > 0 (otherwise
    the only non-negative steady state is zero).

    Profiles are memoised per process by value (d, grid, the bytes of m),
    so sweeps that revisit a diffusivity do not march again.  Each call
    returns a fresh copy; a march that fails is not memoised.
    """
    if not (math.isfinite(d) and d > 0.0):
        raise InvalidParameter("diffusivity must be positive and finite")
    if m.values.max() <= 0.0:
        raise InvalidParameter("resource must be positive somewhere")
    return _steady_state(float(d), m.grid, m.values.tobytes()).copy()


@functools.lru_cache(maxsize=256)
def _steady_state(d: float, grid: Grid1D, resource: bytes) -> np.ndarray:
    vals = np.frombuffer(resource)
    n, dx = grid.n_x, grid.dx

    dt_cap = min(1.0, 1.0 / float(vals.max()))
    dt = dt_cap / 4.0
    w = np.full(n, float(vals.mean()) + 0.1)
    factor = _diffusion_factor(n, dx, (d,), dt)
    t = 0.0
    step = 0
    while t < STEADY_T_MAX:
        w_new = cho_solve_banded(factor, w + dt * (vals * w - w * w))
        rate = float(np.max(np.abs(w_new - w))) / dt
        w = np.maximum(w_new, 0.0)
        t += dt
        step += 1
        if not math.isfinite(float(w.sum())):
            raise NonConvergence("steady-state march produced non-finite values")
        if rate < STEADY_TOL:
            w.flags.writeable = False
            return w
        if step % 64 == 0 and dt < dt_cap:
            dt = min(dt_cap, dt * 1.5)
            factor = _diffusion_factor(n, dx, (d,), dt)
    raise NonConvergence(
        f"single-species steady state not reached by t={STEADY_T_MAX:g} (rate {rate:.3e})"
    )


def _reference(rec: _Kinetics, d: float, k: int) -> np.ndarray:
    """Row k's single-survivor profile for exclusion verdicts.

    The record's closed form, else the single-species steady state of the
    record's resource at row k's diffusivity ``d``.
    """
    if isinstance(rec.survivors, ResourceField):
        return single_species_steady_state(d, rec.survivors)
    return rec.survivors[k]


def _default_dt(rec: _Kinetics) -> float:
    """A reaction-limited step: 0.05 over the largest rate coefficient."""
    return 0.05 / max(float(rec.growth.max()), rec.c_u, rec.c_v, 1e-6)


def _targets(t_end: float, opts: PdeOptions) -> Iterator[Tuple[float, bool, bool]]:
    """(time, is_snapshot, is_check) in increasing time, each time once.

    The checks are ``k * check_interval`` below t_end, then t_end itself.
    They are made one at a time as the run reaches them, so a run that ends
    early never builds the rest.  A snapshot time equal to a check is
    yielded once, as the snapshot's float, with both flags set.
    """

    def checks() -> Iterator[float]:
        k = 1
        while opts.check_interval > 0.0 and k * opts.check_interval < t_end:
            yield k * opts.check_interval
            k += 1
        yield t_end

    snaps = sorted({float(s) for s in opts.snapshot_times if 0.0 < float(s) <= t_end})
    i = 0
    for check in checks():
        while i < len(snaps) and snaps[i] < check:
            yield snaps[i], True, False
            i += 1
        if i < len(snaps) and snaps[i] == check:
            yield snaps[i], True, True
            i += 1
        else:
            yield check, False, True


def simulate_pde(
    params: PdeParams,
    init: PdeState,
    t_end: float,
    opts: Optional[PdeOptions] = None,
) -> Tuple[List[Tuple[float, PdeState]], PdeOutcome]:
    """Integrate the two-species system to t_end or its first verdict.

    Returns (snapshots, outcome).  Snapshots hold the initial and final
    states and the requested times before the verdict.  Verdicts are taken
    at the checks (every ``check_interval``) and at t_end only, not at
    snapshot times; the clock is set to each such time as the stepper
    reaches it, so a check verdict's ``t_reached`` is the check time:

    * UWins  -- sup v < TOL_OUT, and no larger than before the last step,
      and sup|u - u_ref| < TOL_OUT, where u_ref is u's single-survivor
      profile,
    * VWins  -- mirror image,
    * Coexist -- both fields exceed TOL_POS everywhere and the discrete
      time derivative of the computed solution, sup|w(t+dt) - w(t)| / dt
      over both fields on the last step before the check, is below
      TOL_STEADY (the computed solution has stopped changing),
    * Undecided -- none of the above by t_end (or when the step budget is
      exhausted), with a note.

    A run also ends on the step where a clampable field first reaches zero
    everywhere (the clamp at t = 0 included).  ``t_reached`` and
    ``fte_u_time`` / ``fte_v_time`` are the end of that step, accurate to
    the step.  The field stays zero, and the other obeys the single-species
    logistic equation, whose positive steady state attracts every
    non-negative, non-zero start when its growth row is positive somewhere
    (Cantrell & Cosner 2003, ch. 2-3).  So the other species wins if both
    it and its growth row are positive somewhere; otherwise the run ends
    Undecided with a note naming the extinction.

    Every step is the one IMEX step of the module docstring, whose fixed
    points solve the discrete steady equations exactly, so a lone survivor
    settles onto the profile the steady reference uses.  Between targets
    the clock is the last target reached (or the time of the last halving
    of dt) plus a whole number of steps of dt, not a running sum of steps.

    A step fails when its result is not finite or has an entry below minus
    the largest entry of the field before it (an explicit overshoot larger
    than the whole field).  A failed step is retried with half the time
    step; below DT_MIN this raises CflViolation.  Non-finite initial data
    raises NonFiniteField, and options that fail ``PdeOptions.validate``
    raise InvalidParameter.
    """
    if opts is None:
        opts = PdeOptions()
    opts.validate()
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise InvalidParameter("t_end must be positive and finite")
    grid = init.grid
    if params.resource_model and params.m.grid != grid:
        raise InvalidParameter("resource field and initial state use different grids")

    # One flat field: u is w[:n] (row 0) and v is w[n:] (row 1).
    w = np.concatenate((init.u, init.v))
    if not np.all(np.isfinite(w)):
        raise NonFiniteField("initial fields must be finite")

    n, dx = grid.n_x, grid.dx
    rows = (slice(0, n), slice(n, 2 * n))
    rec = _resolve(params, n)
    react = _make_reaction(rec)
    clampable = (rec.p < 1.0, rec.q < 1.0)
    diffusivities = (params.d1, params.d2)
    dt = opts.dt if opts.dt is not None else _default_dt(rec)
    # One factor per step size, built on its first use.
    factor = functools.lru_cache(maxsize=None)(
        functools.partial(_diffusion_factor, n, dx, diffusivities))
    ref_note = ""

    @functools.lru_cache(maxsize=None)
    def reference(k: int) -> Optional[np.ndarray]:
        """Row k's profile, built once; a march that fails sets ref_note."""
        nonlocal ref_note
        try:
            return _reference(rec, diffusivities[k], k)
        except (NonConvergence, InvalidParameter) as exc:
            ref_note = f"reference profile unavailable: {exc}"
            return None

    snapshots: List[Tuple[float, PdeState]] = [(0.0, PdeState(grid, w[:n], w[n:]))]
    # FTE time of each clampable row; the run ends at the first one.
    fte_time: List[Optional[float]] = [None, None]
    label: Optional[str] = None
    note = ""
    t = 0.0
    steps = 0
    clamp_rows = [k for k in (0, 1) if clampable[k]]
    clamp_mask = np.repeat(clampable, n)

    def apply_clamp(t_now: float) -> Optional[int]:
        """Clamp w; return the first row that is now zero everywhere."""
        np.maximum(w, 0.0, out=w)
        if not clamp_rows:
            return None
        low = w < EPS_EXT
        low &= clamp_mask
        if low.any():
            low &= react(w) <= 0.0
            w[low] = 0.0
        died = [k for k in clamp_rows if not w[rows[k]].any()]
        for k in died:
            fte_time[k] = t_now
        return died[0] if died else None

    def extinction_verdict(k: int) -> Tuple[str, str]:
        """Label and note of a run that ends at row k's FTE time t."""
        j = 1 - k
        if w[rows[j]].any() and rec.growth[j].max() > 0.0:
            return (U_WINS, V_WINS)[j], ""
        fate = "has no positive steady state" if w[rows[j]].any() else "is zero everywhere"
        return UNDECIDED, f"{'uv'[k]} extinct at t={t:g} and {'uv'[j]} {fate}"

    def classify_now(rate: float) -> Optional[str]:
        for k, wins in ((0, U_WINS), (1, V_WINS)):
            loser = float(w[rows[1 - k]].max())
            # excluded, and not growing on the step whose rate is read
            if loser < TOL_OUT and loser <= float(w_before[rows[1 - k]].max()):
                ref = reference(k)
                if ref is not None and float(np.max(np.abs(w[rows[k]] - ref))) < TOL_OUT:
                    return wins
        # both fields above TOL_POS everywhere
        if float(w.min()) > TOL_POS and rate < TOL_STEADY:
            return COEXIST
        return None

    died = apply_clamp(0.0)
    last_rate = math.inf
    w_before = w  # the field before the last step of a check
    budget_hit = False
    t_seg, k_seg = 0.0, 0  # the clock is t_seg + k_seg * dt between targets
    for target, is_snapshot, is_check in _targets(t_end, opts):
        slack = 1e-12 * max(1.0, target)
        while died is None and target - t > slack:
            if steps >= opts.max_steps:
                budget_hit = True
                break
            h = min(dt, target - t)
            w_prev = w
            f = factor(GAMMA * h)
            k1 = react(w)
            b = w + (GAMMA * h) * k1
            y = np.maximum(cho_solve_banded(f, b), 0.0)
            rhs = w + h * (DELTA * k1 + (1.0 - DELTA) * react(y))
            w = cho_solve_banded(f, rhs + ((1.0 - GAMMA) / GAMMA) * (y - b))
            steps += 1
            if not (math.isfinite(float(w.sum())) and float(w.min()) >= -float(w_prev.max())):
                w = w_prev
                dt *= 0.5
                if dt < DT_MIN:
                    raise CflViolation(
                        f"time step underflow at t={t:g} (dt={dt:.3e})"
                    )
                t_seg, k_seg = t, 0
                continue
            k_seg += 1
            t = t_seg + k_seg * dt
            if target - t <= slack:  # the clock lands on the target
                t, t_seg, k_seg = target, target, 0
            died = apply_clamp(t)
            if t == target:  # classify_now reads the last step's rate and start
                last_rate, w_before = float(np.abs(w - w_prev).max()) / h, w_prev
        if died is not None:
            label, note = extinction_verdict(died)
            break
        if budget_hit:
            note = f"step budget ({opts.max_steps}) exhausted at t={t:g}"
            break
        if is_snapshot:
            snapshots.append((t, PdeState(grid, w[:n], w[n:])))
        verdict = classify_now(last_rate) if is_check else None
        if verdict is not None:
            label = verdict
            break

    if label is None:
        label = UNDECIDED
        if not note:
            note = f"no verdict by t={t:g}"
            if ref_note:
                note += f"; {ref_note}"
    if snapshots[-1][0] != t:
        snapshots.append((t, PdeState(grid, w[:n], w[n:])))

    outcome = PdeOutcome(
        label=label,
        t_reached=float(t),  # t is a NumPy scalar when dt or check_interval is one
        fte_u=fte_time[0] is not None,
        fte_v=fte_time[1] is not None,
        fte_u_time=fte_time[0],
        fte_v_time=fte_time[1],
        note=note,
    )
    return snapshots, outcome


@dataclass(frozen=True)
class RecoveryReport:
    """Pointwise certificate that v excludes u from given initial fields.

    For strong competition with 0 < p < 1 and q = 1 the certificate needs,
    at every point x:

    * cond1   -- lower(u0(x)) <= v0(x) <= upper(u0(x)), where lower is the
      finite-time extinction threshold in u and upper is the ray through
      the origin and the interior saddle (slope v*/u*),
    * cond12  -- u0(x) <= u*,
    * cond123 -- a single parameter inequality making lower <= upper on the
      whole admissible strip 0 < u0 <= u*.

    ``all_hold`` is True when every sampled point passes and the parameter
    inequality holds.
    """

    u_star: float
    v_star: float
    lower: np.ndarray
    upper: np.ndarray
    cond1: np.ndarray
    cond12: np.ndarray
    cond123: bool

    @property
    def all_hold(self) -> bool:
        return bool(self.cond1.all() and self.cond12.all() and self.cond123)


def check_recovery_conditions(
    params: KineticParams, u0: object, v0: object
) -> RecoveryReport:
    """Evaluate the extinction certificate on sampled initial data.

    pre: strong competition regime, 0 < p < 1, q = 1; u0, v0 non-negative
    arrays (or scalars) of matching shape.
    """
    if classify_regime(params) is not Regime.STRONG_COMPETITION:
        raise InvalidParameter("certificate requires the strong competition regime")
    if not (0.0 < params.p < 1.0):
        raise InvalidParameter("certificate requires 0 < p < 1")
    if params.q != 1.0:
        raise InvalidParameter("certificate requires q = 1")
    u_arr = np.atleast_1d(np.asarray(u0, dtype=float))
    v_arr = np.atleast_1d(np.asarray(v0, dtype=float))
    if u_arr.shape != v_arr.shape:
        raise InvalidParameter("u0 and v0 must have matching shapes")
    if np.any(u_arr < 0.0) or np.any(v_arr < 0.0):
        raise InvalidParameter("initial data must be non-negative")

    a1, a2 = params.a1, params.a2
    b1, b2 = params.b1, params.b2
    c1, c2 = params.c1, params.c2
    p = params.p
    denom = c1 * c2 - b1 * b2
    u_star = (c1 * a2 - a1 * b2) / denom
    v_star = (c2 * a1 - b1 * a2) / denom
    slope = v_star / u_star

    coef = fte_coefficient(params)
    lower = coef * safe_pow_arr(u_arr, 1.0 - p)
    upper = slope * u_arr
    cond1 = (lower <= v_arr) & (v_arr <= upper)
    cond12 = u_arr <= u_star
    cond123 = bool(coef <= slope * u_star ** p)
    return RecoveryReport(
        u_star=u_star,
        v_star=v_star,
        lower=lower,
        upper=upper,
        cond1=cond1,
        cond12=cond12,
        cond123=cond123,
    )
