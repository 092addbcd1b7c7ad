"""Parameter sweeps: diffusion-plane outcome maps and c1 count windows.

``scan_diffusion`` tiles a (d1, d2) rectangle (log-spaced axes by default),
runs ``simulate_pde`` per cell with a shared initial-data policy, and
collects the verdicts into an immutable grid.  Cells run in parallel with
``ProcessPoolExecutor``, whose ``map`` returns results in task order, so the
grid is deterministic regardless of completion order; a failing cell
records Undecided with an error note instead of aborting the sweep.

``scan_c1_window`` sweeps the cross-competition coefficient c1 and counts
interior equilibria for two one-sided sub-linear variants (p < 1 with
q = 1, and q < 1 with p = 1), reporting the maximal c1 sub-intervals where
the expected count patterns (2 vs 0, and 0 vs 2) hold inside the weak
competition regime of the p = q = 1 baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .equilibria import interior_equilibria
from .kinetics import KineticParams, Regime, classify_regime
from .exceptions import InvalidParameter, LvfteError
from .pde import (
    UNDECIDED,
    Grid1D,
    PdeOptions,
    PdeOutcome,
    PdeParams,
    PdeState,
    _resolve,
    simulate_pde,
)

__all__ = [
    "OutcomeGrid",
    "WindowScan",
    "log_axis",
    "initial_state_for_policy",
    "scan_diffusion",
    "scan_c1_window",
]


def log_axis(lo: float, hi: float, n: int) -> Tuple[float, ...]:
    """n log-spaced values from lo to hi inclusive."""
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
        raise InvalidParameter("log axis requires 0 < lo < hi, both finite")
    if n < 1:
        raise InvalidParameter("log axis requires n >= 1")
    if n == 1:
        return (lo,)
    return tuple(float(x) for x in np.geomspace(lo, hi, n))


@dataclass(frozen=True)
class OutcomeGrid:
    """Verdict grid over the diffusion plane.

    ``labels[i][j]`` is the outcome at (d1_values[i], d2_values[j]); the
    fte and note grids are aligned the same way.  ``ic_policy`` records how
    the shared initial data was built: "half-resource", the one policy of
    initial_state_for_policy.
    """

    d1_values: Tuple[float, ...]
    d2_values: Tuple[float, ...]
    labels: Tuple[Tuple[str, ...], ...]
    t_reached: Tuple[Tuple[float, ...], ...]
    fte_u: Tuple[Tuple[bool, ...], ...]
    fte_v: Tuple[Tuple[bool, ...], ...]
    notes: Tuple[Tuple[str, ...], ...]
    ic_policy: str

    def count(self, label: str) -> int:
        return sum(row.count(label) for row in self.labels)


def initial_state_for_policy(template: PdeParams, grid: Grid1D, offset: float) -> PdeState:
    """Build the shared initial fields for a sweep ("half-resource").

    Both species start at half of u's local carrying capacity plus a
    uniform offset (m/2 + offset for a resource template, a1/(2*b1) +
    offset for constant kinetics), so neither species is favoured and both
    start strictly positive.
    """
    if not (math.isfinite(offset) and offset > 0.0):
        raise InvalidParameter("policy offset must be positive and finite")
    rec = _resolve(template, grid.n_x)
    base = rec.growth[0] / (2.0 * rec.crowding[0]) + offset
    return PdeState(grid, base, base.copy())


def _run_cell(args: Tuple[PdeParams, PdeState, float, PdeOptions]) -> PdeOutcome:
    params, init, t_end, opts = args
    try:
        return simulate_pde(params, init, t_end, opts)[1]
    except LvfteError as exc:  # per-cell numerical failures never abort the sweep
        return PdeOutcome(UNDECIDED, 0.0, note=f"{type(exc).__name__}: {exc}")


def scan_diffusion(
    template: PdeParams,
    d1_values: Sequence[float],
    d2_values: Sequence[float],
    t_end: float,
    *,
    grid: Optional[Grid1D] = None,
    options: PdeOptions,
    ic_offset: float = 0.01,
    workers: Optional[int] = None,
) -> OutcomeGrid:
    """Run simulate_pde on every (d1, d2) cell and collect verdicts.

    ``template`` supplies the reaction (its own d1/d2 are placeholders and
    are replaced per cell).  ``grid`` defaults to the resource grid for
    resource templates and must be given for constant kinetics.  With
    ``workers`` = 1 the sweep runs serially in-process; otherwise a process
    pool is used.  Results are identical either way.
    """
    d1_tuple = tuple(float(d) for d in d1_values)
    d2_tuple = tuple(float(d) for d in d2_values)
    if not d1_tuple or not d2_tuple:
        raise InvalidParameter("axes must be non-empty")
    for d in d1_tuple + d2_tuple:
        if not (math.isfinite(d) and d > 0.0):
            raise InvalidParameter("diffusivities must be positive and finite")
    if grid is None:
        grid = template.grid
    if grid is None:
        raise InvalidParameter("a grid is required for constant-kinetics templates")
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise InvalidParameter("t_end must be positive and finite")
    options.validate()  # once for the sweep, not as an Undecided note per cell

    init = initial_state_for_policy(template, grid, ic_offset)
    # Row-major task order; map and pool.map both return results in it.
    tasks = [
        (replace(template, d1=d1, d2=d2), init, float(t_end), options)
        for d1 in d1_tuple
        for d2 in d2_tuple
    ]

    if workers is not None and workers < 1:
        raise InvalidParameter("workers must be a positive integer")
    if workers == 1:
        outcomes = list(map(_run_cell, tasks))
    else:
        # Imported here so that importing lvfte does not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            outcomes = list(pool.map(_run_cell, tasks, chunksize=1))
        finally:
            pool.shutdown()
    rows = [outcomes[i : i + len(d2_tuple)] for i in range(0, len(outcomes), len(d2_tuple))]

    def grid_of(field: str) -> Tuple[tuple, ...]:
        return tuple(tuple(getattr(o, field) for o in row) for row in rows)

    return OutcomeGrid(
        d1_values=d1_tuple,
        d2_values=d2_tuple,
        labels=grid_of("label"),
        t_reached=grid_of("t_reached"),
        fte_u=grid_of("fte_u"),
        fte_v=grid_of("fte_v"),
        notes=grid_of("note"),
        ic_policy="half-resource",
    )


@dataclass(frozen=True)
class WindowScan:
    """Interior-equilibrium counts along a c1 sweep.

    ``counts_p[k]`` is the interior count with exponents (p_exponent, 1) at
    c1_values[k]; ``counts_q[k]`` uses (1, q_exponent).  ``in_regime`` marks
    where the p = q = 1 baseline sits in weak competition.  ``windows_p``
    are the maximal c1 intervals (within the regime) where the counts are
    (2, 0); ``windows_q`` where they are (0, 2).
    """

    c1_values: Tuple[float, ...]
    counts_p: Tuple[int, ...]
    counts_q: Tuple[int, ...]
    in_regime: Tuple[bool, ...]
    p_exponent: float
    q_exponent: float
    windows_p: Tuple[Tuple[float, float], ...]
    windows_q: Tuple[Tuple[float, float], ...]


def _maximal_windows(
    c1s: Sequence[float], flags: Sequence[bool]
) -> Tuple[Tuple[float, float], ...]:
    windows = []
    start: Optional[int] = None
    for idx, flag in enumerate(flags):
        if flag and start is None:
            start = idx
        elif not flag and start is not None:
            windows.append((c1s[start], c1s[idx - 1]))
            start = None
    if start is not None:
        windows.append((c1s[start], c1s[-1]))
    return tuple(windows)


def scan_c1_window(
    template: KineticParams,
    c1_min: float,
    c1_max: float,
    samples: int,
    p_exponent: float,
    q_exponent: float,
) -> WindowScan:
    """Count interior equilibria for both one-sided variants along c1.

    pre: 0 < c1_min < c1_max finite, samples >= 2, exponents in (0, 1).
    The template's own p/q are ignored; each sample is classified with
    p = q = 1 and counted with (p_exponent, 1) and (1, q_exponent).
    """
    if not (math.isfinite(c1_min) and math.isfinite(c1_max) and 0.0 < c1_min < c1_max):
        raise InvalidParameter("c1 range must satisfy 0 < c1_min < c1_max")
    if samples < 2:
        raise InvalidParameter("samples must be at least 2")
    for name, e in (("p_exponent", p_exponent), ("q_exponent", q_exponent)):
        if not (0.0 < e < 1.0):
            raise InvalidParameter(f"{name} must lie in (0, 1)")

    c1s = tuple(float(c) for c in np.linspace(c1_min, c1_max, samples))
    counts_p: List[int] = []
    counts_q: List[int] = []
    in_regime: List[bool] = []
    for c1 in c1s:
        baseline = replace(template, c1=c1, p=1.0, q=1.0)
        in_regime.append(classify_regime(baseline) is Regime.WEAK_COMPETITION)
        counts_p.append(len(interior_equilibria(replace(template, c1=c1, p=p_exponent, q=1.0))))
        counts_q.append(len(interior_equilibria(replace(template, c1=c1, p=1.0, q=q_exponent))))

    flags_p = [r and cp == 2 and cq == 0 for r, cp, cq in zip(in_regime, counts_p, counts_q)]
    flags_q = [r and cp == 0 and cq == 2 for r, cp, cq in zip(in_regime, counts_p, counts_q)]
    return WindowScan(
        c1_values=c1s,
        counts_p=tuple(counts_p),
        counts_q=tuple(counts_q),
        in_regime=tuple(in_regime),
        p_exponent=float(p_exponent),
        q_exponent=float(q_exponent),
        windows_p=_maximal_windows(c1s, flags_p),
        windows_q=_maximal_windows(c1s, flags_q),
    )
