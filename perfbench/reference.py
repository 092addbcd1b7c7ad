"""Independent computations the benchmark checks lvfte's verdicts against.

Nothing here imports lvfte.  The kinetics are written out again from the
model equations, trajectories are integrated with scipy's DOP853, interior
equilibria are counted by a sign scan plus ``brentq`` on a formulation
other than lvfte's nullcline difference, and Jacobians are taken by finite
differences.  Every ``check_*`` function returns a list of failure
messages; an empty list means the verdict passed.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

# Relative tolerance on a finite-time-extinction event time.  lvfte's event
# times sit up to 1.85e-6 (relative) away from a converged DOP853 reference
# on about 1% of certified draws, so 1e-5 keeps the check seed-independent
# while a 1e-3 shift is still rejected.
EVENT_RTOL = 1e-5
EXT_LEVEL = 1e-10  # lvfte's extinction clamp level
LOCK_TOL = 1e-4  # terminal point versus the reference attractor
RESIDUAL_TOL = 1e-6  # |kinetics| at a terminal point
EQ_RESIDUAL_TOL = 1e-9  # |kinetics| at a reported equilibrium
PDE_TOL_OUT = 1e-4  # lvfte's documented exclusion tolerance


# ---------------------------------------------------------------------------
# Kinetics written out from the model equations
# ---------------------------------------------------------------------------


def _pow(x: float, e: float) -> float:
    if e == 1.0:
        return x
    return x ** e if x > 0.0 else 0.0


def competition_field(k: Dict[str, float]):
    """du = a1 u - b1 u^2 - c1 u^p v,  dv = a2 v - b2 v^2 - c2 u v^q."""
    a1, a2, b1, b2, c1, c2 = (k[n] for n in ("a1", "a2", "b1", "b2", "c1", "c2"))
    p, q = k.get("p", 1.0), k.get("q", 1.0)

    def f(u: float, v: float) -> Tuple[float, float]:
        return (
            a1 * u - b1 * u * u - c1 * _pow(u, p) * v,
            a2 * v - b2 * v * v - c2 * u * _pow(v, q),
        )

    return f


def harvest_field(k: Dict[str, float], d: float, e: float, a: float):
    """du = a1 u - b1 u^2 - a c1 u v,  dv = a2 v - b2 v^2 - c2 d u v - c2 e v^q."""
    a1, a2, b1, b2, c1, c2 = (k[n] for n in ("a1", "a2", "b1", "b2", "c1", "c2"))
    q = k.get("q", 1.0)

    def f(u: float, v: float) -> Tuple[float, float]:
        return (
            a1 * u - b1 * u * u - a * c1 * u * v,
            a2 * v - b2 * v * v - c2 * d * u * v - c2 * e * _pow(v, q),
        )

    return f


def fte_threshold(k: Dict[str, float], u0: float) -> float:
    """Sufficient finite-time-extinction curve for 0 < p < 1, q = 1."""
    p = k["p"]
    coef = (k["a1"] * k["c2"] + (1.0 - p) * k["a1"] * k["b1"]) / (
        (1.0 - p) * k["c1"] * k["b1"]
    )
    return coef * u0 ** (1.0 - p)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


class RefTrajectory(NamedTuple):
    """A DOP853 run (rtol 1e-12) that stops when a clampable species
    crosses 1e-10 downward; ``event`` is (species, time) or None and
    ``final`` the state at the stop."""

    event: Optional[Tuple[str, float]]
    final: Tuple[float, float]


def reference_trajectory(
    field, y0: Tuple[float, float], t_end: float, clampable: Sequence[str]
) -> RefTrajectory:
    from scipy.integrate import solve_ivp

    events = []
    names = []
    for name, idx in (("u", 0), ("v", 1)):
        if name in clampable:
            def crossing(t, y, idx=idx):
                return y[idx] - EXT_LEVEL
            crossing.terminal = True
            crossing.direction = -1
            events.append(crossing)
            names.append(name)
    sol = solve_ivp(
        lambda t, y: field(y[0], y[1]),
        (0.0, t_end),
        list(y0),
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        events=events or None,
    )
    if not sol.success and sol.status != 1:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    event = None
    if sol.status == 1:
        for name, times in zip(names, sol.t_events):
            if len(times):
                event = (name, float(times[0]))
    return RefTrajectory(event, (float(sol.y[0, -1]), float(sol.y[1, -1])))


def check_trajectory(
    verdict: Dict[str, object], ref: RefTrajectory, field, k: Dict[str, float]
) -> List[str]:
    """Check lvfte's events and terminal label against a reference run.

    ``verdict`` holds ``events`` as [(species, t_star)] and ``terminal`` as
    (name, u, v) or None.  After an extinction the survivor must settle on
    its single-species equilibrium, a2/b2 for v or a1/b1 for u.
    """
    survivors = {"u": (0.0, k["a2"] / k["b2"]), "v": (k["a1"] / k["b1"], 0.0)}
    fails = []
    events = verdict["events"]
    want = [ref.event[0]] if ref.event else []
    got = [sp for sp, _ in events]
    if got != want:
        fails.append(f"events {got} != reference {want}")
    elif ref.event:
        t_ref = ref.event[1]
        t_got = events[0][1]
        if not abs(t_got - t_ref) <= EVENT_RTOL * abs(t_ref):
            fails.append(f"event time {t_got!r} vs reference {t_ref!r}")
    term = verdict["terminal"]
    if term is None:
        fails.append("no terminal label")
        return fails
    _, tu, tv = term
    du, dv = field(tu, tv)
    if not max(abs(du), abs(dv)) <= RESIDUAL_TOL:
        fails.append(f"terminal ({tu}, {tv}) does not zero the kinetics ({du}, {dv})")
    target = survivors[ref.event[0]] if ref.event else ref.final
    if not math.hypot(tu - target[0], tv - target[1]) <= LOCK_TOL:
        fails.append(f"terminal ({tu}, {tv}) is not near {target}")
    return fails


# ---------------------------------------------------------------------------
# Outcome maps
# ---------------------------------------------------------------------------

MIRROR = {"UWins": "VWins", "VWins": "UWins", "Coexist": "Coexist"}


def check_map_smooth(cells: Dict[Tuple[float, float], Dict[str, object]]) -> List[str]:
    """p = 1, b = c, shared initial data: the map is symmetric under u<->v,
    d1<->d2, its diagonal coexists and the slower u-diffuser never loses.
    Returns one message per failed cell, plus one if the lower half lacks
    a UWins or a Coexist cell."""
    fails = []
    lower = []
    for (d1, d2), cell in cells.items():
        label = cell["label"]
        why = []
        if d1 == d2:
            if label != "Coexist":
                why.append("diagonal is not Coexist")
        else:
            mirror = cells.get((d2, d1))
            if mirror is None or MIRROR.get(mirror["label"]) != label:
                why.append(f"does not mirror {mirror and mirror['label']}")
            if d1 < d2:
                lower.append(label)
                if label not in ("UWins", "Coexist"):
                    why.append("slower u-diffuser loses")
        if why:
            fails.append(f"cell ({d1:.4g}, {d2:.4g}) {label}: " + "; ".join(why))
    if "UWins" not in lower or "Coexist" not in lower:
        fails.append(f"d1 < d2 half lacks UWins or Coexist: {sorted(set(lower))}")
    return fails


def check_map_fte(cells: Dict[Tuple[float, float], Dict[str, object]]) -> List[str]:
    """p < 1 on u only: v can never be zeroed, no cell stays undecided, and
    somewhere below the diagonal the faster v-diffuser wins through u's
    finite-time extinction."""
    fails = []
    flipped = False
    for (d1, d2), cell in cells.items():
        if cell["fte_v"]:
            fails.append(f"cell ({d1:.4g}, {d2:.4g}) sets fte_v with q = 1")
        elif cell["label"] not in MIRROR:
            fails.append(f"cell ({d1:.4g}, {d2:.4g}) is {cell['label']}")
        if d1 < d2 and cell["label"] == "VWins" and cell["fte_u"]:
            flipped = True
    if not flipped:
        fails.append("no d1 < d2 cell is VWins through finite-time extinction of u")
    return fails


# ---------------------------------------------------------------------------
# Equilibria
# ---------------------------------------------------------------------------


def _roots(fn, lo: float, hi: float, points: int = 20001) -> List[float]:
    from scipy.optimize import brentq

    xs = np.linspace(lo, hi, points)[1:-1]
    fs = np.array([fn(x) for x in xs])
    roots = []
    for i in range(len(xs) - 1):
        if fs[i] == 0.0:
            roots.append(float(xs[i]))
        elif fs[i] * fs[i + 1] < 0.0:
            roots.append(brentq(fn, xs[i], xs[i + 1], xtol=1e-14))
    return roots


def interior_count(k: Dict[str, float]) -> int:
    """Strictly positive equilibria of a one-sided fractional model.

    q = 1: v = (a2 - c2 u)/b2 on 0 < u < a2/c2, root of a1 - b1 u - c1 u^(p-1) v.
    p = 1: u = (a1 - c1 v)/b1 on 0 < v < a1/c1, root of a2 - b2 v - c2 u v^(q-1).
    """
    return _interior_count(*(k[n] for n in ("a1", "a2", "b1", "b2", "c1", "c2")),
                           k.get("p", 1.0), k.get("q", 1.0))


@functools.lru_cache(maxsize=None)  # recipes repeat the same parameters
def _interior_count(a1: float, a2: float, b1: float, b2: float, c1: float, c2: float,
                    p: float, q: float) -> int:
    if q == 1.0:
        def h(u):
            return a1 - b1 * u - c1 * u ** (p - 1.0) * (a2 - c2 * u) / b2
        return len(_roots(h, 0.0, a2 / c2))
    if p == 1.0:
        def g(v):
            return a2 - b2 * v - c2 * (a1 - c1 * v) / b1 * v ** (q - 1.0)
        return len(_roots(g, 0.0, a1 / c1))
    raise ValueError("interior_count handles one-sided fractional models only")


def fd_trace_det(field, u: float, v: float, h: float = 1e-6) -> Tuple[float, float]:
    """Trace and determinant of a central-difference Jacobian."""
    fu_p, fu_m = field(u + h, v), field(u - h, v)
    fv_p, fv_m = field(u, v + h), field(u, v - h)
    j11 = (fu_p[0] - fu_m[0]) / (2 * h)
    j21 = (fu_p[1] - fu_m[1]) / (2 * h)
    j12 = (fv_p[0] - fv_m[0]) / (2 * h)
    j22 = (fv_p[1] - fv_m[1]) / (2 * h)
    return j11 + j22, j11 * j22 - j12 * j21


def check_equilibria(listing: Sequence[Dict[str, object]], k: Dict[str, float]) -> List[str]:
    """Each equilibrium zeroes the kinetics, its trace and determinant match
    a finite-difference Jacobian, and the interior count matches."""
    field = competition_field(k)
    fails = []
    for eq in listing:
        u, v = eq["u"], eq["v"]
        du, dv = field(u, v)
        if not max(abs(du), abs(dv)) <= EQ_RESIDUAL_TOL:
            fails.append(f"({u}, {v}) leaves residual ({du}, {dv})")
        if eq["trace"] is not None:
            tr, det = fd_trace_det(field, u, v)
            if not (abs(tr - eq["trace"]) <= 1e-6 and abs(det - eq["det"]) <= 1e-6):
                fails.append(f"({u}, {v}) trace/det {eq['trace']}/{eq['det']} vs {tr}/{det}")
    interior = sum(1 for eq in listing if eq["kind"] == "Interior")
    if interior != interior_count(k):
        fails.append(f"interior count {interior} != {interior_count(k)}")
    return fails


def weak_competition(k: Dict[str, float]) -> bool:
    ratio = k["a1"] / k["a2"]
    return k["b1"] / k["c2"] > ratio > k["c1"] / k["b2"]


def windows(c1s: Sequence[float], flags: Sequence[bool]) -> List[List[float]]:
    out, start = [], None
    for i, flag in enumerate(flags):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            out.append([c1s[start], c1s[i - 1]])
            start = None
    if start is not None:
        out.append([c1s[start], c1s[-1]])
    return out


def check_window(rows: Sequence[Dict[str, str]], summary: Dict[str, object],
                 k: Dict[str, float], p_exp: float, q_exp: float) -> List[str]:
    fails = []
    c1s, flags_p, flags_q = [], [], []
    for row in rows:
        c1 = float(row["c1"])
        kc = dict(k, c1=c1)
        n_p = interior_count(dict(kc, p=p_exp, q=1.0))
        n_q = interior_count(dict(kc, p=1.0, q=q_exp))
        regime = weak_competition(dict(kc, p=1.0, q=1.0))
        got = (int(row["count_p_variant"]), int(row["count_q_variant"]), row["in_regime"] == "true")
        if got != (n_p, n_q, regime):
            fails.append(f"c1={c1}: {got} != {(n_p, n_q, regime)}")
        c1s.append(c1)
        flags_p.append(regime and n_p == 2 and n_q == 0)
        flags_q.append(regime and n_p == 0 and n_q == 2)
    if summary["windows_p"] != windows(c1s, flags_p):
        fails.append(f"windows_p {summary['windows_p']} != {windows(c1s, flags_p)}")
    if summary["windows_q"] != windows(c1s, flags_q):
        fails.append(f"windows_q {summary['windows_q']} != {windows(c1s, flags_q)}")
    return fails


# ---------------------------------------------------------------------------
# Separatrix and the threshold curve
# ---------------------------------------------------------------------------


def check_separatrix(polyline: Sequence[Tuple[float, float]], saddle: Tuple[float, float],
                     threshold: Sequence[Tuple[float, float]], k: Dict[str, float]) -> List[str]:
    """The saddle zeroes the kinetics and lies on the polyline, the vector
    field is tangent to the polyline (an invariant curve), and the threshold
    samples follow the closed-form curve."""
    field = competition_field(k)
    fails = []
    du, dv = field(*saddle)
    if not max(abs(du), abs(dv)) <= EQ_RESIDUAL_TOL:
        fails.append(f"saddle {saddle} leaves residual ({du}, {dv})")
    if tuple(saddle) not in {tuple(p) for p in polyline}:
        fails.append("saddle is not on the polyline")
    worst = 0.0
    for a, b, c in zip(polyline, polyline[1:-1], polyline[2:]):
        fu, fv = field(*b)
        su, sv = c[0] - a[0], c[1] - a[1]
        norm = math.hypot(fu, fv) * math.hypot(su, sv)
        if math.hypot(fu, fv) > 1e-6 and norm > 0.0:
            worst = max(worst, abs(fu * sv - fv * su) / norm)
    if not worst <= 1e-2:
        fails.append(f"polyline leaves the flow direction (sin angle {worst:.3g})")
    for u0, v_thr in threshold:
        want = fte_threshold(k, u0)
        if not abs(v_thr - want) <= 1e-12 * abs(want):
            fails.append(f"threshold at u0={u0}: {v_thr} != {want}")
            break
    return fails


# ---------------------------------------------------------------------------
# Reaction-diffusion runs
# ---------------------------------------------------------------------------


def read_csv(path: Path) -> List[Dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_pde(out: Path, summary: Dict[str, object], expect: Dict[str, object]) -> List[str]:
    """Label and FTE flags as the config's comment states, and a final
    snapshot that agrees with the label."""
    fails = []
    outcome = summary["outcome"]
    for key, want in expect.items():
        if outcome[key] != want:
            fails.append(f"{key} = {outcome[key]!r}, expected {want!r}")
    final = read_csv(out / summary["snapshots"][-1]["file"])
    sup_u = max(float(r["u"]) for r in final)
    sup_v = max(float(r["v"]) for r in final)
    label = outcome["label"]
    if label == "UWins" and not sup_v < PDE_TOL_OUT:
        fails.append(f"UWins with sup v = {sup_v}")
    if label == "VWins" and not sup_u < PDE_TOL_OUT:
        fails.append(f"VWins with sup u = {sup_u}")
    if outcome["fte_u"] and sup_u != 0.0:
        fails.append(f"fte_u set but final sup u = {sup_u}")
    return fails


def check_recovery(initial: Sequence[Dict[str, str]], conditions: Dict[str, object],
                   k: Dict[str, float]) -> List[str]:
    """Recompute the band certificate from the initial snapshot."""
    a1, a2, b1, b2, c1, c2, p = (k[n] for n in ("a1", "a2", "b1", "b2", "c1", "c2", "p"))
    denom = c1 * c2 - b1 * b2
    u_star = (c1 * a2 - a1 * b2) / denom
    v_star = (c2 * a1 - b1 * a2) / denom
    slope = v_star / u_star
    coef = fte_threshold(k, 1.0)
    u0 = [float(r["u"]) for r in initial]
    v0 = [float(r["v"]) for r in initial]
    want = {
        "cond1_all": all(coef * u ** (1.0 - p) <= v <= slope * u for u, v in zip(u0, v0)),
        "cond12_all": all(u <= u_star for u in u0),
        "cond123": coef <= slope * u_star ** p,
    }
    want["all_hold"] = all(want.values())
    fails = [f"{key} = {conditions[key]} != {val}" for key, val in want.items()
             if conditions[key] != val]
    for key, val in (("u_star", u_star), ("v_star", v_star)):
        if not abs(conditions[key] - val) <= 1e-12 * abs(val):
            fails.append(f"{key} {conditions[key]} != {val}")
    if not want["all_hold"]:
        fails.append("the band data is not certified")
    return fails


def load_summary(out: Path) -> Tuple[bytes, Dict[str, object]]:
    raw = (out / "summary.json").read_bytes()
    return raw, json.loads(raw)
