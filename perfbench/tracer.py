"""Spans around lvfte's layer boundaries, installed from outside ``src/``.

``Tracer.install`` replaces the module attributes through which one layer
calls the next (``lvfte.scan.simulate_pde``, ``lvfte.pde.cho_solve_banded``,
``lvfte.ode.rhs`` and so on) with wrappers that record a span: a name, a
start, an end and the index of the enclosing span.  Spans live in flat
arrays while the traced round runs, are written out by ``dump``, and
``layer_metrics`` derives self times and counts from them.  ``remove``
puts the original attributes back.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# (module, attribute, span name, capture).  A capture keeps one number from
# a call: its diffusivity, model time reached or recorded step count.
_T_REACHED = "t_reached"
_STEPS = "steps"
_DIFFUSIVITY = "d"

BOUNDARIES: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("lvfte.scan", "scan_diffusion", "scan.scan_diffusion", None),
    ("lvfte.scan", "simulate_pde", "pde.simulate_pde", _T_REACHED),
    ("lvfte.scan", "interior_equilibria", "equilibria.interior_equilibria", None),
    ("lvfte.pde", "cho_solve_banded", "pde.cho_solve_banded", None),
    ("lvfte.pde", "cholesky_banded", "pde.cholesky_banded", None),
    ("lvfte.pde", "single_species_steady_state", "pde.single_species_steady_state", _DIFFUSIVITY),
    ("lvfte.ode", "integrate", "ode.integrate", _STEPS),
    ("lvfte.ode", "rhs", "kinetics.rhs", None),
    ("lvfte.ode", "harvest_rhs", "kinetics.harvest_rhs", None),
    ("lvfte.ode", "all_equilibria", "equilibria.all_equilibria", None),
    ("lvfte.equilibria", "nullcline_value", "equilibria.nullcline_value", None),
    ("lvfte.cli", "main", "cli.main", None),
    ("lvfte.cli", "load_config", "config.load_config", None),
    ("lvfte.cli", "apply_overrides", "config.apply_overrides", None),
    ("lvfte.cli", "config_digest", "config.config_digest", None),
    ("lvfte.cli", "all_equilibria", "equilibria.all_equilibria", None),
    ("lvfte.cli", "interior_equilibria", "equilibria.interior_equilibria", None),
    ("lvfte.cli", "classify_regime", "kinetics.classify_regime", None),
    ("lvfte.cli", "integrate", "ode.integrate", _STEPS),
    ("lvfte.cli", "fte_threshold", "ode.fte_threshold", None),
    ("lvfte.cli", "trace_separatrix", "ode.trace_separatrix", None),
    ("lvfte.cli", "check_recovery_conditions", "pde.check_recovery_conditions", None),
    ("lvfte.cli", "simulate_pde", "pde.simulate_pde", _T_REACHED),
    ("lvfte.cli", "log_axis", "scan.log_axis", None),
    ("lvfte.cli", "scan_c1_window", "scan.scan_c1_window", None),
    ("lvfte.cli", "scan_diffusion", "scan.scan_diffusion", None),
)

_CAPTURES: Dict[str, Callable] = {
    _T_REACHED: lambda args, kwargs, result: result[1].t_reached,
    _STEPS: lambda args, kwargs, result: len(result.samples) - 1,
    _DIFFUSIVITY: lambda args, kwargs, result: args[0],
}

# Per-layer metrics: name -> unit.  The README says which end-to-end
# metric and workload each one should move.
LAYER_UNITS = {
    "scan.self_s": "s",
    "scan.cells": "count",
    "pde.diffusion_solve_s": "s",
    "pde.diffusion_solves": "count",
    "pde.solve_us": "us",
    "pde.self_s": "s",
    "pde.model_time_per_s": "model_t/s",
    "pde.factorize_s": "s",
    "pde.factorizations": "count",
    "pde.steady_state_s": "s",
    "pde.steady_state_calls": "count",
    "pde.steady_state_distinct_ratio": "ratio",
    "ode.integrate_s": "s",
    "ode.self_s": "s",
    "ode.accepted_steps": "count",
    "ode.rhs_per_step": "ratio",
    "ode.separatrix_s": "s",
    "kinetics.rhs_calls": "count",
    "kinetics.rhs_s": "s",
    "equilibria.calls": "count",
    "equilibria.time_s": "s",
    "equilibria.nullcline_evals": "count",
    "config.load_s": "s",
    "cli.self_s": "s",
    "host.calibration_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.captured: Dict[int, float] = {}
        self._stack = [-1]
        self._patches: List[Tuple[object, str, object]] = []

    def _wrap(self, fn, span: str, capture: Optional[str]):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        keep = _CAPTURES[capture] if capture else None
        clock = time.perf_counter
        stack, name, parent, start, end = self._stack, self.name, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if keep is not None:
                self.captured[idx] = float(keep(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        import importlib

        for module_name, attr, span, capture in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span, capture))

    def remove(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def dump(self, path: Path) -> None:
        idx = np.fromiter(self.captured.keys(), dtype=np.int64, count=len(self.captured))
        val = np.fromiter(self.captured.values(), dtype=float, count=len(self.captured))
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            captured_index=idx,
            captured_value=val,
        )

    def layer_metrics(self) -> Dict[str, float]:
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        n = len(dur)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        def ids(*spans: str) -> np.ndarray:
            return np.array([self._ids[s] for s in spans if s in self._ids], dtype=np.int32)

        def mask(*spans: str) -> np.ndarray:
            return np.isin(name, ids(*spans))

        def under(spans: Tuple[str, ...], parents: Tuple[str, ...]) -> np.ndarray:
            return mask(*spans) & np.isin(parent_name, ids(*parents))

        def captured(m: np.ndarray) -> float:
            return float(sum(self.captured.get(int(i), 0.0) for i in np.flatnonzero(m)))

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        scan = mask("scan.scan_diffusion")
        sim = mask("pde.simulate_pde")
        solve = under(("pde.cho_solve_banded",), ("pde.simulate_pde",))
        factor = under(("pde.cholesky_banded",), ("pde.simulate_pde",))
        steady = mask("pde.single_species_steady_state")
        integ = mask("ode.integrate")
        rhs = mask("kinetics.rhs", "kinetics.harvest_rhs")
        eq = mask("equilibria.all_equilibria", "equilibria.interior_equilibria")
        steps = captured(integ)
        d_seen = {self.captured[int(i)] for i in np.flatnonzero(steady)}
        return {
            "scan.self_s": float(self_time[scan].sum()),
            "scan.cells": float(under(("pde.simulate_pde",), ("scan.scan_diffusion",)).sum()),
            "pde.diffusion_solve_s": float(dur[solve].sum()),
            "pde.diffusion_solves": float(solve.sum()),
            "pde.solve_us": 1e6 * ratio(float(dur[solve].sum()), float(solve.sum())),
            "pde.self_s": float(self_time[sim].sum()),
            "pde.model_time_per_s": ratio(captured(sim), float(dur[sim].sum())),
            "pde.factorize_s": float(dur[factor].sum()),
            "pde.factorizations": float(factor.sum()),
            "pde.steady_state_s": float(dur[steady].sum()),
            "pde.steady_state_calls": float(steady.sum()),
            "pde.steady_state_distinct_ratio": ratio(len(d_seen), float(steady.sum())),
            "ode.integrate_s": float(dur[integ].sum()),
            "ode.self_s": float(self_time[integ].sum()),
            "ode.accepted_steps": steps,
            "ode.rhs_per_step": ratio(float(under(
                ("kinetics.rhs", "kinetics.harvest_rhs"), ("ode.integrate",)).sum()), steps),
            "ode.separatrix_s": float(dur[mask("ode.trace_separatrix")].sum()),
            "kinetics.rhs_calls": float(rhs.sum()),
            "kinetics.rhs_s": float(dur[rhs].sum()),
            "equilibria.calls": float(eq.sum()),
            "equilibria.time_s": float(dur[eq].sum()),
            "equilibria.nullcline_evals": float(mask("equilibria.nullcline_value").sum()),
            "config.load_s": float(dur[mask("config.load_config", "config.apply_overrides")].sum()),
            "cli.self_s": float(self_time[mask("cli.main")].sum()),
        }
