"""The four workloads: seeded inputs, one round of lvfte calls, and checks.

Building a workload object is the benchmark's set-up: it imports lvfte
(and with it numpy and scipy) and builds grids, parameters and draws from
the seed.  ``round()`` makes one pass over the same operations and returns
one ``(key, verdict, wall_s)`` per verdict, where ``key`` names the
operation (a cell, a start, a recipe) and is shared by its repeats; every
call into lvfte goes through a module attribute, so a traced round sees
the tracer's wrappers.
``check(rounds)`` compares every verdict of every round with the
independent computations in ``reference`` and returns
``(attempted, failed, messages)``.
"""

from __future__ import annotations

import configparser
import shutil
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import reference as ref

Verdict = Tuple[object, object, float]

# ---------------------------------------------------------------------------
# Outcome maps (criterion 6's plane)
# ---------------------------------------------------------------------------

AXIS = np.geomspace(1e-4, 1e-1, 16)  # criterion 6's log-spaced d1 and d2 axis
SMOOTH_INDICES = (8, 13, 14)  # sub-lattice of AXIS for map-smooth
MAP_T_END = 60000.0


class MapWorkload:
    """``scan_diffusion`` on the logistic-resource model over a symmetric
    sub-lattice of the diffusivity plane, serially (``workers=1``).

    The seed permutes the axis order (the same permutation on both axes);
    the set of cells, and so the work in a round, does not depend on it.
    """

    min_rounds = 2

    def __init__(self, seed: int, p: float, indices) -> None:
        import lvfte

        grid = lvfte.Grid1D(0.0, 1.0, 64)
        x = grid.centers()
        self.grid = grid
        self.template = lvfte.PdeParams(
            d1=1.0, d2=1.0, b=0.999, c=0.999, p=p, m=lvfte.ResourceField(grid, x * (1.0 - x))
        )
        self.options = lvfte.PdeOptions(dt=0.5, check_interval=100.0, max_steps=200_000)
        values = [float(AXIS[i]) for i in indices]
        order = np.random.default_rng(seed).permutation(len(values))
        self.axis = tuple(values[i] for i in order)
        self.check_map = ref.check_map_smooth if p == 1.0 else ref.check_map_fte

    def _scan(self, axis) -> Tuple[object, List[float]]:
        import lvfte.scan as scan

        stamps: List[float] = []
        inner = scan.simulate_pde

        def stamped(*args, **kwargs):
            result = inner(*args, **kwargs)
            stamps.append(time.perf_counter())
            return result

        scan.simulate_pde = stamped
        try:
            stamps.append(time.perf_counter())
            grid = scan.scan_diffusion(
                self.template, axis, axis, MAP_T_END,
                grid=self.grid, options=self.options, workers=1,
            )
        finally:
            scan.simulate_pde = inner
        return grid, list(np.diff(stamps))

    def warm(self) -> None:
        self._scan(self.axis[:1])

    def round(self) -> List[Verdict]:
        grid, walls = self._scan(self.axis)
        out = []
        for i, d1 in enumerate(grid.d1_values):
            for j, d2 in enumerate(grid.d2_values):
                cell = {
                    "label": grid.labels[i][j],
                    "fte_u": grid.fte_u[i][j],
                    "fte_v": grid.fte_v[i][j],
                    "note": grid.notes[i][j],
                }
                out.append(((d1, d2), cell, walls[len(out)]))
        return out

    def check(self, rounds) -> Tuple[int, int, List[str]]:
        attempted = failed = 0
        messages: List[str] = []
        for verdicts in rounds:
            fails = self.check_map({key: cell for key, cell, _ in verdicts})
            attempted += len(verdicts)
            failed += min(len(fails), len(verdicts))
            messages += fails
        return attempted, failed, messages


# ---------------------------------------------------------------------------
# ODE census
# ---------------------------------------------------------------------------

CERTIFIED = dict(a1=1.8, a2=3.0, b1=1.0, b2=1.0, c1=0.5, c2=1.8, p=0.4, q=1.0)
MIXED = dict(a1=1.8, a2=3.0, b1=1.0, b2=1.0, c1=0.5, c2=1.8, p=1.0, q=0.3)
HARVEST = dict(a1=1.8, a2=3.0, b1=1.0, b2=1.0, c1=0.5, c2=1.7, p=1.0, q=0.1)
HARVEST_SPLIT = dict(d=0.45, e=0.55, a=1.0)
# Basin boundaries crossed by the boundary starts, located by bisection on
# DOP853 runs: harvest on the line u0 = 1.5, mixed exponents on the
# vertical line through the interior saddle.
HARVEST_LINE = (1.5, 0.860378994)
MIXED_LINE = (1.13231211, 1.335375794)
CERTIFIED_DRAWS = 100
BOUNDARY_DRAWS = 10  # per side of each boundary
BOUNDARY_GAP = (0.15, 0.6)  # relative distance of a start from the boundary


class CensusWorkload:
    """``integrate`` from seeded starts: criterion 3's certified FTE draws,
    plus starts on both sides of the harvest-bistability and mixed-exponent
    basin boundaries."""

    min_rounds = 2

    def __init__(self, seed: int) -> None:
        import lvfte

        rng = np.random.default_rng(seed)
        certified = lvfte.KineticParams(**CERTIFIED)
        mixed = lvfte.KineticParams(**MIXED)
        harvest = lvfte.HarvestParams(lvfte.KineticParams(**HARVEST), **HARVEST_SPLIT)
        starts = []
        for _ in range(CERTIFIED_DRAWS):
            u0 = float(rng.uniform(0.01, 1.8))
            v0 = ref.fte_threshold(CERTIFIED, u0) * float(rng.uniform(1.02, 1.5))
            starts.append(("certified", certified, u0, v0, 200.0))
        for family, params, (u0, v_b) in (
            ("harvest", harvest, HARVEST_LINE),
            ("mixed", mixed, MIXED_LINE),
        ):
            for side in (-1.0, 1.0):
                for _ in range(BOUNDARY_DRAWS):
                    v0 = v_b * (1.0 + side * float(rng.uniform(*BOUNDARY_GAP)))
                    starts.append((family, params, u0, v0, 400.0))
        order = rng.permutation(len(starts))
        self.starts = [starts[i] for i in order]
        self.State2 = lvfte.State2

    def _integrate(self, start) -> Tuple[Dict[str, object], float]:
        import lvfte.ode as ode

        _, params, u0, v0, t_end = start
        t0 = time.perf_counter()
        traj = ode.integrate(params, self.State2(u0, v0), t_end)
        wall = time.perf_counter() - t0
        term = traj.terminal
        verdict = {
            "events": [(ev.species.value, ev.t_star) for ev in traj.events],
            "terminal": None if term is None else (term.name, term.point.u, term.point.v),
        }
        return verdict, wall

    def warm(self) -> None:
        self._integrate(self.starts[0])

    def round(self) -> List[Verdict]:
        out = []
        for idx, start in enumerate(self.starts):
            verdict, wall = self._integrate(start)
            out.append((idx, verdict, wall))
        return out

    def check(self, rounds) -> Tuple[int, int, List[str]]:
        fields = {
            "certified": (ref.competition_field(CERTIFIED), "u", CERTIFIED),
            "mixed": (ref.competition_field(MIXED), "v", MIXED),
            "harvest": (ref.harvest_field(HARVEST, **HARVEST_SPLIT), "v", HARVEST),
        }
        refs = {}
        for idx, (family, _, u0, v0, t_end) in enumerate(self.starts):
            field, clampable, _ = fields[family]
            refs[idx] = ref.reference_trajectory(field, (u0, v0), t_end, clampable)
        attempted = failed = 0
        messages: List[str] = []
        for verdicts in rounds:
            for idx, verdict, _ in verdicts:
                family = self.starts[idx][0]
                field, _, k = fields[family]
                fails = ref.check_trajectory(verdict, refs[idx], field, k)
                if family == "certified" and [e[0] for e in verdict["events"]] != ["u"]:
                    fails.append("certified draw without exactly one u event")
                attempted += 1
                if fails:
                    failed += 1
                    messages.append(f"{family} start {self.starts[idx][2:4]}: " + "; ".join(fails))
        return attempted, failed, messages


# ---------------------------------------------------------------------------
# CLI recipes
# ---------------------------------------------------------------------------

# (command, config, overrides, expected PDE outcome).  The expectations are
# the outcomes the configs' own comments state.
RECIPES = (
    ("equilibria", "equilibria_mixed_exponents", (), None),
    ("simulate", "harvest_bistability", (), None),
    ("simulate", "ode_extinction_event", (), None),
    ("separatrix", "separatrix_threshold", (), None),
    ("scan", "scan_exponent_window", (), None),
    ("pde", "pde_extinction_vs_recovery", (),
     {"label": "VWins", "fte_u": True, "fte_v": False}),
    ("pde", "pde_extinction_vs_recovery", ("kinetics.p=1", "conditions.check=false"),
     {"label": "UWins", "fte_u": False, "fte_v": False}),
    ("pde", "pde_slower_diffuser", (),
     {"label": "UWins", "fte_u": False, "fte_v": False}),
    ("pde", "pde_slower_diffuser", ("resource.p=0.7",),
     {"label": "VWins", "fte_u": True, "fte_v": False}),
)
# The p = 1 slower-diffuser run takes about 9 s and runs once per round.
# Every other recipe takes under 0.5 s and runs SHORT_REPEATS times, so
# that the median verdict rests on many invocations, not on two.
LONG_RECIPE = ("pde", "pde_slower_diffuser", ())
SHORT_REPEATS = 8


def _read_config(path: Path, overrides) -> Dict[str, Dict[str, str]]:
    parser = configparser.ConfigParser()
    parser.read(path)
    sections = {name: dict(parser[name]) for name in parser.sections()}
    for item in overrides:
        key, value = item.split("=", 1)
        section, option = key.split(".", 1)
        sections.setdefault(section, {})[option] = value
    return sections


def _floats(section: Dict[str, str]) -> Dict[str, float]:
    out = {}
    for key, value in section.items():
        try:
            out[key] = float(value)
        except ValueError:
            pass
    return out


class RecipeWorkload:
    """``lvfte.cli.main`` over the shipped configs (except the full outcome
    map) and the overrides their comments document, each into its own
    output directory.  A round invokes the long recipe once and every
    other recipe ``SHORT_REPEATS`` times; the seed sets the order of the
    invocations."""

    min_rounds = 2  # the long recipe's summary.json is compared between rounds

    def __init__(self, seed: int, root: Path, out_root: Path) -> None:
        import lvfte.cli  # noqa: F401  (set-up cost: the CLI and its layers)

        self.configs = root / "configs"
        for _, name, _, _ in RECIPES:
            if not (self.configs / f"{name}.ini").is_file():
                raise FileNotFoundError(self.configs / f"{name}.ini")
        calls = [i for i, recipe in enumerate(RECIPES)
                 for _ in range(1 if recipe[:3] == LONG_RECIPE else SHORT_REPEATS)]
        order = np.random.default_rng(seed).permutation(len(calls))
        self.calls = [calls[i] for i in order]  # indices into RECIPES
        self.out_root = out_root
        self.rounds_run = 0
        self.references: Dict[tuple, object] = {}  # simulate recipe -> DOP853 run

    def _argv(self, recipe, out: Path) -> List[str]:
        command, name, overrides, _ = recipe
        argv = [command, "--config", str(self.configs / f"{name}.ini"), "--out", str(out)]
        for item in overrides:
            argv += ["--set", item]
        return argv

    def warm(self) -> None:
        import lvfte.cli as cli

        cli.main(self._argv(RECIPES[0], self.out_root / "warm"))

    def round(self) -> List[Verdict]:
        import lvfte.cli as cli

        self.rounds_run += 1
        out = []
        for pos, idx in enumerate(self.calls):
            target = self.out_root / f"r{self.rounds_run}" / f"{pos}-{RECIPES[idx][1]}"
            argv = self._argv(RECIPES[idx], target)
            t0 = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - t0
            out.append((idx, (code, target), wall))
        return out

    def _check_one(self, recipe, out: Path) -> List[str]:
        command, name, overrides, expect = recipe
        cfg = _read_config(self.configs / f"{name}.ini", overrides)
        _, summary = ref.load_summary(out)
        res = summary["results"]
        if command == "equilibria":
            return ref.check_equilibria(res["equilibria"], _floats(cfg["kinetics"]))
        if command == "simulate":
            k = _floats(cfg["kinetics"])
            init = _floats(cfg["initial"])
            if cfg["model"]["kind"] == "ode-harvest":
                split = _floats(cfg["harvest"])
                field = ref.harvest_field(k, split["d"], split["e"], split.get("a", 1.0))
                clampable = "v" if split["e"] > 0.0 and k.get("q", 1.0) < 1.0 else ""
            else:
                field = ref.competition_field(k)
                clampable = ("u" if k.get("p", 1.0) < 1.0 else "") + (
                    "v" if k.get("q", 1.0) < 1.0 else "")
            if recipe[:3] not in self.references:
                self.references[recipe[:3]] = ref.reference_trajectory(
                    field, (init["u"], init["v"]), float(cfg["solver"]["t_end"]), clampable)
            trajectory = self.references[recipe[:3]]
            term = res["terminal"]
            verdict = {
                "events": [(e["species"], e["t_star"]) for e in res["events"]],
                "terminal": None if term is None else (term["name"], term["u"], term["v"]),
            }
            return ref.check_trajectory(verdict, trajectory, field, k)
        if command == "separatrix":
            poly = [(float(r["u"]), float(r["v"])) for r in ref.read_csv(out / "separatrix.csv")]
            thr = [(float(r["u0"]), float(r["v_threshold"]))
                   for r in ref.read_csv(out / "threshold.csv")]
            saddle = (res["saddle"]["u"], res["saddle"]["v"])
            return ref.check_separatrix(poly, saddle, thr, _floats(cfg["kinetics"]))
        if command == "scan":
            scan = _floats(cfg["scan"])
            return ref.check_window(ref.read_csv(out / "window.csv"), res,
                                    _floats(cfg["kinetics"]),
                                    scan["p_exponent"], scan["q_exponent"])
        fails = ref.check_pde(out, res, expect)
        if res.get("conditions") is not None:
            initial = ref.read_csv(out / res["snapshots"][0]["file"])
            fails += ref.check_recovery(initial, res["conditions"], _floats(cfg["kinetics"]))
        return fails

    def check(self, rounds) -> Tuple[int, int, List[str]]:
        attempted = failed = 0
        messages: List[str] = []
        first: Dict[int, bytes] = {}
        for verdicts in rounds:
            for idx, (code, out), _ in verdicts:
                recipe = RECIPES[idx]
                attempted += 1
                if code != 0:
                    fails = [f"exit code {code}"]
                else:
                    try:
                        fails = self._check_one(recipe, out)
                    except Exception as exc:  # a malformed artifact fails this verdict only
                        fails = [f"unreadable output: {type(exc).__name__}: {exc}"]
                    raw = (out / "summary.json").read_bytes() if not fails else b""
                    if raw and first.setdefault(idx, raw) != raw:
                        fails.append("summary.json differs between invocations")
                if fails:
                    failed += 1
                    messages.append(f"{recipe[0]} {recipe[1]} {' '.join(recipe[2])}: "
                                    + "; ".join(fails))
        shutil.rmtree(self.out_root, ignore_errors=True)
        return attempted, failed, messages


WORKLOADS = ("map-smooth", "map-fte", "ode-census", "recipes")


def build(name: str, seed: int, root: Path, out_root: Path):
    if name == "map-smooth":
        return MapWorkload(seed, 1.0, SMOOTH_INDICES)
    if name == "map-fte":
        return MapWorkload(seed, 0.7, range(len(AXIS)))
    if name == "ode-census":
        return CensusWorkload(seed)
    if name == "recipes":
        return RecipeWorkload(seed, root, out_root)
    raise ValueError(f"unknown workload {name!r}")
