"""Command-line front end.

Subcommands: equilibria, simulate, separatrix, pde, scan.  Every command
reads an INI config (--config), applies --set overrides, rejects a model
kind or key it never reads (``_READS``) and returns its results and CSV
tables.  main alone then creates --out and writes the tables plus a
deterministic summary.json, so a run that exits 2 or 3 before that creates
nothing.  Exit codes: 0 on success, 2 on configuration, parameter or
output-path errors, 3 on numerical failures.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import __version__
from .config import (
    SCHEMA,
    ExperimentConfig,
    apply_overrides,
    config_digest,
    load_config,
)
from .equilibria import Stability, all_equilibria, interior_equilibria
from .exceptions import ConfigError, InvalidParameter, NumericalError, NotASaddle
from .kinetics import classify_regime
from .ode import IntegrateOptions, fte_threshold, integrate, trace_separatrix
from .pde import (
    COEXIST,
    U_WINS,
    UNDECIDED,
    V_WINS,
    PdeOptions,
    check_recovery_conditions,
    simulate_pde,
)
from .scan import log_axis, scan_c1_window, scan_diffusion

__all__ = ["main"]

# file name -> (header, rows), written in order; a command returns its results and tables
_Tables = Dict[str, Tuple[Sequence[str], Iterable[Sequence[object]]]]
_Outputs = Tuple[Dict[str, object], _Tables]


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_outputs(out_dir: Path, tables: _Tables, summary: Dict[str, object]) -> None:
    """The only output writer: a path that cannot be written is a usage error.

    A failed write removes the files this call opened, and ``out_dir`` if
    this call created it, so it leaves no partial output.
    """
    created = not out_dir.exists()
    written: List[Path] = []
    path = out_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in tables.items():
            path = out_dir / name
            with path.open("w", newline="") as fh:
                written.append(path)
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(map(_fmt, row) for row in rows)
        path = out_dir / "summary.json"
        with path.open("w", newline="") as fh:
            written.append(path)
            fh.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        with contextlib.suppress(OSError):
            for done in written:
                done.unlink()
            if created:
                out_dir.rmdir()
        raise ConfigError(f"cannot write output {path}: {exc.strerror}") from None


# The keys each command reads, per model kind it takes.  main rejects any
# other kind, and any key outside the row, before the command runs.  A read
# that depends on a flag still counts (scan.resolution and scan.samples under
# --resolution).  separatrix.threshold_samples is read and checked at every
# exponent, though threshold.csv is written only at 0 < p < 1 = q.
_ALWAYS = {"run": ("name", "seed"), "model": ("kind",)}
_KINETICS = {"kinetics": tuple(SCHEMA["kinetics"])}
_RESOURCE = {"resource": tuple(SCHEMA["resource"])}
_TRAJECTORY = {**_KINETICS, "initial": ("u", "v"),
               "solver": ("t_end", "rtol", "atol", "max_steps")}
_PDE_RUN = {"domain": tuple(SCHEMA["domain"]), "initial": ("u", "v"),
            "solver": ("t_end", "dt", "snapshots", "check_interval", "max_steps")}
# a diffusion sweep builds its own initial data, and sets n_x, d1 and d2 itself
_SWEEP = {"domain": ("x0", "x1"),
          "scan": ("d1_min", "d1_max", "d2_min", "d2_max", "resolution", "t_end", "dt", "n_x",
                   "check_interval", "max_steps", "ic_offset")}
_READS = {
    "equilibria": {"ode": _KINETICS},
    "simulate": {"ode": _TRAJECTORY, "ode-harvest": {**_TRAJECTORY, "harvest": ("d", "e", "a")}},
    "separatrix": {"ode": {**_KINETICS, "solver": ("rtol", "atol"),
                           "separatrix": ("delta", "threshold_samples", "max_backward_time")}},
    "pde": {"pde-const": {**_KINETICS, **_PDE_RUN, "conditions": ("check",)},
            "pde-inhomogeneous": {**_RESOURCE, **_PDE_RUN}},
    # the c1 window sets c1, p and q of the template itself
    "scan": {"ode": {"kinetics": ("a1", "a2", "b1", "b2", "c1", "c2"),
                     "scan": ("c1_min", "c1_max", "samples", "p_exponent", "q_exponent")},
             "pde-const": {**_KINETICS, **_SWEEP}, "pde-inhomogeneous": {**_RESOURCE, **_SWEEP}},
}


def _check_reads(cfg: ExperimentConfig, command: str) -> None:
    """Raise ConfigError for a model kind or a key that ``command`` never reads."""
    rows = _READS[command]
    if cfg.kind not in rows:
        raise ConfigError(f"{command} requires model kind {' or '.join(map(repr, rows))}")
    reads = {**_ALWAYS, **rows[cfg.kind]}
    for section, values in cfg.sections.items():
        for key in values:
            if key not in reads.get(section, ()):
                raise ConfigError(
                    f"{section}.{key} does not apply to {command}, which never reads it"
                )


def _solver_options(cfg: ExperimentConfig) -> Dict[str, object]:
    """The ``solver`` keys but t_end: by _READS, options of the command's solver."""
    return {key: val for key, val in cfg.sections.get("solver", {}).items() if key != "t_end"}


def cmd_equilibria(cfg: ExperimentConfig, args) -> _Outputs:
    params = cfg.build_kinetics()
    eqs = all_equilibria(params)
    header = ("u", "v", "kind", "stability", "trace", "det")
    listing = []
    for eq in eqs:
        if eq.jacobian is not None:
            tr = float(eq.jacobian[0, 0] + eq.jacobian[1, 1])
            det = float(
                eq.jacobian[0, 0] * eq.jacobian[1, 1]
                - eq.jacobian[0, 1] * eq.jacobian[1, 0]
            )
        else:
            tr = det = None
        values = (eq.point.u, eq.point.v, eq.kind.value, eq.stability.value, tr, det)
        listing.append(dict(zip(header, values)))
    interior = sum(1 for eq in eqs if eq.kind.value == "Interior")
    return {
        "regime": classify_regime(params).tag,
        "count": len(eqs),
        "interior_count": interior,
        "equilibria": listing,
    }, {"equilibria.csv": (header, [[row[key] for key in header] for row in listing])}


def cmd_simulate(cfg: ExperimentConfig, args) -> _Outputs:
    params = cfg.build_kinetics() if cfg.kind == "ode" else cfg.build_harvest()
    ic = cfg.build_initial_point()
    t_end = float(cfg.require("solver", "t_end"))
    traj = integrate(params, ic, t_end, IntegrateOptions(**_solver_options(cfg)))
    terminal: Optional[Dict[str, object]] = None
    if traj.terminal is not None:
        terminal = {
            "name": traj.terminal.name,
            "u": traj.terminal.point.u,
            "v": traj.terminal.point.v,
        }
    final_t, final_s = traj.samples[-1]
    return {
        "events": [
            {"species": ev.species.value, "t_star": ev.t_star} for ev in traj.events
        ],
        "terminal": terminal,
        "final": {"t": final_t, "u": final_s.u, "v": final_s.v},
        "samples": len(traj.samples),
    }, {"trajectory.csv": (("t", "u", "v"), ((t, s.u, s.v) for t, s in traj.samples))}


def cmd_separatrix(cfg: ExperimentConfig, args) -> _Outputs:
    params = cfg.build_kinetics()
    saddles = [
        eq for eq in interior_equilibria(params) if eq.stability is Stability.SADDLE
    ]
    if not saddles:
        raise NotASaddle("no interior saddle for these parameters")
    saddle = saddles[0]
    delta = float(cfg.get("separatrix", "delta", 1e-6))
    max_back = float(cfg.get("separatrix", "max_backward_time", 200.0))
    n = int(cfg.get("separatrix", "threshold_samples", 200))
    if n < 2:
        raise ConfigError("separatrix.threshold_samples must be at least 2")
    sep = trace_separatrix(
        params, saddle, delta=delta, max_backward_time=max_back, **_solver_options(cfg)
    )
    rows = []
    arc = 0.0
    prev = None
    for pt in sep.polyline:
        if prev is not None:
            arc += ((pt.u - prev.u) ** 2 + (pt.v - prev.v) ** 2) ** 0.5
        rows.append((arc, pt.u, pt.v))
        prev = pt
    tables = {"separatrix.csv": (("arclength", "u", "v"), rows)}
    if 0.0 < params.p < 1.0 and params.q == 1.0:
        u_cap = params.a1 / params.b1
        us = [u_cap * (i + 1) / n for i in range(n)]
        tables["threshold.csv"] = (
            ("u0", "v_threshold"),
            [(u0, fte_threshold(params, u0)) for u0 in us],
        )
    saddle_at = {"u": saddle.point.u, "v": saddle.point.v}
    return {"saddle": saddle_at, "points": len(sep.polyline)}, tables


def cmd_pde(cfg: ExperimentConfig, args) -> _Outputs:
    grid = cfg.build_grid()
    params = cfg.build_pde_params(grid)
    init = cfg.build_initial_state(grid)
    t_end = float(cfg.require("solver", "t_end"))
    opts = _solver_options(cfg)
    opts["snapshot_times"] = opts.pop("snapshots", ())
    snapshots, outcome = simulate_pde(params, init, t_end, PdeOptions(**opts))

    xs = grid.centers()
    tables = {
        f"snapshot_{idx:03d}.csv": (("x", "u", "v"), zip(xs, state.u, state.v))
        for idx, (_, state) in enumerate(snapshots)
    }
    result: Dict[str, object] = {
        "outcome": dataclasses.asdict(outcome),
        "snapshots": [{"file": name, "t": t} for name, (t, _) in zip(tables, snapshots)],
    }

    if bool(cfg.get("conditions", "check", False)):
        report = check_recovery_conditions(params.kinetics, init.u, init.v)
        tables["conditions.csv"] = (
            ("x", "u0", "v0", "lower", "upper", "cond1", "cond12"),
            zip(
                xs,
                init.u,
                init.v,
                report.lower,
                report.upper,
                (bool(b) for b in report.cond1),
                (bool(b) for b in report.cond12),
            ),
        )
        result["conditions"] = {
            "u_star": report.u_star,
            "v_star": report.v_star,
            "cond1_all": bool(report.cond1.all()),
            "cond12_all": bool(report.cond12.all()),
            "cond123": report.cond123,
            "all_hold": report.all_hold,
        }
    return result, tables


def cmd_scan(cfg: ExperimentConfig, args) -> _Outputs:
    if cfg.kind == "ode":
        return _scan_window(cfg, args)
    return _scan_diffusion(cfg, args)


def _scan_diffusion(cfg: ExperimentConfig, args) -> _Outputs:
    n_x = int(cfg.get("scan", "n_x", 64))
    grid = cfg.build_grid(n_x_override=n_x)
    template = cfg.build_pde_params(grid, d1=1.0, d2=1.0)
    resolution = args.resolution
    if resolution is None:
        resolution = int(cfg.get("scan", "resolution", 16))
    d1_values = log_axis(
        float(cfg.require("scan", "d1_min")),
        float(cfg.require("scan", "d1_max")),
        resolution,
    )
    d2_values = log_axis(
        float(cfg.require("scan", "d2_min")),
        float(cfg.require("scan", "d2_max")),
        resolution,
    )
    t_end = float(cfg.require("scan", "t_end"))
    opts = PdeOptions(
        dt=cfg.get("scan", "dt"),
        check_interval=float(cfg.get("scan", "check_interval", 50.0)),
        max_steps=int(cfg.get("scan", "max_steps", 400_000)),
    )
    result = scan_diffusion(
        template,
        d1_values,
        d2_values,
        t_end,
        grid=grid,
        options=opts,
        ic_offset=float(cfg.get("scan", "ic_offset", 0.01)),
        workers=args.workers,
    )
    rows = (
        (
            d1,
            d2,
            result.labels[i][j],
            result.t_reached[i][j],
            result.fte_u[i][j],
            result.fte_v[i][j],
            result.notes[i][j],
        )
        for i, d1 in enumerate(result.d1_values)
        for j, d2 in enumerate(result.d2_values)
    )
    counts = {label: result.count(label) for label in (U_WINS, V_WINS, COEXIST, UNDECIDED)}
    return {
        "mode": "diffusion",
        "resolution": resolution,
        "counts": counts,
        "ic_policy": result.ic_policy,
    }, {"grid.csv": (("d1", "d2", "label", "t_reached", "fte_u", "fte_v", "note"), rows)}


def _scan_window(cfg: ExperimentConfig, args) -> _Outputs:
    if args.workers is not None:
        raise ConfigError("--workers applies to a diffusion scan only")
    template = cfg.build_kinetics()
    ws = scan_c1_window(
        template,
        float(cfg.require("scan", "c1_min")),
        float(cfg.require("scan", "c1_max")),
        int(cfg.get("scan", "samples", 64)) if args.resolution is None else args.resolution,
        float(cfg.require("scan", "p_exponent")),
        float(cfg.require("scan", "q_exponent")),
    )
    header = ("c1", "count_p_variant", "count_q_variant", "in_regime")
    rows = zip(ws.c1_values, ws.counts_p, ws.counts_q, ws.in_regime)
    return {
        "mode": "c1-window",
        "samples": len(ws.c1_values),
        "windows_p": [list(w) for w in ws.windows_p],
        "windows_q": [list(w) for w in ws.windows_q],
    }, {"window.csv": (header, rows)}


_COMMANDS = {
    "equilibria": cmd_equilibria,
    "simulate": cmd_simulate,
    "separatrix": cmd_separatrix,
    "pde": cmd_pde,
    "scan": cmd_scan,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lvfte",
        description="Competition dynamics toolkit: equilibria, trajectories, "
        "separatrices, reaction-diffusion runs and parameter scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "equilibria": "locate and classify equilibria of the ODE model",
        "simulate": "integrate one ODE trajectory and record events",
        "separatrix": "trace the stable manifold of the interior saddle",
        "pde": "run the reaction-diffusion model to a verdict",
        "scan": "sweep diffusivities or the c1 coefficient",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="INI config path")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override a config value (repeatable)",
        )
        if name == "scan":
            sp.add_argument(
                "--workers",
                type=int,
                default=None,
                help="worker processes (default: all cores)",
            )
            sp.add_argument(
                "--resolution",
                type=int,
                default=None,
                help="override the scan resolution / sample count",
            )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.set:
            cfg = apply_overrides(cfg, args.set)
        _check_reads(cfg, args.command)
        results, tables = _COMMANDS[args.command](cfg, args)
        results["files"] = list(tables)
        summary = {
            "command": args.command,
            "version": __version__,
            "config_digest": config_digest(cfg),
            "seed": int(cfg.get("run", "seed", 0)),
            "name": str(cfg.get("run", "name", "")),
            "results": results,
        }
        _write_outputs(Path(args.out), tables, summary)
        return 0
    except (ConfigError, InvalidParameter) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
