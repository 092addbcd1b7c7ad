"""Command-line front end.

Subcommands: equilibria, simulate, separatrix, pde, scan.  Every command
reads an INI config (--config), applies --set overrides, writes CSV
artifacts plus a deterministic summary.json into --out, and exits with
0 on success, 2 on configuration or parameter errors, 3 on numerical
failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

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
from .pde import PdeOptions, check_recovery_conditions, simulate_pde
from .scan import log_axis, scan_c1_window, scan_diffusion

__all__ = ["main"]


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    import csv

    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _integrate_options(cfg: ExperimentConfig) -> IntegrateOptions:
    opts = IntegrateOptions()
    rtol = cfg.get("solver", "rtol")
    atol = cfg.get("solver", "atol")
    max_steps = cfg.get("solver", "max_steps")
    if rtol is not None:
        opts.rtol = float(rtol)
    if atol is not None:
        opts.atol = float(atol)
    if max_steps is not None:
        opts.max_steps = int(max_steps)
    return opts


# The ``solver`` keys each command reads; main rejects any other.  Every
# command accepts solver.t_end, which a shared config may carry.
_SOLVER_KEYS = {
    "equilibria": ("t_end",),
    "simulate": ("t_end", "rtol", "atol", "max_steps"),
    "separatrix": ("t_end", "rtol", "atol"),
    "pde": ("t_end", "dt", "snapshots", "check_interval", "max_steps"),
    "scan": ("t_end",),
}


def _check_solver_keys(cfg: ExperimentConfig, command: str) -> None:
    """Raise ConfigError for a ``solver`` key that ``command`` never reads."""
    for key in SCHEMA["solver"]:
        if key not in _SOLVER_KEYS[command] and cfg.get("solver", key) is not None:
            raise ConfigError(f"solver.{key} does not apply to {command}, which never reads it")


def cmd_equilibria(cfg: ExperimentConfig, args, out_dir: Path) -> Dict[str, object]:
    if cfg.kind != "ode":
        raise ConfigError("equilibria requires model kind 'ode'")
    params = cfg.build_kinetics()
    eqs = all_equilibria(params)
    rows = []
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
        rows.append(
            (
                eq.point.u,
                eq.point.v,
                eq.kind.value,
                eq.stability.value,
                "" if tr is None else tr,
                "" if det is None else det,
            )
        )
        listing.append(
            {
                "u": eq.point.u,
                "v": eq.point.v,
                "kind": eq.kind.value,
                "stability": eq.stability.value,
                "trace": tr,
                "det": det,
            }
        )
    _write_csv(
        out_dir / "equilibria.csv",
        ("u", "v", "kind", "stability", "trace", "det"),
        rows,
    )
    interior = sum(1 for eq in eqs if eq.kind.value == "Interior")
    return {
        "regime": classify_regime(params).tag,
        "count": len(eqs),
        "interior_count": interior,
        "equilibria": listing,
        "files": ["equilibria.csv"],
    }


def cmd_simulate(cfg: ExperimentConfig, args, out_dir: Path) -> Dict[str, object]:
    kind = cfg.kind
    if kind == "ode":
        params = cfg.build_kinetics()
    elif kind == "ode-harvest":
        params = cfg.build_harvest()
    else:
        raise ConfigError("simulate requires model kind 'ode' or 'ode-harvest'")
    ic = cfg.build_initial_point()
    t_end = float(cfg.require("solver", "t_end"))
    traj = integrate(params, ic, t_end, _integrate_options(cfg))
    _write_csv(
        out_dir / "trajectory.csv",
        ("t", "u", "v"),
        ((t, s.u, s.v) for t, s in traj.samples),
    )
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
        "files": ["trajectory.csv"],
    }


def cmd_separatrix(cfg: ExperimentConfig, args, out_dir: Path) -> Dict[str, object]:
    if cfg.kind != "ode":
        raise ConfigError("separatrix requires model kind 'ode'")
    params = cfg.build_kinetics()
    saddles = [
        eq for eq in interior_equilibria(params) if eq.stability is Stability.SADDLE
    ]
    if not saddles:
        raise NotASaddle("no interior saddle for these parameters")
    saddle = saddles[0]
    delta = float(cfg.get("separatrix", "delta", 1e-6))
    max_back = float(cfg.get("separatrix", "max_backward_time", 200.0))
    tols = _integrate_options(cfg)
    sep = trace_separatrix(
        params, saddle, delta=delta, max_backward_time=max_back,
        rtol=tols.rtol, atol=tols.atol,
    )
    rows = []
    arc = 0.0
    prev = None
    for pt in sep.polyline:
        if prev is not None:
            arc += ((pt.u - prev.u) ** 2 + (pt.v - prev.v) ** 2) ** 0.5
        rows.append((arc, pt.u, pt.v))
        prev = pt
    _write_csv(out_dir / "separatrix.csv", ("arclength", "u", "v"), rows)
    files = ["separatrix.csv"]
    result: Dict[str, object] = {
        "saddle": {"u": saddle.point.u, "v": saddle.point.v},
        "points": len(sep.polyline),
        "files": files,
    }
    if 0.0 < params.p < 1.0 and params.q == 1.0:
        n = int(cfg.get("separatrix", "threshold_samples", 200))
        if n < 2:
            raise ConfigError("separatrix.threshold_samples must be at least 2")
        u_cap = params.a1 / params.b1
        us = [u_cap * (i + 1) / n for i in range(n)]
        _write_csv(
            out_dir / "threshold.csv",
            ("u0", "v_threshold"),
            ((u0, fte_threshold(params, u0)) for u0 in us),
        )
        files.append("threshold.csv")
    return result


def _pde_options(cfg: ExperimentConfig) -> PdeOptions:
    opts = PdeOptions()
    dt = cfg.get("solver", "dt")
    if dt is not None:
        opts.dt = float(dt)
    opts.snapshot_times = tuple(cfg.get("solver", "snapshots", ()))
    check = cfg.get("solver", "check_interval")
    if check is not None:
        opts.check_interval = float(check)
    max_steps = cfg.get("solver", "max_steps")
    if max_steps is not None:
        opts.max_steps = int(max_steps)
    return opts


def cmd_pde(cfg: ExperimentConfig, args, out_dir: Path) -> Dict[str, object]:
    kind = cfg.kind
    if kind not in ("pde-const", "pde-inhomogeneous"):
        raise ConfigError("pde requires a PDE model kind")
    grid = cfg.build_grid()
    params = cfg.build_pde_params(grid)
    init = cfg.build_initial_state(grid)
    t_end = float(cfg.require("solver", "t_end"))
    snapshots, outcome = simulate_pde(params, init, t_end, _pde_options(cfg))

    xs = grid.centers()
    manifest = []
    files = []
    for idx, (t, state) in enumerate(snapshots):
        name = f"snapshot_{idx:03d}.csv"
        _write_csv(
            out_dir / name,
            ("x", "u", "v"),
            zip(xs, state.u, state.v),
        )
        manifest.append({"file": name, "t": t})
        files.append(name)

    result: Dict[str, object] = {
        "outcome": {
            "label": outcome.label,
            "t_reached": outcome.t_reached,
            "fte_u": outcome.fte_u,
            "fte_v": outcome.fte_v,
            "fte_u_time": outcome.fte_u_time,
            "fte_v_time": outcome.fte_v_time,
            "note": outcome.note,
        },
        "snapshots": manifest,
        "files": files,
    }

    if bool(cfg.get("conditions", "check", False)):
        if kind != "pde-const":
            raise ConfigError("conditions check requires model kind 'pde-const'")
        report = check_recovery_conditions(params.kinetics, init.u, init.v)
        _write_csv(
            out_dir / "conditions.csv",
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
        files.append("conditions.csv")
        result["conditions"] = {
            "u_star": report.u_star,
            "v_star": report.v_star,
            "cond1_all": bool(report.cond1.all()),
            "cond12_all": bool(report.cond12.all()),
            "cond123": report.cond123,
            "all_hold": report.all_hold,
        }
    return result


def cmd_scan(cfg: ExperimentConfig, args, out_dir: Path) -> Dict[str, object]:
    mode = str(cfg.require("scan", "mode"))
    if mode == "diffusion":
        return _scan_diffusion(cfg, args, out_dir)
    return _scan_window(cfg, args, out_dir)


def _scan_diffusion(cfg: ExperimentConfig, args, out_dir: Path) -> Dict[str, object]:
    kind = cfg.kind
    if kind not in ("pde-const", "pde-inhomogeneous"):
        raise ConfigError("diffusion scan requires a PDE model kind")
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
        check_interval=float(cfg.get("scan", "check_interval", 50.0)),
        max_steps=int(cfg.get("scan", "max_steps", 400_000)),
    )
    dt = cfg.get("scan", "dt")
    if dt is not None:
        opts.dt = float(dt)
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
    rows = []
    for i, d1 in enumerate(result.d1_values):
        for j, d2 in enumerate(result.d2_values):
            rows.append(
                (
                    d1,
                    d2,
                    result.labels[i][j],
                    result.t_reached[i][j],
                    result.fte_u[i][j],
                    result.fte_v[i][j],
                    result.notes[i][j],
                )
            )
    _write_csv(
        out_dir / "grid.csv",
        ("d1", "d2", "label", "t_reached", "fte_u", "fte_v", "note"),
        rows,
    )
    counts = {
        label: result.count(label)
        for label in ("UWins", "VWins", "Coexist", "Undecided")
    }
    return {
        "mode": "diffusion",
        "resolution": resolution,
        "counts": counts,
        "ic_policy": result.ic_policy,
        "files": ["grid.csv"],
    }


def _scan_window(cfg: ExperimentConfig, args, out_dir: Path) -> Dict[str, object]:
    if cfg.kind != "ode":
        raise ConfigError("c1-window scan requires model kind 'ode'")
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
    _write_csv(
        out_dir / "window.csv",
        ("c1", "count_p_variant", "count_q_variant", "in_regime"),
        zip(ws.c1_values, ws.counts_p, ws.counts_q, ws.in_regime),
    )
    return {
        "mode": "c1-window",
        "samples": len(ws.c1_values),
        "windows_p": [list(w) for w in ws.windows_p],
        "windows_q": [list(w) for w in ws.windows_q],
        "files": ["window.csv"],
    }


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
        _check_solver_keys(cfg, args.command)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        results = _COMMANDS[args.command](cfg, args, out_dir)
        summary = {
            "command": args.command,
            "version": __version__,
            "config_digest": config_digest(cfg),
            "seed": int(cfg.get("run", "seed", 0)),
            "name": str(cfg.get("run", "name", "")),
            "results": results,
        }
        (out_dir / "summary.json").write_text(
            json.dumps(summary, sort_keys=True, indent=2) + "\n"
        )
        return 0
    except (ConfigError, InvalidParameter) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
