"""INI experiment configs: schema, parsing, emission, overrides.

A config is a set of typed sections.  Parsing casts each value by
``SCHEMA`` and rejects unknown sections or keys with a best-effort line
number.  Which keys a command may carry, and which model kinds it takes,
is the CLI's table ``lvfte.cli._READS``; required keys are checked by the
builder methods.  ``emit_config`` produces a canonical text form such
that ``parse_config(emit_config(cfg)) == cfg``.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from .exceptions import ConfigError, ExpressionError
from .expressions import parse_expression
from .kinetics import HarvestParams, KineticParams, State2
from .pde import Grid1D, PdeParams, PdeState, ResourceField

__all__ = [
    "MODEL_KINDS",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "emit_config",
    "apply_overrides",
    "config_digest",
]

MODEL_KINDS = ("ode", "ode-harvest", "pde-const", "pde-inhomogeneous")


def _ctx(section: str, key: str) -> str:
    return f"{section}.{key}"


def _cast_float(section: str, key: str, raw: str) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"{_ctx(section, key)}: expected a number, got {raw!r}")
    if not math.isfinite(val):
        raise ConfigError(f"{_ctx(section, key)}: value must be finite")
    return val


def _cast_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{_ctx(section, key)}: expected an integer, got {raw!r}")


def _cast_bool(section: str, key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{_ctx(section, key)}: expected a boolean, got {raw!r}")


def _cast_str(section: str, key: str, raw: str) -> str:
    return raw.strip()


def _cast_expr(section: str, key: str, raw: str) -> str:
    text = raw.strip()
    try:
        parse_expression(text)
    except ExpressionError as exc:
        raise ConfigError(f"{_ctx(section, key)}: {exc}")
    return text


def _cast_float_list(section: str, key: str, raw: str) -> Tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    return tuple(_cast_float(section, key, p) for p in parts)


def _cast_choice(*choices: str) -> Callable[[str, str, str], str]:
    def cast(section: str, key: str, raw: str) -> str:
        val = raw.strip()
        if val not in choices:
            raise ConfigError(
                f"{_ctx(section, key)}: expected one of {', '.join(choices)}, got {val!r}"
            )
        return val

    return cast


# Canonical section and key order; parsing rejects anything not listed here.
SCHEMA: Dict[str, Dict[str, Callable[[str, str, str], object]]] = {
    "run": {"name": _cast_str, "seed": _cast_int},
    "model": {"kind": _cast_choice(*MODEL_KINDS)},
    "kinetics": {
        "a1": _cast_float,
        "a2": _cast_float,
        "b1": _cast_float,
        "b2": _cast_float,
        "c1": _cast_float,
        "c2": _cast_float,
        "p": _cast_float,
        "q": _cast_float,
    },
    "harvest": {"d": _cast_float, "e": _cast_float, "a": _cast_float},
    "resource": {
        "b": _cast_float,
        "c": _cast_float,
        "p": _cast_float,
        "m": _cast_expr,
    },
    "domain": {
        "x0": _cast_float,
        "x1": _cast_float,
        "n_x": _cast_int,
        "d1": _cast_float,
        "d2": _cast_float,
    },
    "initial": {"u": _cast_expr, "v": _cast_expr},
    "solver": {
        "t_end": _cast_float,
        "dt": _cast_float,
        "rtol": _cast_float,
        "atol": _cast_float,
        "snapshots": _cast_float_list,
        "check_interval": _cast_float,
        "max_steps": _cast_int,
    },
    "separatrix": {
        "delta": _cast_float,
        "threshold_samples": _cast_int,
        "max_backward_time": _cast_float,
    },
    "conditions": {"check": _cast_bool},
    "scan": {
        "d1_min": _cast_float,
        "d1_max": _cast_float,
        "d2_min": _cast_float,
        "d2_max": _cast_float,
        "resolution": _cast_int,
        "t_end": _cast_float,
        "dt": _cast_float,
        "n_x": _cast_int,
        "check_interval": _cast_float,
        "max_steps": _cast_int,
        "ic_offset": _cast_float,
        "c1_min": _cast_float,
        "c1_max": _cast_float,
        "samples": _cast_int,
        "p_exponent": _cast_float,
        "q_exponent": _cast_float,
    },
}


def _line_of(text: str, section: str, key: Optional[str]) -> Optional[int]:
    """Best-effort 1-based line number of a section header or key line."""
    in_section = key is None
    target_header = f"[{section}]"
    key_re = re.compile(rf"^\s*{re.escape(key)}\s*=", re.IGNORECASE) if key else None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("["):
            if key is None and stripped == target_header:
                return lineno
            in_section = stripped.lower() == target_header.lower()
            continue
        if key is not None and in_section and key_re.match(line):
            return lineno
    return None


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Typed view of a parsed config; values are plain Python primitives."""

    sections: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExperimentConfig):
            return self.sections == other.sections
        return NotImplemented

    def get(self, section: str, key: str, default: object = None) -> object:
        return self.sections.get(section, {}).get(key, default)

    def require(self, section: str, key: str) -> object:
        val = self.get(section, key)
        if val is None:
            raise ConfigError(f"missing required key {section}.{key}")
        return val

    @property
    def kind(self) -> str:
        return str(self.require("model", "kind"))

    # -- builders -------------------------------------------------------

    def build_kinetics(self) -> KineticParams:
        return KineticParams(
            a1=float(self.require("kinetics", "a1")),
            a2=float(self.require("kinetics", "a2")),
            b1=float(self.require("kinetics", "b1")),
            b2=float(self.require("kinetics", "b2")),
            c1=float(self.require("kinetics", "c1")),
            c2=float(self.require("kinetics", "c2")),
            p=float(self.get("kinetics", "p", 1.0)),
            q=float(self.get("kinetics", "q", 1.0)),
        )

    def build_harvest(self) -> HarvestParams:
        return HarvestParams(
            base=self.build_kinetics(),
            d=float(self.require("harvest", "d")),
            e=float(self.require("harvest", "e")),
            a=float(self.get("harvest", "a", 1.0)),
        )

    def build_grid(self, n_x_override: Optional[int] = None) -> Grid1D:
        return Grid1D(
            x0=float(self.get("domain", "x0", 0.0)),
            x1=float(self.get("domain", "x1", 1.0)),
            n_x=int(self.get("domain", "n_x", 128) if n_x_override is None else n_x_override),
        )

    def build_resource(self, grid: Grid1D) -> ResourceField:
        expr = parse_expression(str(self.require("resource", "m")))
        return ResourceField(grid, expr(grid.centers()))

    def build_pde_params(
        self,
        grid: Grid1D,
        d1: Optional[float] = None,
        d2: Optional[float] = None,
    ) -> PdeParams:
        kind = self.kind
        d1 = float(d1 if d1 is not None else self.require("domain", "d1"))
        d2 = float(d2 if d2 is not None else self.require("domain", "d2"))
        if kind == "pde-const":
            return PdeParams(d1=d1, d2=d2, kinetics=self.build_kinetics())
        if kind == "pde-inhomogeneous":
            return PdeParams(
                d1=d1,
                d2=d2,
                b=float(self.require("resource", "b")),
                c=float(self.require("resource", "c")),
                p=float(self.require("resource", "p")),
                m=self.build_resource(grid),
            )
        raise ConfigError(f"model kind {kind!r} is not a PDE kind")

    def build_initial_state(self, grid: Grid1D) -> PdeState:
        xs = grid.centers()
        u_expr = parse_expression(str(self.require("initial", "u")))
        v_expr = parse_expression(str(self.require("initial", "v")))
        return PdeState(grid, u_expr(xs), v_expr(xs))

    def build_initial_point(self) -> State2:
        vals = []
        for key in ("u", "v"):
            raw = str(self.require("initial", key))
            try:
                vals.append(float(raw))
            except ValueError:
                raise ConfigError(
                    f"initial.{key}: ODE models need a plain number, got {raw!r}"
                )
        return State2(vals[0], vals[1])


def parse_config(text: str) -> ExperimentConfig:
    """Parse INI text against the schema; reject unknown sections/keys."""
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}")
    sections: Dict[str, Dict[str, object]] = {}
    for sec in cp.sections():
        if sec not in SCHEMA:
            line = _line_of(text, sec, None)
            where = f" (line {line})" if line else ""
            raise ConfigError(f"unknown section [{sec}]{where}")
        parsed: Dict[str, object] = {}
        for key, raw in cp[sec].items():
            caster = SCHEMA[sec].get(key)
            if caster is None:
                line = _line_of(text, sec, key)
                where = f" (line {line})" if line else ""
                raise ConfigError(f"unknown key {sec}.{key}{where}")
            parsed[key] = caster(sec, key, raw)
        sections[sec] = parsed
    return ExperimentConfig(sections)


def load_config(path: object) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return parse_config(text)


def _fmt_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    return str(value)


def emit_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse_config(emit_config(cfg)) == cfg."""
    lines = []
    for sec, keys in SCHEMA.items():
        if sec not in cfg.sections:
            continue
        lines.append(f"[{sec}]")
        present = cfg.sections[sec]
        for key in keys:
            if key in present:
                lines.append(f"{key} = {_fmt_value(present[key])}")
        lines.append("")
    return "\n".join(lines)


def apply_overrides(cfg: ExperimentConfig, items) -> ExperimentConfig:
    """Apply "section.key=value" override strings, re-validated per schema."""
    sections = {sec: dict(keys) for sec, keys in cfg.sections.items()}
    for item in items:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        left, raw = item.split("=", 1)
        parts = left.strip().split(".")
        if len(parts) != 2 or not all(parts):
            raise ConfigError(f"override {item!r} must look like section.key=value")
        sec, key = parts[0].strip(), parts[1].strip()
        caster = SCHEMA.get(sec, {}).get(key)
        if caster is None:
            raise ConfigError(f"override targets unknown key {sec}.{key}")
        sections.setdefault(sec, {})[key] = caster(sec, key, raw.strip())
    return ExperimentConfig(sections)


def config_digest(cfg: ExperimentConfig) -> str:
    """sha256 hex digest of the canonical emitted form."""
    return hashlib.sha256(emit_config(cfg).encode("utf-8")).hexdigest()
