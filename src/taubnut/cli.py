"""Command-line front end for batch and scripted use.

Subcommands:
    integrate    numerically integrate a geodesic and emit a trajectory CSV
    analytic     sample a closed-form family over a radial grid (CSV)
    verify       run a cross-validation scenario (schema-1 JSON report)
    christoffel  dump nonzero connection coefficients at a point (JSON),
                 closed-form and finite-difference oracle side by side
    curvature    dump curvature residuals at a point (JSON)

Exit codes (stable contract): 0 success, 1 configuration or domain error,
2 early termination of the integrator (the cause is recorded in the CSV
comment line), 3 verification failure. Every error prints a single
machine-parseable line ``error: <Type>: <message>`` on standard error.

All numeric CSV output uses round-trip (17 significant digit) formatting, so
re-ingesting and re-emitting a trajectory is byte-stable; JSON floats use
Python's shortest round-trip representation. Angles are radians only — there
are no degree flags. ``--init`` takes the coordinates in the fixed order
(tau, theta, phi, r) followed by their derivatives in the same order.

Any long option may instead be supplied in a JSON ``--config`` file under its
flag name with dashes replaced by underscores (e.g. ``{"t_end": 10}``);
explicit flags override file values. A flag value and a file value pass the
same casts and checks, so a bad value prints the same error line either way;
unknown keys, non-integral or non-finite values of integer options and
non-string values of string options are rejected. No color is ever emitted,
so the only recognized environment variable, NO_COLOR, is honored trivially.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields

import numpy as np

from .analytic import (
    _REGISTRY,
    FamilyConstants,
    curves,
    theta_range_exit,
    turning_radius,
)
from .errors import ConfigError, TaubnutError
from .geometry import (
    COORDS,
    DUALITY_SIGN,
    ModelParams,
    Point,
    christoffel_at,
    christoffel_fd_oracle,
    curvature_fd,
    duality_residual,
)
from .integrator import (
    HORIZON,
    IntegrationConfig,
    PhaseState,
    integrate,
    trajectory_to_csv,
)
from .verify import report_to_json, run_scenario

_CONSTANT_FLAGS = tuple(f.name for f in fields(FamilyConstants) if f.name != "family")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports problems through the package's single-line
    error contract instead of exiting with argparse's own status code."""

    def error(self, message):
        raise ConfigError(message)


def _read_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    return data


class _Options:
    """Command-line flags merged over config-file values (flags win)."""

    def __init__(self, args: argparse.Namespace):
        self._flags = vars(args)
        self._file = {}
        path = self._flags.get("config")
        if path is not None:
            data = _read_config(path)
            allowed = set(self._flags["option_keys"])
            unknown = sorted(set(data) - allowed)
            if unknown:
                raise ConfigError("unknown config key(s): " + ", ".join(unknown))
            self._file = data

    def get(self, name, default=None, cast=None):
        value = self._flags.get(name)
        if value is None:
            value = self._file.get(name)
        if value is None:
            return default
        if cast is str:
            if not isinstance(value, str):
                raise ConfigError(f"{name} must be a string, got {value!r}")
        elif cast is not None:
            # JSON true is an int; int() would truncate 2.7 or overflow on Infinity
            if isinstance(value, bool) or (
                    cast is int and isinstance(value, float) and not value.is_integer()):
                raise ConfigError(f"invalid value for {name}: {value!r}")
            try:
                value = cast(value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"invalid value for {name}: {value!r}") from exc
        return value

    def require(self, name, cast=None):
        value = self.get(name, None, cast)
        if value is None:
            raise ConfigError(
                f"missing required option --{name.replace('_', '-')}")
        return value


def _parse_floats(value, count: int, name: str) -> list:
    if isinstance(value, str):
        parts = [p.strip() for p in value.split(",")]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        raise ConfigError(f"{name} must be {count} comma-separated numbers")
    if len(parts) != count:
        raise ConfigError(
            f"{name} must have exactly {count} values, got {len(parts)}")
    if any(isinstance(p, bool) for p in parts):
        raise ConfigError(f"{name} values must be numbers, not booleans")
    try:
        values = [float(p) for p in parts]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be numeric: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{name} values must be finite")
    return values


def _parse_r_range(value) -> tuple:
    if value.count(":") != 1:
        raise ConfigError("r-range must have the form a:b")
    lo_s, hi_s = value.split(":")
    try:
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise ConfigError(f"r-range bounds must be numeric: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError("r-range bounds must be finite")
    if not 0.0 < lo <= hi:
        raise ConfigError("r-range must satisfy 0 < a <= b")
    return lo, hi


def _emit(text: str, opts: _Options) -> None:
    """Write text to the out option's file, or to stdout without one."""
    out = opts.get("out", None, str)
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {out}: {exc}") from exc


def _grid(space, lo, hi, samples: int) -> np.ndarray:
    """space(lo, hi, samples), numpy's linspace or geomspace; a sample count
    whose grid numpy cannot allocate is a ConfigError."""
    try:
        return space(lo, hi, samples)
    except (MemoryError, ValueError) as exc:  # "Unable to allocate", "Maximum allowed size"
        raise ConfigError(f"samples = {samples} is too many for one grid: {exc}") from None


def _point_of(opts: _Options) -> tuple:
    params = ModelParams(n=opts.require("n", float))
    coords = _parse_floats(opts.require("point"), 4, "point")
    return params, Point(*coords)


def _cmd_integrate(opts: _Options) -> int:
    n = opts.require("n", float)
    init = _parse_floats(opts.require("init"), 8, "init")
    t_end = opts.require("t_end", float)
    # tight default so conserved charges hold to ~1e-12 drift out of the box
    tol = opts.get("tol", 1e-12, float)
    samples = opts.get("samples", None, int)
    grid = None
    if samples is not None:
        if samples < 2:
            raise ConfigError("samples must be at least 2")
        grid = tuple(_grid(np.linspace, 0.0, t_end, samples))
    cfg = IntegrationConfig(abs_tol=tol, rel_tol=tol, t_end=t_end,
                            sample_grid=grid)
    params = ModelParams(n=n)
    state = PhaseState(Point(*init[:4]), tuple(init[4:]))
    traj = integrate(params, state, cfg)
    _emit(trajectory_to_csv(traj), opts)
    return 0 if traj.termination == HORIZON else 2


def _cmd_analytic(opts: _Options) -> int:
    family = opts.require("family", str)
    if family not in _REGISTRY:
        raise ConfigError(f"family must be one of {', '.join(_REGISTRY)}")
    params = ModelParams(n=opts.require("n", float))
    mode = opts.get("mode", None, str)
    kwargs = {}
    for name in _CONSTANT_FLAGS:
        cast = int if name == "eps" else float
        value = opts.get(name, None, cast)
        if value is not None:
            kwargs[name] = value
    if "r1" not in kwargs:
        raise ConfigError("missing required option --r1")
    # anchors default to zero; amplitude constants like tau0 never do
    for anchor in _REGISTRY[family].anchors:
        kwargs.setdefault(anchor, 0.0)
    consts = FamilyConstants(family=family, **kwargs)

    lo, hi = _parse_r_range(opts.require("r_range", str))
    samples = opts.get("samples", 50, int)
    if samples < 1:
        raise ConfigError("samples must be at least 1")
    grid = _grid(np.geomspace, lo, hi, samples)
    values = curves(params, consts, grid, mode=mode)

    names = [k for k in values if k != "t"]
    columns = [grid, np.atleast_1d(values["t"])]
    columns += [np.atleast_1d(values[k]) for k in names]
    lines = [",".join(["r", "t", *names])]
    for row in zip(*columns):
        lines.append(",".join(f"{v:.17g}" for v in row))
    R = turning_radius(consts, params).value
    if lo <= R * (1 + 1e-9):
        lines.append("# turning_limit=used")
    if "theta" in values and theta_range_exit(params, consts):
        lines.append("# theta_range_exit=true")
    _emit("\n".join(lines) + "\n", opts)
    return 0


def _cmd_verify(opts: _Options) -> int:
    scenario = opts.require("scenario", str)
    seed = opts.get("seed", 0, int)
    report = run_scenario(scenario, seed=seed)
    _emit(report_to_json(report), opts)
    return 0 if report["passed"] else 3


def _cmd_christoffel(opts: _Options) -> int:
    params, p = _point_of(opts)
    closed = christoffel_at(params, p)
    oracle = christoffel_fd_oracle(params, p)
    entries = {}
    max_diff = 0.0
    for lam in range(4):
        for mu in range(4):
            for nu in range(mu, 4):
                c = float(closed[lam, mu, nu])
                f = float(oracle[lam, mu, nu])
                max_diff = max(max_diff, abs(c - f))
                if c != 0.0 or abs(f) > 1e-6:
                    key = f"gamma^{COORDS[lam]}_{{{COORDS[mu]},{COORDS[nu]}}}"
                    entries[key] = {"closed_form": c, "fd_oracle": f}
    doc = {
        "n": params.n,
        "point": dict(zip(COORDS, p.as_array().tolist())),
        "entries": entries,
        "max_abs_difference": max_diff,
    }
    _emit(json.dumps(doc, indent=2) + "\n", opts)
    return 0


def _cmd_curvature(opts: _Options) -> int:
    params, p = _point_of(opts)
    (ricci,), (Rfr,) = curvature_fd([params], [p])
    doc = {
        "n": params.n,
        "point": dict(zip(COORDS, p.as_array().tolist())),
        "ricci_max_abs": float(np.max(np.abs(ricci))),
        "self_dual_residual": duality_residual(Rfr),
        "anti_self_dual_residual": duality_residual(Rfr, sign=-DUALITY_SIGN),
        "riemann_frame_max_abs": float(np.max(np.abs(Rfr))),
        "duality_sign": DUALITY_SIGN,
    }
    _emit(json.dumps(doc, indent=2) + "\n", opts)
    return 0


def _add_common(parser: _Parser, *names: str) -> None:
    # flags stay strings: the handlers cast and check them as config values
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"))
    parser.add_argument("--config", help="JSON file of option values")
    parser.set_defaults(option_keys=names)


@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree, built once per process: parsing keeps no state in
    it (each call gets a fresh Namespace), so main reuses it."""
    parser = _Parser(prog="taubnut", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("integrate",
                       help="integrate a geodesic and emit a trajectory CSV")
    _add_common(p, "n", "init", "t_end", "tol", "samples", "out")
    p.set_defaults(handler=_cmd_integrate)

    p = sub.add_parser("analytic",
                       help="sample a closed-form family over a radial grid")
    _add_common(p, "family", "mode", "n", *_CONSTANT_FLAGS, "r_range",
                "samples", "out")
    p.set_defaults(handler=_cmd_analytic)

    p = sub.add_parser("verify", help="run a cross-validation scenario")
    _add_common(p, "scenario", "seed", "out")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("christoffel",
                       help="dump nonzero connection coefficients at a point")
    _add_common(p, "n", "point", "out")
    p.set_defaults(handler=_cmd_christoffel)

    p = sub.add_parser("curvature",
                       help="dump curvature residuals at a point")
    _add_common(p, "n", "point", "out")
    p.set_defaults(handler=_cmd_curvature)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        opts = _Options(args)
        return args.handler(opts)
    except TaubnutError as exc:
        message = " ".join(str(exc).split())
        sys.stderr.write(f"error: {type(exc).__name__}: {message}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
