"""Batch command-line surface.

Subcommands: calibrate, power, consistency, contour, radius, demo-pe,
demo-enhance, reduce.

Configuration comes from a flat key=value file (``--config``) merged with
command-line flags; flags win.  Seeds are mandatory inputs with defaults —
no wall-clock entropy anywhere — so every run is reproducible from its
manifest.  The ``--workers`` flag only schedules chunk execution and can
never change any output byte.

Exit codes: 0 success, 2 configuration error (including an input that
cannot be read or an output that cannot be written), 3 numeric failure.
stdout carries summaries; stderr carries diagnostics.
"""

from __future__ import annotations

import argparse
import decimal
import math
import os
import shutil
import sys
from functools import partial
from typing import NamedTuple

import numpy as np

from . import consistency as clab
from . import power as plab
from .engine import (
    CombinedTest,
    ConstantTest,
    EnhancedTest,
    MinimaxAdaptiveTest,
    asymptotic_test,
    calibrate_suite,
    calibration,
    load_test,
    save_test,
)
from .errors import ConfigError, DomainError, PnormLabError
from .mc import MonteCarloPlan
from .norms import parse_exponent
from .report import read_kv, sha256_file, svg_line_chart, write_csv, write_manifest

_FAMILIES = {
    "dense": clab.dense,
    "sparse": clab.sparse,
    "dagger": clab.semi_sparse,
    "semi-sparse": clab.semi_sparse,
}


class _Resolver:
    """Flag value if given, else config-file value, else default.  A config
    key may be any option in ``_OPTIONS`` but ``config``, so one file can
    serve several subcommands; any other key is a ConfigError.  The values
    of the run's subcommand's options are cast by type when the file is
    read, so a malformed one is refused even where the run would not read
    it; a key of another subcommand is neither checked nor recorded."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.command = args.command
        config = read_kv(args.config) if args.config else {}
        unknown = sorted(k for k in config if k not in _OPTIONS or k == "config")
        if unknown:
            raise ConfigError(f"unknown config key(s) in {args.config}: {', '.join(unknown)}")
        self.config = {key: _cast(key, text) for key, text in config.items()
                       if self.command in _OPTIONS[key].commands.split()}
        self.resolved: dict[str, object] = {}

    def get(self, key: str, default=None):
        if self.command not in _OPTIONS[key].commands.split():
            return default
        value = getattr(self.args, key.replace("-", "_"), None)
        if value is None:
            value = self.config.get(key, default)
        self.resolved[key] = value
        return value

    def require(self, key: str):
        value = self.get(key)
        if value is None:
            raise ConfigError(f"missing required option --{key}")
        return value


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _cast(key: str, text: str):
    """A config-file value as the declared type of option ``key``."""
    kind = _OPTIONS[key].type
    if kind is bool:
        value = _BOOLEANS.get(text.strip().lower())
    elif isinstance(kind, tuple):
        value = text if text in kind else None
    else:
        try:
            value = kind(text)
        except ValueError:
            value = None
    if value is None:
        raise ConfigError(f"bad value for {key!r}: {text!r}")
    return value


def _family_from_spec(spec: str) -> clab.AlternativeFamily:
    spec = spec.strip().lower()
    if spec in _FAMILIES:
        return _FAMILIES[spec]()
    if spec.startswith("power-sparse:") or spec.startswith("powersparse:"):
        try:
            p = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad power-sparse exponent in {spec!r}") from exc
        return clab.power_sparse(p)
    raise ConfigError(
        f"unknown family {spec!r} (use dense, sparse, dagger, power-sparse:<p>)"
    )


def _write_manifest(res: _Resolver, path: str, outputs: list[str]) -> None:
    """Record the resolved options as each option's ``manifest`` field says:
    ``config.<key> = value``, or ``input.<key>.sha256`` for an input file, so
    the bytes do not depend on where files live."""
    entries: dict[str, object] = {"command": res.command}
    for key, value in res.resolved.items():
        record = _OPTIONS[key].manifest
        if value is None or record is None:
            continue
        if record == "input":
            entries[f"input.{key}.sha256"] = sha256_file(value)
        else:
            entries[f"config.{key}"] = value
    write_manifest(path, dict(sorted(entries.items())), outputs)


def _outdir(res: _Resolver) -> str:
    """The output directory, created: a handler calls this once every input
    is validated, so a refused run writes nothing."""
    out = res.get("outdir", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _given(res: _Resolver, *keys: str) -> list[str]:
    """The flags among ``keys`` given on the command line; a config file's
    value for a key does not count."""
    return [f"--{key}" for key in keys if getattr(res.args, key.replace("-", "_")) is not None]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_calibrate(res: _Resolver):
    d = res.require("d")
    alpha = res.get("alpha", 0.05)
    name = res.require("test")
    out = res.get("out")
    if res.get("asymptotic", False):
        try:
            exponent = parse_exponent(name)
        except DomainError as exc:
            raise ConfigError(f"--asymptotic needs a single-exponent --test "
                              f"(p=<x> or sup), got {name!r}") from exc
        test = asymptotic_test(exponent, d, alpha)
    else:
        plan = MonteCarloPlan(res.get("reps", 100_000), res.get("seed", 20_240_501))
        (test,) = calibrate_suite([calibration(name, d, alpha, plan, res.get)],
                                  res.get("workers", 1))

    header = f"test = {test.label}  d = {d}  alpha = {alpha:g}"
    if isinstance(test, MinimaxAdaptiveTest):
        print(f"{header}  margin = {test.margin:g}")
        for j, k in enumerate(test.kappas, start=1):
            print(f"kappa[{j}] = {k:.10g}")
        print(f"threshold = {test.threshold:.10g}")
    elif isinstance(test, CombinedTest):
        print(f"{header}  preset = {res.resolved['preset']}")  # as the calibration read it
        for p, a, k in zip(test.exponents, test.budget.alphas, test.kappas):
            print(f"member p = {p:.6g}  alpha_j = {a:.6g}  kappa = {k:.10g}")
        print(f"scale = {test.scale:.10g}")
        print(f"size_at_calibration = {test.calibration_size:.6g}")
    else:
        print(header)
        print(f"kappa = {test.critical_value:.10g}")
    if not out:
        return None
    save_test(test, out)
    print(f"artifact = {out}")
    return out + ".manifest", [out]


_TEST_MENU = ("p=1", "p=2", "p=3", "p=4", "sup", "combined", "minimax")

# --figure3 --scale presets: default d, calibration and power replications, tests
_FIGURE3 = {
    "desk": (10_000, 100_000, 2000, _TEST_MENU),
    "paper": (50_000, 50_000, 1000, _TEST_MENU[:-1]),
}


def _build_test_suite(names, d, alpha, calib_plan, res, workers):
    """The requested tests, calibrated on one shared null sample of the
    plan (`engine.calibrate_suite`), followed by the ``--artifact`` test if
    one is given.  A repeated label (a power table is keyed by label) is
    refused before anything is drawn."""
    artifact = res.get("artifact")
    loaded = [load_test(artifact)] if artifact else []
    if any(t.d != d for t in loaded):
        raise ConfigError(f"artifact was calibrated at d={loaded[0].d}, run requests d={d}")
    calibrations = [calibration(name, d, alpha, calib_plan, res.get) for name in names]
    plab.require_distinct_labels([c.label for c in calibrations] + [t.label for t in loaded])
    return calibrate_suite(calibrations, workers) + loaded


def _cmd_power(res: _Resolver):
    workers = res.get("workers", 1)
    if res.get("figure3", False):
        if given := _given(res, "tests", "family"):
            raise ConfigError(f"--figure3 runs its own tests and families; "
                              f"drop {' and '.join(given)}")
        default_d, calib_reps, power_reps, names = _FIGURE3[res.get("scale", "desk")]
        d = res.get("d", default_d)
        families = [clab.dense(), clab.semi_sparse(), clab.sparse()]
    else:
        if _given(res, "scale"):
            raise ConfigError("--scale picks a --figure3 preset; add --figure3 or drop --scale")
        d = res.require("d")
        calib_reps, power_reps = 100_000, 2000
        names = [s for s in res.get("tests", "p=2,sup").split(",") if s]
        families = [_family_from_spec(res.get("family", "dense"))]

    alpha = res.get("alpha", 0.05)
    calib_plan = MonteCarloPlan(res.get("calib-reps", calib_reps), res.get("calib-seed", 20_240_501))
    plan = MonteCarloPlan(res.get("reps", power_reps), res.get("seed", 20_240_777))

    # read every input before the (long) calibration
    fixed_grid = _parse_agrid(res.get("agrid", "auto"))
    if fixed_grid is not None:
        plab.require_scale_grid(fixed_grid)
    for family in families:
        family.runs(d)  # refuses a d below the family's floor before the draw
    tests = _build_test_suite(names, d, alpha, calib_plan, res, workers)
    tables = [plab.power_curve(tests, family, fixed_grid, d, plan, workers=workers)
              for family in families]

    outdir = _outdir(res)
    outputs = []
    for family, table in zip(families, tables):
        stem = family.label.replace("(", "_").replace(")", "").replace("=", "")
        csv_path = os.path.join(outdir, f"power_{stem}.csv")
        svg_path = os.path.join(outdir, f"power_{stem}.svg")
        table.to_csv(csv_path)
        svg_line_chart(svg_path, [(label, xs, ys) for label, (xs, ys) in table.series().items()],
                       title=f"Power against {family.label} signals (d={d})",
                       xlabel="signal scale a", ylabel="rejection rate")
        outputs += [csv_path, svg_path]
        rows = len(table.tests) * len(table.scales)
        print(f"family = {family.label}  rows = {rows}  csv = {csv_path}")
    return os.path.join(outdir, "power_manifest.txt"), outputs


def _parse_dgrid(spec: str) -> tuple[int, ...]:
    # a token past float range is refused before it becomes an integer; the
    # rest convert exactly ("1e300" is 10**300).  Every d that parses is
    # cheap: traces sum constant runs and allocate nothing that grows with d
    def exact(token: str) -> int:
        if not math.isfinite(float(token)):
            raise ValueError(token)
        return int(decimal.Decimal(token))

    try:
        if spec.startswith("geometric:"):
            _, lo, hi = spec.split(":")
            return clab.geometric_dgrid(exact(lo), exact(hi))
        return tuple(exact(x) for x in spec.split(","))
    except (ValueError, OverflowError, decimal.InvalidOperation) as exc:
        raise ConfigError(f"bad --dgrid {spec!r} (use geometric:lo:hi or a comma list)") from exc


_MAX_AGRID_POINTS = 10_000


def _parse_agrid(spec: str) -> tuple[float, ...] | None:
    """None for 'auto', else the lo:hi:n linspace grid of finite scales."""
    if spec == "auto":
        return None
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
        # a non-finite span means a non-finite bound or an overflow
        if not (math.isfinite(hi - lo) and 1 <= n <= _MAX_AGRID_POINTS):
            raise ValueError(spec)
        return tuple(np.linspace(lo, hi, n))
    except ValueError as exc:
        raise ConfigError(f"bad --agrid {spec!r} (use 'auto' or lo:hi:n with "
                          f"finite bounds and 1 <= n <= {_MAX_AGRID_POINTS})") from exc


_MAX_CONTOUR_RESOLUTION = 1001  # points per axis: at most about 10^6 cells


def _parse_range(spec: str) -> tuple[float, float]:
    """The finite lo:hi bounds of a contour axis."""
    try:
        lo, hi = (float(x) for x in spec.split(":"))
        # a non-finite span means a non-finite bound or an overflow
        if not math.isfinite(hi - lo):
            raise ValueError(spec)
    except ValueError as exc:
        raise ConfigError(f"bad --range {spec!r} (use lo:hi with finite bounds)") from exc
    return lo, hi


def _cmd_radius(res: _Resolver):
    exponent = parse_exponent(res.require("p"))
    if exponent.is_sup:
        raise ConfigError("radius needs a finite --p")
    print(f"radius = {clab.minimax_radius(exponent.p, res.require('d')):.10g}")


def _cmd_contour(res: _Resolver):
    exponent = parse_exponent(res.require("p"))
    lo, hi = _parse_range(res.get("range", "-5:5"))
    resolution = res.get("resolution", 101)
    if resolution > _MAX_CONTOUR_RESOLUTION:
        raise ConfigError(f"--resolution {resolution} exceeds the cap of "
                          f"{_MAX_CONTOUR_RESOLUTION} points per axis")
    axis, grid = clab.contour_grid(exponent, lo, hi, resolution)
    outdir = _outdir(res)
    path = os.path.join(outdir, f"contour_{exponent.label.replace('=', '')}.csv")
    n = len(axis)
    write_csv(path, ("x1", "x2", "value"),
              [(axis[i], axis[j], grid[i, j]) for i in range(n) for j in range(n)])
    print(f"contour = {path}  resolution = {resolution}")
    return os.path.join(outdir, "contour_manifest.txt"), [path]


def _cmd_consistency(res: _Resolver):
    family = _family_from_spec(res.require("family"))
    grid = _parse_dgrid(res.get("dgrid", "geometric:1e3:1e6"))
    exponents = [parse_exponent(t) for t in res.get("exponents", "2").split(",")]
    labels = [e.label for e in exponents]  # each names a trace file and a manifest key
    if len(set(labels)) != len(labels):
        raise ConfigError(f"--exponents repeats an exponent label: {', '.join(labels)}")
    traces = [clab.criterion_trace(family, e, grid) for e in exponents]
    outdir = _outdir(res)
    outputs = []
    for e, tr in zip(exponents, traces):
        path = os.path.join(outdir, f"trace_{family.kind}_{e.label.replace('=', '')}.csv")
        write_csv(path, ("d", "value"), tr.rows())
        outputs.append(path)
        sat = "  saturated" if tr.saturated else ""
        print(
            f"family = {family.label}  exponent = {e.label}  "
            f"slope = {tr.fitted_log_slope:.6g}{sat}  csv = {path}"
        )
    return os.path.join(outdir, "consistency_manifest.txt"), outputs


def _cmd_demo_pe(res: _Resolver):
    workers = res.get("workers", 1)
    d = res.get("d", 50_000)
    alpha2 = res.get("alpha2", 0.025)
    alpha_inf = res.get("alpha-inf", 0.025)
    plan = MonteCarloPlan(res.get("reps", 4000), res.get("seed", 20_240_777))
    calib_plan = MonteCarloPlan(res.get("calib-reps", 20_000), res.get("calib-seed", 20_240_501))
    rows = plab.pe_demo(d, alpha2, alpha_inf, plan, calib_plan, workers=workers)
    outdir = _outdir(res)
    path = os.path.join(outdir, "pe_demo.csv")
    write_csv(path, ("test", "power", "stderr"), rows)
    for label, rate, se in rows:
        print(f"{label:<12} power = {rate:.4f}  stderr = {se:.4f}")
    return os.path.join(outdir, "pe_demo_manifest.txt"), [path]


def _cmd_demo_enhance(res: _Resolver):
    workers = res.get("workers", 1)
    d = res.require("d")
    alpha = res.get("alpha", 0.05)
    plan = MonteCarloPlan(res.get("reps", 4000), res.get("seed", 20_240_777))
    calib_plan = MonteCarloPlan(res.get("calib-reps", 20_000), res.get("calib-seed", 20_240_501))
    name = res.get("base", "p=2")
    base = ConstantTest(d=d) if name == "never" else calibrate_suite(
        [calibration(name, d, alpha, calib_plan, res.get)], workers)[0]
    rows = plab.enhancement_demo(base, plan, workers=workers)
    enhanced = EnhancedTest(base)
    outdir = _outdir(res)
    path = os.path.join(outdir, "enhancement_demo.csv")
    write_csv(path, ("quantity", "estimate", "stderr"), rows)
    print(f"coordinate = 0  spike_mean = {enhanced.spike_mean:.6g}  "
          f"threshold = {enhanced.spike_threshold:.6g}")
    for name, val, se in rows:
        print(f"{name:<16} = {val:.4f}  stderr = {se:.4f}")
    print(f"spike_tail_exact = {enhanced.spike_power:.6g}")
    print(f"size_inflation_bound = {enhanced.spike_size:.6g}")
    return os.path.join(outdir, "enhancement_manifest.txt"), [path]


def _cmd_reduce(res: _Resolver):
    design = res.require("design")
    response = res.require("response")
    out = res.require("out")
    try:
        X = np.loadtxt(design, ndmin=2)
        z = np.loadtxt(response)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read inputs: {exc}") from exc
    theta = plab.regression_reduce(X, np.atleast_1d(z))
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(format(v, ".17g") for v in theta) + "\n")
    print(f"reduced = {out}  d = {theta.size}")
    return out + ".manifest", [out]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# a handler reads its options from a _Resolver and returns the manifest path
# and output files of its run, or None when it writes no files
_COMMANDS = {
    "calibrate": (_cmd_calibrate, "calibrate critical values"),
    "power": (_cmd_power, "power curves against signal families"),
    "consistency": (_cmd_consistency, "criterion traces over a dimension grid"),
    "contour": (_cmd_contour, "criterion surface of one exponent at d = 2"),
    "radius": (_cmd_radius, "minimax separation radius of a p-norm ball"),
    "demo-pe": (_cmd_demo_pe, "max-combination power comparison"),
    "demo-enhance": (_cmd_demo_enhance, "one-coordinate power enhancement"),
    "reduce": (_cmd_reduce, "regression-to-sequence-model reduction"),
}


class _Option(NamedTuple):
    type: object  # int, float, str, bool (a flag) or a tuple of choices
    commands: str  # the subcommands that take it, space-separated
    help: str | None = None
    # its manifest line: "config" records the value, "input" the SHA-256 of
    # the file it names, None nothing
    manifest: str | None = "config"


_ALL = " ".join(_COMMANDS)

# every long option of every subcommand; the keys a config file may set are
# these names but ``config``
_OPTIONS = {
    "config": _Option(str, _ALL, "flat key=value config file; flags win"),
    "workers": _Option(int, "calibrate power consistency demo-pe demo-enhance",
                       "chunk workers (never affects results)", manifest=None),
    "outdir": _Option(str, "power consistency contour demo-pe demo-enhance", manifest=None),
    "d": _Option(int, "calibrate power radius demo-pe demo-enhance"),
    "alpha": _Option(float, "calibrate power demo-enhance"),
    "test": _Option(str, "calibrate", "a --tests name: p=<x>, sup, combined, minimax"),
    "p": _Option(str, "contour radius", "norm exponent (positive real or 'sup')"),
    "preset": _Option(("exp", "linear"), "calibrate power", "combined-test member preset"),
    "margin": _Option(float, "calibrate power"),
    "max-power": _Option(int, "calibrate power"),
    "asymptotic": _Option(bool, "calibrate", "analytic critical value of a p=<x> or sup test"),
    "seed": _Option(int, "calibrate power demo-pe demo-enhance"),
    "reps": _Option(int, "calibrate power demo-pe demo-enhance"),
    "calib-reps": _Option(int, "power demo-pe demo-enhance"),
    "calib-seed": _Option(int, "power demo-pe demo-enhance"),
    "budget-success": _Option(float, "calibrate"),
    "budget-last-share": _Option(float, "calibrate"),
    "out": _Option(str, "calibrate reduce", manifest=None),
    "figure3": _Option(bool, "power", "run the stock three-family comparison"),
    "scale": _Option(("desk", "paper"), "power"),
    "family": _Option(str, "power consistency", "dense, sparse, dagger, power-sparse:<p>"),
    "tests": _Option(str, "power", "comma list: p=1,p=2,sup,combined,minimax"),
    "agrid": _Option(str, "power", "'auto' or lo:hi:n"),
    "artifact": _Option(str, "power", "add a test loaded from a calibration artifact",
                        manifest="input"),
    "exponents": _Option(str, "consistency", "comma list of exponents or 'sup'"),
    "dgrid": _Option(str, "consistency", "geometric:lo:hi or comma list"),
    "range": _Option(str, "contour"),
    "resolution": _Option(int, "contour"),
    "alpha2": _Option(float, "demo-pe"),
    "alpha-inf": _Option(float, "demo-pe"),
    "base": _Option(str, "demo-enhance", "a --tests name (p=<x>, sup, combined, minimax) or never"),
    "design": _Option(str, "reduce", "whitespace-delimited n x d matrix file", manifest="input"),
    "response": _Option(str, "reduce", "whitespace-delimited n-vector file", manifest="input"),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of subcommand ``only`` alone when
    it names one: a run builds just the subparser it uses."""
    parser = argparse.ArgumentParser(
        prog="pnormlab",
        description="Norm-based tests for high-dimensional Gaussian sequence models",
    )
    # every subcommand's name, also in the usage of a parser built for one
    sub = parser.add_subparsers(required=True, metavar="{" + ",".join(_COMMANDS) + "}")
    # the width argparse would find, queried once instead of once per option
    formatter = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    subparsers = {}
    for command in [only] if only in _COMMANDS else _COMMANDS:
        handler, summary = _COMMANDS[command]
        # no abbreviations: a flag of another subcommand, such as --d under
        # consistency, is refused rather than read as a prefix (--dgrid)
        subparsers[command] = sub.add_parser(command, help=summary, formatter_class=formatter,
                                             allow_abbrev=False)
        subparsers[command].set_defaults(handler=handler, command=command)
    for name, opt in _OPTIONS.items():
        if opt.type is bool:
            kwargs = {"action": "store_true", "default": None}
        elif isinstance(opt.type, tuple):
            kwargs = {"choices": opt.type}
        else:
            kwargs = {"type": opt.type}
        for command in opt.commands.split():
            if command in subparsers:
                subparsers[command].add_argument(f"--{name}", help=opt.help, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        res = _Resolver(args)
        record = args.handler(res)
        if record is not None:
            _write_manifest(res, *record)
        return 0
    except (ConfigError, DomainError, OSError) as exc:
        # an unwritable output path is a configuration error too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PnormLabError, OverflowError) as exc:
        # OverflowError: a value too large for a float, e.g. a 400-digit --d
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
