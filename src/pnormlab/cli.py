"""Batch command-line surface.

Subcommands: calibrate, power, consistency, demo-pe, demo-enhance, reduce.

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
import math
import os
import sys
from functools import partial

import numpy as np

from . import consistency as clab
from . import power as plab
from .engine import (
    build_combined,
    build_minimax_adaptive,
    geometric_budget,
    load_test,
    make_single_test,
    mc_calibrate,
    mc_scale_minimax,
    member_exponents,
    save_test,
)
from .errors import (
    CalibrationError,
    ConfigError,
    DomainError,
    NumericError,
    PnormLabError,
    RankError,
)
from .mc import MonteCarloPlan, simulate_null_statistics
from .norms import SUP, Exponent, parse_exponent
from .report import read_kv, sha256_file, svg_line_chart, write_csv, write_manifest

_FAMILIES = {
    "dense": clab.dense,
    "sparse": clab.sparse,
    "dagger": clab.semi_sparse,
    "semi-sparse": clab.semi_sparse,
}


def _as_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot parse boolean from {value!r}")


class _Resolver:
    """Flag value if given, else config-file value, else default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = read_kv(args.config) if getattr(args, "config", None) else {}
        self.resolved: dict[str, object] = {}

    def get(self, key: str, default=None, cast=str):
        flag = getattr(self.args, key.replace("-", "_"), None)
        if flag is not None:
            value = flag
        elif key in self.config:
            value = self.config[key]
        else:
            value = default
        if value is not None and not isinstance(value, bool):
            try:
                value = cast(value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
        self.resolved[key] = value
        return value

    def require(self, key: str, cast=str):
        value = self.get(key, None, cast)
        if value is None:
            raise ConfigError(f"missing required option --{key}")
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


def _plan(res: _Resolver, reps_key: str, seed_key: str, default_reps: int, default_seed: int) -> MonteCarloPlan:
    return MonteCarloPlan(
        replications=res.get(reps_key, default_reps, int),
        seed=res.get(seed_key, default_seed, int),
        chunk_size=res.get("chunk-size", 128, int),
    )


def _manifest_entries(res: _Resolver, command: str) -> dict[str, object]:
    entries: dict[str, object] = {"command": command}
    for key, value in sorted(res.resolved.items()):
        if value is not None and key not in ("workers",):
            entries[f"config.{key}"] = value
    return entries


def _outdir(res: _Resolver) -> str:
    out = res.get("outdir", ".", str)
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_calibrate(args) -> int:
    res = _Resolver(args)
    d = res.require("d", int)
    alpha = res.get("alpha", 0.05, float)
    workers = res.get("workers", 1, int)
    out = res.get("out", None, str)
    preset = res.get("preset", None, str)
    exponent_text = res.get("p", None, str)
    asymptotic = res.get("asymptotic", False, _as_bool)
    minimax = res.get("minimax", False, _as_bool)

    plan = None if asymptotic else _plan(res, "reps", "seed", 100_000, 20_240_501)
    if asymptotic:
        if exponent_text is None:
            raise ConfigError("--asymptotic needs --p (a positive real or 'sup')")
        test = make_single_test(d, parse_exponent(exponent_text), alpha, method="asymptotic")
        print(f"test = {test.label}  d = {d}  alpha = {alpha:g}")
        print(f"kappa = {test.critical_value:.10g}")
    elif minimax:
        margin = res.get("margin", 5.0, float)
        max_power = res.get("max-power", 8, int)
        test = build_minimax_adaptive(d, margin, max_power)
        test = mc_scale_minimax(test, alpha, plan, workers=workers)
        print(f"test = {test.label}  d = {d}  alpha = {alpha:g}  margin = {margin:g}")
        for j, k in enumerate(test.kappas, start=1):
            print(f"kappa[{j}] = {k:.10g}")
        print(f"threshold = {test.threshold:.10g}")
    elif preset:
        m, exps = member_exponents(d, preset)
        budget = geometric_budget(
            m, alpha,
            success=res.get("budget-success", 0.5, float),
            last_share=res.get("budget-last-share", 0.5, float),
        )
        test = build_combined(d, exps, budget, plan, workers=workers)
        print(f"test = {test.label}  d = {d}  alpha = {alpha:g}  preset = {preset}")
        for p, a, k in zip(test.exponents, budget.alphas, test.kappas):
            print(f"member p = {p:.6g}  alpha_j = {a:.6g}  kappa = {k:.10g}")
        print(f"scale = {test.scale:.10g}")
        print(f"size_at_calibration = {test.calibration_size:.6g}")
    elif exponent_text is not None:
        exponent = parse_exponent(exponent_text)
        test = make_single_test(d, exponent, alpha, method="mc", plan=plan, workers=workers)
        print(f"test = {exponent.label}  d = {d}  alpha = {alpha:g}")
        print(f"kappa = {test.critical_value:.10g}")
    else:
        raise ConfigError("choose one of --p, --preset, or --minimax")

    if out:
        save_test(test, out)
        write_manifest(out + ".manifest", _manifest_entries(res, "calibrate"), [out])
        print(f"artifact = {out}")
    return 0


_TEST_MENU = ("p=1", "p=2", "p=3", "p=4", "sup", "combined", "minimax")


def _build_test_suite(names, d, alpha, calib_plan, res, workers):
    """Calibrate every requested test on one shared null sample of the plan.

    A statistic column depends only on the plan and its own exponent, so
    each test gets the same critical values as a calibration of its own.
    """
    calibrations = []  # (exponents the test reads, calibrate(stats=...))
    for name in names:
        name = name.strip().lower()
        if name == "combined":
            m, exps = member_exponents(d, res.get("preset", "exp", str) or "exp")
            calibrations.append((
                [Exponent.finite(p) for p in exps],
                partial(build_combined, d, exps, geometric_budget(m, alpha), calib_plan),
            ))
        elif name == "minimax":
            t = build_minimax_adaptive(
                d, res.get("margin", 5.0, float), res.get("max-power", 8, int)
            )
            calibrations.append(
                (t.norm_exponents(), partial(mc_scale_minimax, t, alpha, calib_plan))
            )
        else:
            e = parse_exponent(name.removeprefix("p="))
            calibrations.append(([e], partial(mc_calibrate, e, d, alpha, calib_plan)))
    if not calibrations:
        return []
    union = [e for exps, _ in calibrations for e in exps]
    stats = simulate_null_statistics(d, union, calib_plan, workers=workers)
    return [calibrate(stats=stats) for _, calibrate in calibrations]


def _cmd_power(args) -> int:
    res = _Resolver(args)
    workers = res.get("workers", 1, int)
    outdir = _outdir(res)
    figure3 = res.get("figure3", False, _as_bool)
    scale_preset = res.get("scale", "desk", str)
    if figure3:
        if scale_preset == "desk":
            d = res.get("d", 10_000, int)
            calib_reps = res.get("calib-reps", 100_000, int)
            power_reps = res.get("reps", 2000, int)
            names = list(_TEST_MENU)
        elif scale_preset == "paper":
            d = res.get("d", 50_000, int)
            calib_reps = res.get("calib-reps", 50_000, int)
            power_reps = res.get("reps", 1000, int)
            names = ["p=1", "p=2", "p=3", "p=4", "sup", "combined"]
        else:
            raise ConfigError(f"unknown --scale {scale_preset!r} (desk or paper)")
        families = [clab.dense(), clab.semi_sparse(), clab.sparse()]
    else:
        d = res.require("d", int)
        calib_reps = res.get("calib-reps", 100_000, int)
        power_reps = res.get("reps", 2000, int)
        names = [s for s in res.get("tests", "p=2,sup", str).split(",") if s]
        families = [_family_from_spec(res.get("family", "dense", str))]

    alpha = res.get("alpha", 0.05, float)
    calib_plan = _plan(res, "calib-reps", "calib-seed", calib_reps, 20_240_501)
    plan = _plan(res, "reps", "seed", power_reps, 20_240_777)

    # read every input before the (long) calibration
    fixed_grid = _parse_agrid(res.get("agrid", "auto", str))
    artifact = res.get("artifact", None, str)
    loaded = [load_test(artifact)] if artifact else []
    if any(t.d != d for t in loaded):
        raise ConfigError(f"artifact was calibrated at d={loaded[0].d}, run requests d={d}")
    tests = _build_test_suite(names, d, alpha, calib_plan, res, workers) + loaded

    outputs = []
    for family in families:
        grid = fixed_grid or plab.auto_a_grid(tests, family, d, plan, workers=workers)
        table = plab.power_curve(tests, family, grid, d, plan, workers=workers)
        stem = family.label.replace("(", "_").replace(")", "").replace("=", "")
        csv_path = os.path.join(outdir, f"power_{stem}.csv")
        svg_path = os.path.join(outdir, f"power_{stem}.svg")
        table.to_csv(csv_path)
        svg_line_chart(
            svg_path,
            [(label, xs, ys) for label, (xs, ys) in table.series().items()],
            title=f"Power against {family.label} signals (d={d})",
            xlabel="signal scale a",
            ylabel="rejection rate",
            ylim=(0.0, 1.0),
        )
        outputs += [csv_path, svg_path]
        print(f"family = {family.label}  rows = {len(table.rows)}  csv = {csv_path}")
    write_manifest(
        os.path.join(outdir, "power_manifest.txt"),
        _manifest_entries(res, "power"),
        outputs,
    )
    return 0


def _parse_dgrid(spec: str) -> tuple[int, ...]:
    try:
        if not spec.startswith("geometric:"):
            return tuple(int(float(x)) for x in spec.split(","))
        _, lo, hi = spec.split(":")
        return clab.geometric_dgrid(int(float(lo)), int(float(hi)))
    except (ValueError, OverflowError) as exc:
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


def _cmd_consistency(args) -> int:
    res = _Resolver(args)
    outdir = _outdir(res)
    outputs = []

    if res.get("radius", False, _as_bool):
        p = res.require("p", float)
        d = res.require("d", int)
        print(f"radius = {clab.minimax_radius(p, d):.10g}")
        return 0

    if res.get("contour", False, _as_bool):
        exponent = SUP if res.get("sup", False, _as_bool) else Exponent.finite(res.require("p", float))
        lo, hi = _parse_range(res.get("range", "-5:5", str))
        resolution = res.get("resolution", 101, int)
        axis, grid = clab.contour_grid(exponent, lo, hi, resolution)
        path = os.path.join(outdir, f"contour_{exponent.label.replace('=', '')}.csv")
        rows = [
            (axis[i], axis[j], grid[i, j])
            for i in range(len(axis))
            for j in range(len(axis))
        ]
        write_csv(path, ("x1", "x2", "value"), rows)
        outputs.append(path)
        print(f"contour = {path}  resolution = {resolution}")
    else:
        family = _family_from_spec(res.require("family", str))
        grid = _parse_dgrid(res.get("dgrid", "geometric:1e3:1e6", str))
        exponents = [
            parse_exponent(t) for t in res.get("exponents", "2", str).split(",")
        ]
        for e in exponents:
            tr = clab.criterion_trace(family, e, grid)
            path = os.path.join(
                outdir,
                f"trace_{family.kind}_{e.label.replace('=', '')}.csv",
            )
            write_csv(path, ("d", "value"), tr.rows())
            outputs.append(path)
            sat = "  saturated" if tr.saturated else ""
            print(
                f"family = {family.label}  exponent = {e.label}  "
                f"slope = {tr.fitted_log_slope:.6g}{sat}  csv = {path}"
            )
    write_manifest(
        os.path.join(outdir, "consistency_manifest.txt"),
        _manifest_entries(res, "consistency"),
        outputs,
    )
    return 0


def _cmd_demo_pe(args) -> int:
    res = _Resolver(args)
    workers = res.get("workers", 1, int)
    outdir = _outdir(res)
    d = res.get("d", 50_000, int)
    alpha2 = res.get("alpha2", 0.025, float)
    alpha_inf = res.get("alpha-inf", 0.025, float)
    plan = _plan(res, "reps", "seed", 4000, 20_240_777)
    calib_plan = _plan(res, "calib-reps", "calib-seed", 20_000, 20_240_501)
    report = plab.pe_demo(d, alpha2, alpha_inf, plan, calib_plan, workers=workers)
    path = os.path.join(outdir, "pe_demo.csv")
    write_csv(path, ("test", "power", "stderr"), report.rows)
    for label, rate, se in report.rows:
        print(f"{label:<12} power = {rate:.4f}  stderr = {se:.4f}")
    write_manifest(
        os.path.join(outdir, "pe_demo_manifest.txt"),
        _manifest_entries(res, "demo-pe"),
        [path],
    )
    return 0


def _cmd_demo_enhance(args) -> int:
    res = _Resolver(args)
    workers = res.get("workers", 1, int)
    outdir = _outdir(res)
    d = res.require("d", int)
    alpha = res.get("alpha", 0.05, float)
    plan = _plan(res, "reps", "seed", 4000, 20_240_777)
    calib_plan = _plan(res, "calib-reps", "calib-seed", 20_000, 20_240_501)
    base_spec = res.get("base", "p=2", str)
    if base_spec == "never":
        from .engine import ConstantTest

        base = ConstantTest(d=d)
    else:
        base = make_single_test(
            d, parse_exponent(base_spec.removeprefix("p=")), alpha, "mc",
            calib_plan, workers,
        )
    rep = plab.enhancement_demo(d, base, plan, workers=workers)
    rows = [
        ("size_base", rep.size_base, rep.size_base_stderr),
        ("size_enhanced", rep.size_enhanced, rep.size_enhanced_stderr),
        ("power_base", rep.power_base, rep.power_base_stderr),
        ("power_enhanced", rep.power_enhanced, rep.power_enhanced_stderr),
    ]
    path = os.path.join(outdir, "enhancement_demo.csv")
    write_csv(path, ("quantity", "estimate", "stderr"), rows)
    print(f"coordinate = {rep.coordinate}  spike_mean = {rep.spike_mean:.6g}  "
          f"threshold = {rep.spike_threshold:.6g}")
    for name, val, se in rows:
        print(f"{name:<16} = {val:.4f}  stderr = {se:.4f}")
    print(f"spike_tail_exact = {rep.spike_tail_exact:.6g}")
    print(f"size_inflation_bound = {rep.size_inflation_bound:.6g}")
    write_manifest(
        os.path.join(outdir, "enhancement_manifest.txt"),
        _manifest_entries(res, "demo-enhance"),
        [path],
    )
    return 0


def _cmd_reduce(args) -> int:
    res = _Resolver(args)
    design = res.require("design", str)
    response = res.require("response", str)
    out = res.require("out", str)
    try:
        X = np.loadtxt(design, ndmin=2)
        z = np.loadtxt(response)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read inputs: {exc}") from exc
    theta = plab.regression_reduce(X, np.atleast_1d(z))
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(format(v, ".17g") for v in theta) + "\n")
    entries = _manifest_entries(res, "reduce")
    entries["input.design.sha256"] = sha256_file(design)
    entries["input.response.sha256"] = sha256_file(response)
    write_manifest(out + ".manifest", entries, [out])
    print(f"reduced = {out}  d = {theta.size}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="flat key=value config file; flags win")
    sp.add_argument("--workers", type=int, help="chunk workers (never affects results)")
    sp.add_argument("--chunk-size", type=int, dest="chunk_size")
    sp.add_argument("--outdir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnormlab",
        description="Norm-based tests for high-dimensional Gaussian sequence models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="calibrate critical values")
    _add_common(cal)
    cal.add_argument("--d", type=int)
    cal.add_argument("--alpha", type=float)
    cal.add_argument("--p", help="norm exponent (positive real or 'sup')")
    cal.add_argument("--preset", choices=("exp", "linear"), help="combined-test member preset")
    cal.add_argument("--minimax", action="store_true", default=None)
    cal.add_argument("--margin", type=float)
    cal.add_argument("--max-power", type=int, dest="max_power")
    cal.add_argument("--asymptotic", action="store_true", default=None)
    cal.add_argument("--seed", type=int)
    cal.add_argument("--reps", type=int)
    cal.add_argument("--budget-success", type=float, dest="budget_success")
    cal.add_argument("--budget-last-share", type=float, dest="budget_last_share")
    cal.add_argument("--out")
    cal.set_defaults(handler=_cmd_calibrate)

    pw = sub.add_parser("power", help="power curves against signal families")
    _add_common(pw)
    pw.add_argument("--figure3", action="store_true", default=None,
                    help="run the stock three-family comparison")
    pw.add_argument("--scale", choices=("desk", "paper"))
    pw.add_argument("--d", type=int)
    pw.add_argument("--alpha", type=float)
    pw.add_argument("--family")
    pw.add_argument("--tests", help="comma list: p=1,p=2,sup,combined,minimax")
    pw.add_argument("--preset", choices=("exp", "linear"))
    pw.add_argument("--margin", type=float)
    pw.add_argument("--max-power", type=int, dest="max_power")
    pw.add_argument("--agrid", help="'auto' or lo:hi:n")
    pw.add_argument("--reps", type=int)
    pw.add_argument("--seed", type=int)
    pw.add_argument("--calib-reps", type=int, dest="calib_reps")
    pw.add_argument("--calib-seed", type=int, dest="calib_seed")
    pw.add_argument("--artifact", help="add a test loaded from a calibration artifact")
    pw.set_defaults(handler=_cmd_power)

    co = sub.add_parser("consistency", help="criterion traces, contours, radii")
    _add_common(co)
    co.add_argument("--family", help="dense, sparse, dagger, power-sparse:<p>")
    co.add_argument("--exponents", help="comma list of exponents or 'sup'")
    co.add_argument("--dgrid", help="geometric:lo:hi or comma list")
    co.add_argument("--contour", action="store_true", default=None)
    co.add_argument("--sup", action="store_true", default=None)
    co.add_argument("--p", type=float)
    co.add_argument("--range")
    co.add_argument("--resolution", type=int)
    co.add_argument("--radius", action="store_true", default=None)
    co.add_argument("--d", type=int)
    co.set_defaults(handler=_cmd_consistency)

    pe = sub.add_parser("demo-pe", help="max-combination power comparison")
    _add_common(pe)
    pe.add_argument("--d", type=int)
    pe.add_argument("--alpha2", type=float)
    pe.add_argument("--alpha-inf", type=float, dest="alpha_inf")
    pe.add_argument("--seed", type=int)
    pe.add_argument("--reps", type=int)
    pe.add_argument("--calib-reps", type=int, dest="calib_reps")
    pe.add_argument("--calib-seed", type=int, dest="calib_seed")
    pe.set_defaults(handler=_cmd_demo_pe)

    en = sub.add_parser("demo-enhance", help="one-coordinate power enhancement")
    _add_common(en)
    en.add_argument("--d", type=int)
    en.add_argument("--alpha", type=float)
    en.add_argument("--base", help="p=<x>, sup, or never")
    en.add_argument("--seed", type=int)
    en.add_argument("--reps", type=int)
    en.add_argument("--calib-reps", type=int, dest="calib_reps")
    en.add_argument("--calib-seed", type=int, dest="calib_seed")
    en.set_defaults(handler=_cmd_demo_enhance)

    rd = sub.add_parser("reduce", help="regression-to-sequence-model reduction")
    _add_common(rd)
    rd.add_argument("--design", help="whitespace-delimited n x d matrix file")
    rd.add_argument("--response", help="whitespace-delimited n-vector file")
    rd.add_argument("--out")
    rd.set_defaults(handler=_cmd_reduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, DomainError, OSError) as exc:
        # an unwritable output path is a configuration error too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CalibrationError, NumericError, RankError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except PnormLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
