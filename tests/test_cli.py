import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pnormlab
from pnormlab import cli, engine, mc
from pnormlab.cli import main
from pnormlab.engine import (
    EnhancedTest,
    build_combined,
    build_minimax_adaptive,
    geometric_budget,
    load_test,
    mc_calibrate,
    mc_scale_minimax,
    member_exponents,
    save_test,
)
from pnormlab.errors import ConfigError
from pnormlab.mc import MonteCarloPlan
from pnormlab.norms import parse_exponent
from pnormlab.power import enhancement_demo
from pnormlab.report import fmt, numpy_dispatch, read_kv, sha256_file


def run(argv):
    return main([str(a) for a in argv])


def count_draws(monkeypatch):
    """Record every null-statistics draw: a suite's or a calibrator's, both in the engine."""
    calls = []
    monkeypatch.setattr(engine, "simulate_null_statistics",
                        lambda *args, **kwargs: calls.append(args))
    return calls


def least_replications(level):
    """The least n with ``level * n >= 10``, the plan a level-``level`` tail needs."""
    n = max(1, int(10 / level) - 2)
    while level * n < 10:
        n += 1
    return n


def linear_preset_level(d, alpha=0.05):
    """The smallest member level of the linear preset under the default budget."""
    m, _ = member_exponents(d, "linear")
    return min(geometric_budget(m, alpha).alphas)


# option values: text, floats, and integers far beyond the float range
_ARG_VALUE = st.one_of(
    st.text(max_size=8),
    st.integers(min_value=-10**6, max_value=10**6).map(str),
    st.integers(min_value=300, max_value=450).map(lambda n: str(10**n)),
    st.floats().map(repr),
    st.sampled_from(["sup", "inf", "nan", "1e400", "5e-324", "0", "1", "3"]),
)

# trace options: stock families, grids up to and past float range, exponents
_D_VALUE = st.one_of(
    st.integers(min_value=1, max_value=10**300).map(str),
    st.sampled_from(["1e3", "1e300", "1e308", "1e309"]),
    _ARG_VALUE,
)
_TRACE_OPTIONS = {
    "--family": st.one_of(
        st.sampled_from(["dense", "sparse", "dagger", "semi-sparse"]),
        _ARG_VALUE.map(lambda v: "power-sparse:" + v),
        _ARG_VALUE,
    ),
    "--dgrid": st.one_of(
        st.tuples(_D_VALUE, _D_VALUE).map(lambda t: "geometric:" + ":".join(t)),
        st.lists(_D_VALUE, min_size=1, max_size=4).map(",".join),
    ),
    "--exponents": st.lists(
        st.one_of(st.sampled_from(["2", "3", "sup", "0.5", "p=2"]), _ARG_VALUE),
        min_size=1, max_size=3,
    ).map(",".join),
}
# contour options; a few points per axis keep each example cheap
_CONTOUR_OPTIONS = {
    "--p": st.one_of(st.sampled_from(["1", "3", "sup", "p=2", "0.5"]), _ARG_VALUE),
    "--range": st.one_of(st.tuples(_ARG_VALUE, _ARG_VALUE).map(":".join), _ARG_VALUE),
    "--resolution": st.integers(min_value=-2, max_value=12).map(str),
}


def exit_code_in_fresh_outdir(command, options):
    """The exit code of ``command`` with the given ``--flag=value`` options
    (a None value leaves its flag out), argparse's included."""
    argv = [command] + [f"{flag}={value}" for flag, value in options.items()
                        if value is not None]
    with tempfile.TemporaryDirectory() as outdir:
        try:
            return main(argv + ["--outdir", outdir])
        except SystemExit as exc:
            return exc.code


class TestExitCodes:
    def test_missing_required_option(self, capsys):
        assert run(["calibrate", "--test", "p=2", "--alpha", "0.05", "--asymptotic"]) == 2
        assert "missing required option" in capsys.readouterr().err

    def test_chunk_size_is_not_an_option(self, tmp_path):
        # every plan draws fixed 128-row chunks
        with pytest.raises(SystemExit) as exc:
            run(["power", "--d", "100", "--chunk-size", "64", "--outdir", tmp_path])
        assert exc.value.code == 2

    def test_sup_is_not_a_flag(self, tmp_path):
        # the sup surface is --p sup, as in every other subcommand
        with pytest.raises(SystemExit) as exc:
            run(["contour", "--sup", "--outdir", tmp_path])
        assert exc.value.code == 2

    def test_unknown_family(self, tmp_path):
        assert (
            run(["consistency", "--family", "weird", "--outdir", tmp_path]) == 2
        )

    # each case is otherwise complete, so the named defect is what it hits
    @pytest.mark.parametrize("argv", [
        ["power", "--d", "100", "--tests", "p=2", "--calib-reps", "2000",
         "--reps", "200", "--agrid", "1:2"],
        ["power", "--d", "100", "--tests", "p=2", "--calib-reps", "2000",
         "--reps", "200", "--agrid", "0:1:0"],
        ["contour", "--p", "2", "--range", "5"],
        ["consistency", "--family", "dense", "--dgrid", "geometric:1e3"],
        ["consistency", "--family", "power-sparse:abc", "--dgrid", "1000,2000"],
        ["calibrate", "--d", "100", "--test", "p=2", "--asymptotic",
         "--out", "{tmp}/missing/x.txt"],
        ["power", "--d", "100", "--tests", "p=2", "--calib-reps", "2000",
         "--reps", "200", "--agrid", "0:1:2", "--artifact", "{tmp}/missing.txt"],
        ["power", "--d", "100", "--tests", "p=2", "--calib-reps", "2000",
         "--reps", "200", "--agrid", "0:nan:3"],
        ["contour", "--p", "2", "--range", "0:inf"],
        ["power", "--d", "100", "--tests", "p=2", "--calib-reps", "2000",
         "--reps", "200", "--agrid", "0:1:10001"],
        ["contour", "--p", "2", "--resolution", "1002"],
        # a grid bound past float range
        ["consistency", "--family", "dagger", "--dgrid", "geometric:1e3:1e309"],
        ["power", "--d", "100", "--tests", "p=2", "--calib-reps", "2000",
         "--reps", "200", "--agrid", "0:1:2", "--workers", "0"],
        ["power", "--d", "100", "--tests", ","],
        ["radius", "--p", "sup", "--d", "100"],
        # a threshold from 5 draws, or from the 2 draws above it
        ["calibrate", "--test", "minimax", "--d", "100", "--reps", "5"],
        ["calibrate", "--test", "minimax", "--d", "100", "--reps", "2000", "--alpha", "0.001"],
        ["power", "--d", "100", "--tests", "p=2,p=2", "--calib-reps", "2000",
         "--reps", "200", "--agrid", "0:1:2"],
        # the preset runs its own tests and families
        ["power", "--figure3", "--tests", "p=2"],
        ["power", "--figure3", "--family", "sparse"],
        # a --scale preset is a --figure3 preset
        ["power", "--d", "100", "--tests", "p=2", "--scale", "paper", "--calib-reps", "2000",
         "--reps", "100", "--agrid", "0:1:2"],
        ["power", "--d", "100", "--tests", "p=2,bogus", "--calib-reps", "2000",
         "--reps", "200", "--agrid", "0:1:2"],
        ["demo-enhance", "--d", "100", "--base", "bogus", "--calib-reps", "2000",
         "--reps", "200"],
        # the semi-sparse signal needs d >= 16
        ["demo-pe", "--d", "10", "--calib-reps", "2000", "--reps", "200"],
        ["calibrate", "--d", "100", "--test", "bogus", "--reps", "2000"],
    ], ids=["agrid", "agrid-empty", "range", "dgrid", "power-sparse", "out-dir", "artifact",
            "agrid-nan", "range-inf", "agrid-points", "resolution", "dgrid-overflow",
            "workers-zero", "tests-empty", "radius-sup", "minimax-reps", "minimax-tail",
            "tests-twice", "figure3-tests", "figure3-family", "scale-without-figure3",
            "tests-bogus", "base-bogus", "demo-pe-small-d", "calibrate-test-bogus"])
    def test_malformed_input_exits_two(self, tmp_path, capsys, argv):
        argv = [a.format(tmp=tmp_path) for a in argv]
        if argv[0] in cli._OPTIONS["outdir"].commands.split():
            argv += ["--outdir", tmp_path / "out"]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        # a refused run writes nothing, not even its output directory
        assert not (tmp_path / "out").exists()

    # a subcommand takes only the options it reads: calibrate and reduce
    # write where --out says, contour and reduce draw nothing and take no
    # --workers, calibrate names its test with --test, and consistency,
    # contour and radius refuse one another's flags
    @pytest.mark.parametrize("argv", [
        ["calibrate", "--asymptotic", "--test", "p=2", "--d", "100", "--out", "{tmp}/a.txt",
         "--outdir", "{tmp}/D"],
        ["reduce", "--design", "{tmp}/X.txt", "--response", "{tmp}/z.txt",
         "--out", "{tmp}/a.txt", "--outdir", "{tmp}/D"],
        ["reduce", "--design", "{tmp}/X.txt", "--response", "{tmp}/z.txt",
         "--out", "{tmp}/a.txt", "--workers", "2"],
        ["contour", "--p", "2", "--outdir", "{tmp}/D", "--workers", "2"],
        ["calibrate", "--asymptotic", "--p", "2", "--d", "100", "--out", "{tmp}/a.txt"],
        ["contour", "--p", "2", "--d", "100", "--outdir", "{tmp}/D"],
        ["contour", "--p", "2", "--family", "dense", "--dgrid", "1,2", "--outdir", "{tmp}/D"],
        ["radius", "--p", "2", "--d", "100", "--family", "dense"],
        ["consistency", "--family", "dense", "--dgrid", "1000,2000", "--d", "100",
         "--outdir", "{tmp}/D"],
        ["consistency", "--family", "dense", "--dgrid", "1000,2000", "--p", "2",
         "--outdir", "{tmp}/D"],
    ], ids=["calibrate-outdir", "reduce-outdir", "reduce-workers", "contour-workers",
            "calibrate-p", "radius-and-contour", "contour-trace-flags", "radius-trace-flag",
            "trace-radius-flag", "trace-contour-flag"])
    def test_ignored_options_are_refused(self, tmp_path, rng, argv):
        np.savetxt(tmp_path / "X.txt", rng.normal(size=(5, 2)))
        np.savetxt(tmp_path / "z.txt", rng.normal(size=5))
        with pytest.raises(SystemExit) as exc:
            run([a.format(tmp=tmp_path) for a in argv])
        assert exc.value.code == 2
        assert sorted(os.listdir(tmp_path)) == ["X.txt", "z.txt"]

    @pytest.mark.parametrize("command", [["calibrate", "--asymptotic", "--test", "p=2"],
                                         ["radius", "--p", "2"]])
    def test_overflowing_dimension_exits_three(self, capsys, command):
        assert run(command + ["--d", "1" + "0" * 400]) == 3
        assert capsys.readouterr().err.startswith("numeric error: ")

    # these two commands and the trace and contour commands (next tests)
    # start no simulation and allocate nothing that grows with d, so any argv
    # is cheap to run
    @settings(max_examples=300, deadline=None)
    @example(argv=["calibrate", "--asymptotic", "--test", "sup", "--d", "1000",
                   "--alpha", "5e-324"])
    @given(argv=st.sampled_from([
        (["calibrate", "--asymptotic"], ["--test", "--d", "--alpha"]),
        (["radius"], ["--p", "--d"]),
    ]).flatmap(lambda command: st.lists(
        st.tuples(st.sampled_from(command[1]), _ARG_VALUE), max_size=4,
    ).map(lambda pairs: command[0] + [x for pair in pairs for x in pair])))
    def test_scalar_commands_exit_with_a_documented_code(self, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
        assert code in (0, 2, 3)

    @settings(max_examples=200, deadline=None)
    @given(options=st.fixed_dictionaries({
        flag: st.none() | values for flag, values in _TRACE_OPTIONS.items()
    }))
    def test_trace_command_exits_with_a_documented_code(self, options):
        assert exit_code_in_fresh_outdir("consistency", options) in (0, 2, 3)

    @settings(max_examples=200, deadline=None)
    @given(options=st.fixed_dictionaries({
        flag: st.none() | values for flag, values in _CONTOUR_OPTIONS.items()
    }))
    def test_contour_command_exits_with_a_documented_code(self, options):
        assert exit_code_in_fresh_outdir("contour", options) in (0, 2, 3)

    def test_numeric_failure(self, capsys):
        code = run(
            ["calibrate", "--test", "p=2", "--d", "1", "--alpha", "0.9999", "--asymptotic"]
        )
        assert code == 3
        assert "numeric error" in capsys.readouterr().err

    def test_overflowing_critical_value_names_its_exponent(self, capsys):
        code = run(["calibrate", "--test", "p=1e-5", "--d", "10", "--asymptotic"])
        assert code == 3
        assert "overflows at p=1e-05, d=10" in capsys.readouterr().err


class TestCalibrate:
    def test_asymptotic_prints_formula_value(self, capsys):
        assert run(["calibrate", "--test", "p=2", "--d", "100", "--alpha", "0.05",
                    "--asymptotic"]) == 0
        out = capsys.readouterr().out
        assert "kappa = 11.10233052" in out

    def test_monte_carlo_artifact_round_trip(self, tmp_path):
        out = tmp_path / "p2.txt"
        code = run([
            "calibrate", "--test", "p=2", "--d", "200", "--alpha", "0.05",
            "--reps", "5000", "--seed", "3", "--out", out,
        ])
        assert code == 0
        test = load_test(out)
        assert test.d == 200 and test.alpha == 0.05
        assert (tmp_path / "p2.txt.manifest").exists()

    @pytest.mark.parametrize("key, edit, refusal", [
        ("alphas", lambda v: ",".join(v.split(",")[-2::-1] + v.split(",")[-1:]),
         "member 0 has"),
        ("budget_generator", lambda v: "custom",
         "budget_generator = custom where the other lines give 'geometric'"),
    ], ids=["head-alphas-reversed", "generator-custom"])
    def test_combined_artifact_whose_budget_lines_disagree_exits_two(
        self, tmp_path, key, edit, refusal
    ):
        art = tmp_path / "comb.txt"
        assert run(["calibrate", "--d", 300, "--test", "combined", "--reps", 4000,
                    "--out", art]) == 0
        lines = art.read_text().splitlines()
        art.write_text("".join(
            f"{k} = {edit(v) if k == key else v}\n" for k, v in (x.split(" = ", 1) for x in lines)
        ))
        with pytest.raises(ConfigError, match=refusal):
            load_test(art)
        assert run(["power", "--d", 300, "--tests", "sup", "--artifact", art, "--calib-reps",
                    2000, "--reps", 200, "--agrid", "0:1:2", "--outdir", tmp_path / "pw"]) == 2
        assert not (tmp_path / "pw").exists()

    @pytest.mark.parametrize("key, edit, refusal", [
        ("alphas", lambda v: ",".join(v.split(",")[1::-1] + v.split(",")[2:]),
         "artifact value out of range: alphas are not the geometric allocation"),
        ("budget_last_share", lambda v: None,
         "artifact value out of range: a geometric budget needs both"),
        ("kappas", lambda v: v.rsplit(",", 1)[0],
         "artifact value out of range: 3 exponents, 3 alphas and 2 kappas"),
        ("kappas", lambda v: "1,abc", "artifact has a malformed value"),
    ] + [("exponents", lambda v, bad=bad: bad,
          "artifact value out of range: exponents must be strictly increasing finite positive")
         for bad in ("2,1,4", "2,2,4", "-2,2,4")],
        ids=["alphas-swapped", "no-last-share", "kappa-dropped", "kappas-unparsable",
             "exponents-swapped", "exponents-repeated", "exponent-negative"])
    def test_combined_artifact_refusal_names_its_kind(
        self, tmp_path, capsys, monkeypatch, key, edit, refusal
    ):
        # a line that parses to a value the test's constructor refuses is out
        # of range; only a line that does not parse is malformed.  Either is
        # refused before the calibration plan is drawn
        art = tmp_path / "comb.txt"
        save_test(build_combined(60, (1.0, 2.0, 4.0), geometric_budget(3, 0.05),
                                 MonteCarloPlan(2000, 44)), art)
        lines = (x.split(" = ", 1) for x in art.read_text().splitlines())
        edited = ((k, edit(v) if k == key else v) for k, v in lines)
        art.write_text("".join(f"{k} = {v}\n" for k, v in edited if v is not None))
        capsys.readouterr()
        drawn = []
        monkeypatch.setattr(mc, "draw", lambda rng, out: drawn.append(out.shape))
        assert run(["power", "--d", 60, "--tests", "sup", "--artifact", art, "--calib-reps",
                    2000, "--reps", 200, "--agrid", "0:1:2", "--outdir", tmp_path / "pw"]) == 2
        assert refusal in capsys.readouterr().err
        assert drawn == [] and not (tmp_path / "pw").exists()

    def test_combined_preset(self, tmp_path, capsys):
        out = tmp_path / "combined.txt"
        code = run([
            "calibrate", "--test", "combined", "--preset", "exp", "--d", "500", "--alpha", "0.05",
            "--reps", "5000", "--seed", "3", "--out", out,
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "scale =" in text
        test = load_test(out)
        assert test.alpha == pytest.approx(0.05)
        assert 0.0 < test.scale <= 1.0

    @pytest.mark.filterwarnings("ignore::pnormlab.engine.CalibrationWarning")
    def test_minimax_prints_its_kappas_and_threshold(self, capsys):
        assert run(["calibrate", "--d", "100", "--test", "minimax", "--reps", "2000"]) == 0
        test = mc_scale_minimax(build_minimax_adaptive(100, 5.0, 8), 0.05,
                                MonteCarloPlan(2000, 20_240_501))
        lines = capsys.readouterr().out.splitlines()
        want = [f"kappa[{j}] = {k:.10g}" for j, k in enumerate(test.kappas, start=1)]
        assert lines[1:] == want + [f"threshold = {test.threshold:.10g}"]

    def test_no_mode_exits_two_before_drawing(self, tmp_path, monkeypatch, capsys):
        calls = count_draws(monkeypatch)
        out = tmp_path / "t.txt"
        assert run(["calibrate", "--d", "100", "--reps", "2000", "--out", out]) == 2
        assert "missing required option --test" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    @pytest.mark.filterwarnings("ignore::pnormlab.engine.CalibrationWarning")
    @pytest.mark.parametrize("config, argv", [
        ("", ["--test", "p=2"]),
        ("", ["--test", "combined", "--preset", "exp"]),
        ("budget-success = 0.3\n", ["--test", "combined"]),
        ("", ["--test", "minimax"]),
        ("", ["--test", "sup"]),
        ("test = p=2\n", []),
    ], ids=["p2", "exp", "exp-config", "minimax", "sup", "config-test"])
    def test_artifacts_equal_direct_calibrations(self, tmp_path, config, argv):
        d, alpha, plan = 200, 0.05, MonteCarloPlan(4000, 20_240_501)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "cli.txt"
        assert run(["calibrate", "--d", d, "--reps", 4000, "--config", cfg, "--out", out]
                   + argv) == 0
        name = argv[1] if argv else "p=2"
        if name in ("p=2", "sup"):
            test = mc_calibrate(parse_exponent(name), d, alpha, plan)
        elif name == "combined":
            m, exps = member_exponents(d, "exp")
            success = 0.3 if config else 0.5
            test = build_combined(d, exps, geometric_budget(m, alpha, success, 0.5), plan)
        else:
            test = mc_scale_minimax(build_minimax_adaptive(d, 5.0, 8), alpha, plan)
        save_test(test, tmp_path / "direct.txt")
        assert out.read_bytes() == (tmp_path / "direct.txt").read_bytes()

    def test_too_small_plan_names_the_least_replications(self, tmp_path, capsys):
        # ten linear members at d = 16 halve the level down to 4.9e-5
        assert run(["calibrate", "--d", "16", "--test", "combined", "--preset", "linear"]) == 2
        least = least_replications(linear_preset_level(16))
        assert least == 204_400
        assert f"at least {least} replications" in capsys.readouterr().err

    # --asymptotic gives the analytic critical value of one exponent
    @pytest.mark.parametrize("config, argv", [
        ("", ["--asymptotic", "--test", "minimax"]),
        ("", ["--asymptotic", "--test", "combined", "--preset", "exp"]),
        ("test = minimax\nasymptotic = yes\n", []),
    ], ids=["asymptotic-minimax", "asymptotic-preset", "config-only"])
    def test_conflicting_modes_exit_two_before_simulating(
        self, tmp_path, monkeypatch, capsys, config, argv
    ):
        calls = count_draws(monkeypatch)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d = 100\nreps = 2000\n" + config)
        out = tmp_path / "t.txt"
        assert run(["calibrate", "--config", cfg, "--out", out] + argv) == 2
        assert "--asymptotic needs a single-exponent --test" in capsys.readouterr().err
        assert calls == [] and not out.exists()


class TestPower:
    def test_outputs_and_determinism(self, tmp_path):
        args = [
            "power", "--d", "300", "--family", "sparse", "--tests", "p=2,sup",
            "--reps", "1000", "--calib-reps", "4000", "--agrid", "0:6:7",
            "--outdir", tmp_path / "run1",
        ]
        assert run(args) == 0
        args[-1] = tmp_path / "run2"
        assert run(args) == 0
        csv1 = (tmp_path / "run1" / "power_sparse.csv").read_bytes()
        csv2 = (tmp_path / "run2" / "power_sparse.csv").read_bytes()
        assert csv1 == csv2
        assert (tmp_path / "run1" / "power_sparse.svg").exists()
        man = (tmp_path / "run1" / "power_manifest.txt").read_text()
        assert "config.d = 300" in man and "sha256" in man
        # the manifest sits in the output directory and does not name it
        assert "outdir" not in man
        assert (tmp_path / "run1" / "power_manifest.txt").read_bytes() == (
            tmp_path / "run2" / "power_manifest.txt"
        ).read_bytes()

    def test_worker_flag_never_changes_outputs(self, tmp_path):
        base = [
            "power", "--d", "200", "--family", "dense", "--tests", "p=2",
            "--reps", "1000", "--calib-reps", "4000", "--agrid", "0:0.5:5",
        ]
        assert run(base + ["--outdir", tmp_path / "w1", "--workers", "1"]) == 0
        assert run(base + ["--outdir", tmp_path / "w8", "--workers", "8"]) == 0
        assert (tmp_path / "w1" / "power_dense.csv").read_bytes() == (
            tmp_path / "w8" / "power_dense.csv"
        ).read_bytes()

    def test_artifact_dimension_guard(self, tmp_path):
        art = tmp_path / "a.txt"
        assert run([
            "calibrate", "--test", "p=2", "--d", "100", "--alpha", "0.05",
            "--reps", "2000", "--seed", "1", "--out", art,
        ]) == 0
        code = run([
            "power", "--d", "150", "--family", "dense", "--tests", "p=2",
            "--reps", "1000", "--calib-reps", "2000", "--agrid", "0:1:3",
            "--artifact", art, "--outdir", tmp_path / "out",
        ])
        assert code == 2

    def test_artifact_label_taken(self, tmp_path):
        art = tmp_path / "a.txt"
        assert run(["calibrate", "--test", "p=2", "--d", "100", "--asymptotic", "--out", art]) == 0
        assert run([
            "power", "--d", "100", "--tests", "p=2", "--calib-reps", "2000",
            "--reps", "200", "--agrid", "0:1:2", "--artifact", art,
            "--outdir", tmp_path / "out",
        ]) == 2

    def test_config_scale_is_ignored_without_figure3(self, tmp_path):
        # as --figure3 ignores a tests or family key, a plain run ignores scale
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scale = paper\n")
        assert run(["power", "--config", cfg, "--d", "100", "--tests", "p=2",
                    "--calib-reps", "2000", "--reps", "100", "--agrid", "0:1:2",
                    "--outdir", tmp_path]) == 0
        manifest = (tmp_path / "power_manifest.txt").read_text()
        assert "config.d = 100" in manifest and "config.scale" not in manifest

    def test_too_small_plan_is_refused_before_the_draw(self, tmp_path, monkeypatch, capsys):
        calls = count_draws(monkeypatch)
        assert run(["power", "--d", "16", "--tests", "combined", "--preset", "linear",
                    "--calib-reps", "20000", "--outdir", tmp_path]) == 2
        least = least_replications(linear_preset_level(16))
        assert f"at least {least} replications" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("agrid", ["1:0:3", "0:0:2", "-1:1:3"],
                             ids=["decreasing", "repeated", "negative"])
    def test_bad_grid_is_refused_before_the_draw(self, tmp_path, monkeypatch, capsys, agrid):
        calls = count_draws(monkeypatch)
        assert run(["power", "--d", "500", "--tests", "p=2,sup", "--calib-reps", "4000",
                    f"--agrid={agrid}", "--outdir", tmp_path / "out"]) == 2
        assert "a_grid must be" in capsys.readouterr().err
        assert calls == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["--d", "2", "--family", "dagger", "--tests", "p=2", "--calib-reps", "2000",
         "--reps", "200", "--agrid", "0:1:2"],
        ["--figure3", "--d", "10"],
    ], ids=["dagger", "figure3"])
    def test_family_floor_is_refused_before_the_draw(self, tmp_path, monkeypatch, capsys, argv):
        calls = count_draws(monkeypatch)
        assert run(["power", *argv, "--outdir", tmp_path / "out"]) == 2
        assert "requires d >= 16" in capsys.readouterr().err
        assert calls == [] and not (tmp_path / "out").exists()

    def test_figure3_keeps_config_keys(self, tmp_path, monkeypatch):
        # one config file can serve both modes: --figure3 ignores its tests
        # and family, and gets as far as calibrating the preset's own suite
        class Calibrating(Exception):
            pass

        def calibrating(names, *args):
            raise Calibrating(names)

        monkeypatch.setattr(cli, "_build_test_suite", calibrating)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tests = p=2\nfamily = sparse\n")
        with pytest.raises(Calibrating) as exc:
            run(["power", "--figure3", "--config", cfg, "--outdir", tmp_path])
        assert tuple(exc.value.args[0]) == cli._TEST_MENU


class TestSharedCalibration:
    """``power`` calibrates its whole suite on one null sample of the plan."""

    @pytest.mark.filterwarnings("ignore::pnormlab.engine.CalibrationWarning")
    def test_suite_equals_separate_calibrations(self):
        d, alpha = 200, 0.05
        plan = MonteCarloPlan(replications=4000, seed=5)
        res = cli._Resolver(cli.build_parser().parse_args(["power", "--d", str(d)]))
        got = cli._build_test_suite(list(cli._TEST_MENU), d, alpha, plan, res, 1)
        m, exps = member_exponents(d, "exp")
        expected = [
            mc_calibrate(parse_exponent(p), d, alpha, plan)
            for p in ("1", "2", "3", "4", "sup")
        ] + [
            build_combined(d, exps, geometric_budget(m, alpha), plan),
            mc_scale_minimax(build_minimax_adaptive(d, 5.0, 8), alpha, plan),
        ]
        assert got == expected

    @pytest.mark.filterwarnings("ignore::pnormlab.engine.CalibrationWarning")
    def test_figure3_simulates_the_calibration_plan_once(self, tmp_path, monkeypatch):
        calls = []
        simulate = engine.simulate_null_statistics

        def counting(*args, **kwargs):
            calls.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(engine, "simulate_null_statistics", counting)
        assert run([
            "power", "--figure3", "--d", "200", "--calib-reps", "4000",
            "--reps", "200", "--agrid", "0:1:3", "--outdir", tmp_path,
        ]) == 0
        assert len(calls) == 1
        res = cli._Resolver(cli.build_parser().parse_args(["power"]))
        plan = MonteCarloPlan(replications=4000, seed=1)
        assert cli._build_test_suite([], 200, 0.05, plan, res, 1) == []
        assert len(calls) == 1

    def test_power_reads_no_budget_keys(self, tmp_path):
        # budget-* are calibrate options: a power run keeps the default budget
        # and records neither key, though one config file serves both
        cfg = tmp_path / "run.cfg"
        cfg.write_text("budget-success = 0.3\nbudget-last-share = 0.4\n")
        d, alpha, plan = 200, 0.05, MonteCarloPlan(4000, 20_240_501)
        res = cli._Resolver(cli.build_parser().parse_args(["power", "--config", str(cfg)]))
        (test,) = cli._build_test_suite(["combined"], d, alpha, plan, res, 1)
        m, _ = member_exponents(d, "exp")
        assert test.budget.alphas == geometric_budget(m, alpha).alphas
        assert run(["power", "--config", cfg, "--d", d, "--tests", "combined",
                    "--calib-reps", 4000, "--reps", 100, "--agrid", "0:1:2",
                    "--outdir", tmp_path]) == 0
        assert "budget-" not in (tmp_path / "power_manifest.txt").read_text()

    @pytest.mark.parametrize("tests, artifact", [("p=2,2", False), ("p=2,p=2", False),
                                                 ("p=2", True)])
    def test_repeated_label_is_refused_before_calibration(
        self, tmp_path, monkeypatch, capsys, tests, artifact
    ):
        art = tmp_path / "a.txt"
        assert run(["calibrate", "--asymptotic", "--test", "p=2", "--d", "300", "--out", art]) == 0
        calls = []
        simulate = engine.simulate_null_statistics

        def counting(*args, **kwargs):
            calls.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(engine, "simulate_null_statistics", counting)
        argv = ["power", "--d", "300", "--tests", tests, "--calib-reps", "2000",
                "--reps", "200", "--outdir", tmp_path / "out"]
        assert run(argv + (["--artifact", art] if artifact else [])) == 2
        assert "distinct labels" in capsys.readouterr().err
        assert len(calls) == 0


# every value a parser returns is finite; everything else is a ConfigError
_NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.integers(min_value=-10**6, max_value=10**6).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e309", ""]),
    st.text(max_size=4),
)
_SPEC_TEXT = st.one_of(
    st.text(),
    st.lists(_NUMBER_TEXT, min_size=1, max_size=4).map(",".join),
    st.tuples(_NUMBER_TEXT, _NUMBER_TEXT).map(":".join),
    st.tuples(_NUMBER_TEXT, _NUMBER_TEXT,
              st.integers(min_value=-2, max_value=64).map(str)).map(":".join),
    st.tuples(_NUMBER_TEXT, _NUMBER_TEXT).map(lambda t: "geometric:" + ":".join(t)),
)


class TestOptionParsers:
    @pytest.mark.parametrize("parser", [cli._parse_agrid, cli._parse_dgrid,
                                        cli._parse_range])
    @settings(max_examples=300, deadline=None)
    @given(spec=_SPEC_TEXT)
    def test_finite_values_or_config_error(self, parser, spec):
        try:
            values = parser(spec)
        except ConfigError:
            return
        assert values is None or all(math.isfinite(v) for v in values)


class TestConsistency:
    def test_radius(self, capsys):
        assert run(["radius", "--p", "2", "--d", "10000"]) == 0
        assert "radius = 10" in capsys.readouterr().out

    def test_radius_creates_no_outdir(self, tmp_path):
        # it writes nothing, so it takes no --outdir
        outdir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(["radius", "--p", "2", "--d", "10000", "--outdir", outdir])
        assert exc.value.code == 2
        assert not outdir.exists()

    def test_traces(self, tmp_path, capsys):
        code = run([
            "consistency", "--family", "dagger", "--exponents", "2,3",
            "--dgrid", "geometric:1e3:1e5", "--outdir", tmp_path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "slope =" in out
        csv = (tmp_path / "trace_semi_sparse_p2.csv").read_text()
        assert csv.splitlines()[0] == "d,value"

    @pytest.mark.parametrize("exponents", ["2,2", "2,3,2.0", "sup,inf", "3.0000001,3.0000002"])
    def test_repeated_exponent_is_refused_before_any_trace(self, tmp_path, capsys, exponents):
        # one trace file and one manifest key per label: two exponents that
        # print as p=3 would write one file twice
        assert run([
            "consistency", "--family", "dagger", "--exponents", exponents,
            "--dgrid", "geometric:1e3:1e5", "--outdir", tmp_path,
        ]) == 2
        assert "repeats an exponent" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_huge_exponent_names_a_short_file(self, tmp_path):
        assert run(["consistency", "--family", "dense", "--exponents", "1e308",
                    "--dgrid", "1000,2000", "--outdir", tmp_path]) == 0
        assert run(["contour", "--p", "1e308", "--resolution", "3", "--outdir", tmp_path]) == 0
        assert (tmp_path / "trace_dense_p1e+308.csv").exists()
        assert (tmp_path / "contour_p1e+308.csv").exists()

    def test_traces_reach_1e300(self, tmp_path):
        assert run([
            "consistency", "--family", "dagger", "--exponents", "2,3,sup",
            "--dgrid", "geometric:1e3:1e300", "--outdir", tmp_path,
        ]) == 0
        for label in ("p2", "p3", "sup"):
            lines = (tmp_path / f"trace_semi_sparse_{label}.csv").read_text().splitlines()
            # the quarter-decade points in [10**3, 10**300]: "1e300" parses
            # to 10**300 exactly, below the float 1e300's integer value
            assert len(lines) == 1 + 1188
            assert int(lines[-1].split(",")[0]) <= 10**300

    def test_contour(self, tmp_path):
        code = run([
            "contour", "--p", "1", "--resolution", "11",
            "--range=-2:2", "--outdir", tmp_path,
        ])
        assert code == 0
        lines = (tmp_path / "contour_p1.csv").read_text().splitlines()
        assert lines[0] == "x1,x2,value"
        assert len(lines) == 1 + 11 * 11

    def test_sup_contour(self, tmp_path):
        assert run([
            "contour", "--p", "sup", "--resolution", "5",
            "--outdir", tmp_path,
        ]) == 0
        assert (tmp_path / "contour_sup.csv").exists()

    def test_traces_and_contour_share_an_outdir(self, tmp_path):
        # each subcommand writes its own manifest, listing only its own files
        assert run(["consistency", "--family", "dense", "--dgrid", "1000,2000",
                    "--outdir", tmp_path]) == 0
        assert run(["contour", "--p", "2", "--resolution", "3", "--outdir", tmp_path]) == 0
        for manifest, own in (("consistency_manifest.txt", "trace_dense_p2.csv"),
                              ("contour_manifest.txt", "contour_p2.csv")):
            entries = read_kv(tmp_path / manifest)
            assert [k for k in entries if k.startswith("output.")] == [f"output.{own}.sha256"]
            assert entries[f"output.{own}.sha256"] == sha256_file(tmp_path / own)

    @pytest.mark.parametrize("argv, name", [
        (["consistency", "--family", "dagger", "--dgrid", "geometric:1e3:1e5",
          "--exponents", "{p},sup"], "trace_semi_sparse_p2.csv"),
        (["contour", "--p", "{p}", "--resolution", "7"], "contour_p2.csv"),
    ], ids=["traces", "contour"])
    def test_test_name_spelling_of_an_exponent_writes_the_same_bytes(self, tmp_path, argv, name):
        for p in ("2", "p=2"):
            assert run([a.format(p=p) for a in argv] + ["--outdir", tmp_path / p]) == 0
        assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "p=2" / name).read_bytes()


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d = 100\nalpha = 0.05\n# comment\n")
        assert run([
            "calibrate", "--config", cfg, "--test", "p=2", "--asymptotic",
            "--d", "400",
        ]) == 0
        out = capsys.readouterr().out
        assert "d = 400" in out

    def test_config_supplies_missing_values(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d = 100\n")
        assert run(["calibrate", "--config", cfg, "--test", "p=2", "--asymptotic"]) == 0
        assert "kappa = 11.10233052" in capsys.readouterr().out

    @pytest.mark.parametrize("line", ["alpah = 0.5", "calib_reps = 1000", "chunk-size = 64",
                                      "config = other.cfg"],
                             ids=["typo", "underscore", "stale-chunk-size", "nested-config"])
    def test_unknown_key_exits_two(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"d = 100\n{line}\n")
        assert run(["calibrate", "--config", cfg, "--test", "p=2", "--asymptotic"]) == 2
        assert line.split(" = ")[0] in capsys.readouterr().err

    def test_repeated_key_exits_two(self, tmp_path, capsys):
        # a repeated key is refused, not overwritten by its later line
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d = 100\ntest = p=2\n# later\nd = 5000\nasymptotic = true\n")
        assert run(["calibrate", "--config", cfg]) == 2
        assert "key 'd' repeated" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="on lines 1 and 4"):
            read_kv(cfg)

    @pytest.mark.parametrize("lines, want", [
        ("d = 100\ntest = p=2\nasymptotic = yes\n", "kappa = 11.10233052"),
        ("d = 100\ntest = p=2\nasymptotic = off\nreps = 2000\n", None),
        # 10 members at d = 16; a flat budget keeps each level above 10 / reps
        ("d = 16\ntest = combined\npreset = linear\nbudget-success = 0.05\nreps = 5000\n",
         "preset = linear"),
    ], ids=["bool-yes", "bool-off", "choice"])
    def test_config_values_are_cast(self, tmp_path, capsys, lines, want):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines)
        assert run(["calibrate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        if want is None:  # off: a Monte Carlo critical value, not the formula's
            test = mc_calibrate(parse_exponent("2"), 100, 0.05, MonteCarloPlan(2000, 20_240_501))
            want = f"kappa = {test.critical_value:.10g}"
            assert "11.10233052" not in out
        assert want in out

    @pytest.mark.parametrize("line", ["preset = cubic", "d = ten", "asymptotic = maybe"])
    def test_malformed_config_value_exits_two(self, tmp_path, capsys, line):
        # the line replaces its key's valid value: a key given twice is refused
        key, value = line.split(" = ")
        lines = {"test": "combined", "d": "100", key: value}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        assert run(["calibrate", "--config", cfg]) == 2
        assert f"bad value for {key!r}" in capsys.readouterr().err

    def test_malformed_value_the_run_would_not_read_exits_two(self, tmp_path, capsys):
        # every key of the subcommand is cast when the file is read; a key of
        # another subcommand (resolution is contour's) is not checked
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("preset = cubic\nresolution = many\n")
        argv = ["calibrate", "--config", cfg, "--test", "p=2", "--d", "100", "--asymptotic"]
        assert run(argv) == 2
        assert "bad value for 'preset'" in capsys.readouterr().err
        cfg.write_text("resolution = many\n")
        out = tmp_path / "a.txt"
        assert run(argv + ["--out", out]) == 0
        assert "config.resolution" not in read_kv(f"{out}.manifest")

    def test_key_of_another_subcommand_is_valid(self, tmp_path, capsys):
        # one file can serve both calibrate and power
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d = 100\nfamily = dense\n")
        assert run(["calibrate", "--config", cfg, "--test", "p=2", "--asymptotic"]) == 0
        assert "kappa = 11.10233052" in capsys.readouterr().out

    def test_combined_keys_serve_a_single_exponent_calibration(self, tmp_path, capsys):
        # the preset is the combined test's ladder, as under power --tests,
        # so a p=2 calibration neither reads nor records it
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("preset = linear\nmax-power = 4\np = 3\n")
        out = tmp_path / "a.txt"
        assert run(["calibrate", "--config", cfg, "--test", "p=2", "--d", "100",
                    "--asymptotic", "--out", out]) == 0
        assert "kappa = 11.10233052" in capsys.readouterr().out
        manifest = read_kv(f"{out}.manifest")
        assert manifest["config.test"] == "p=2"
        assert not {"config.preset", "config.max-power", "config.p"} & manifest.keys()


class TestSharedReader:
    """Config files and calibration artifacts share one key=value reader."""

    @pytest.mark.parametrize("flag", ["--config", "--artifact"])
    @pytest.mark.parametrize("content", ["schema = pnormlab-test/1\nd 100\n", None],
                             ids=["malformed-line", "missing-file"])
    def test_unreadable_file_is_a_config_error(self, tmp_path, capsys, flag, content):
        path = tmp_path / "in.txt"
        if content is not None:
            path.write_text(content)
        with pytest.raises(ConfigError):
            read_kv(path)
        code = run([
            "power", "--d", "100", "--tests", "p=2", "--calib-reps", "2000",
            "--reps", "200", "--agrid", "0:1:2", flag, path,
            "--outdir", tmp_path / "out",
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_artifact_with_a_repeated_key_exits_two(self, tmp_path, capsys):
        # a repeated critical_value is refused, not overwritten by its later line
        art = tmp_path / "a.txt"
        assert run(["calibrate", "--test", "p=2", "--d", "100", "--asymptotic",
                    "--out", art]) == 0
        art.write_text(art.read_text() + "critical_value = 1e9\n")
        capsys.readouterr()
        code = run(["power", "--d", "100", "--tests", "sup", "--calib-reps", "2000",
                    "--reps", "200", "--agrid", "0:1:2", "--artifact", art,
                    "--outdir", tmp_path / "out"])
        assert code == 2
        assert "key 'critical_value' repeated" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_reads_what_the_manifest_writer_writes(self, tmp_path):
        assert run(["calibrate", "--test", "p=2", "--d", "100", "--asymptotic",
                    "--out", tmp_path / "a.txt"]) == 0
        manifest = read_kv(tmp_path / "a.txt.manifest")
        assert manifest["manifest"] == "pnormlab-run/1"
        assert manifest["config.d"] == "100"
        assert len(manifest["output.a.txt.sha256"]) == 64
        assert manifest["numpy_dispatch"] == numpy_dispatch()
        assert re.fullmatch(r"exp:\S+,log:\S+,power:\S+|unknown", manifest["numpy_dispatch"])

    def test_manifest_bytes_do_not_depend_on_the_output_path(self, tmp_path, rng):
        # nor on where the input files live: inputs are recorded by content
        np.savetxt(tmp_path / "X.txt", rng.normal(size=(5, 2)))
        np.savetxt(tmp_path / "z.txt", rng.normal(size=5))
        for sub in ("one", "two/deeper"):
            where = tmp_path / sub
            where.mkdir(parents=True)
            for name in ("X.txt", "z.txt"):
                (where / name).write_bytes((tmp_path / name).read_bytes())
            assert run(["calibrate", "--test", "p=2", "--d", "100", "--asymptotic",
                        "--out", where / "a.txt"]) == 0
            assert run(["reduce", "--design", where / "X.txt", "--response", where / "z.txt",
                        "--out", where / "theta.txt"]) == 0
            assert run(["power", "--d", "100", "--tests", "sup", "--calib-reps", "2000",
                        "--reps", "200", "--agrid", "0:1:2", "--artifact", where / "a.txt",
                        "--outdir", where]) == 0
        for name, absent in (("a.txt.manifest", b"config.out"),
                             ("theta.txt.manifest", b"config.design"),
                             ("power_manifest.txt", b"config.artifact")):
            manifest = (tmp_path / "one" / name).read_bytes()
            assert absent not in manifest and b"one" not in manifest
            assert manifest == (tmp_path / "two" / "deeper" / name).read_bytes()
        assert b"input.design.sha256" in (tmp_path / "one" / "theta.txt.manifest").read_bytes()
        assert read_kv(tmp_path / "one" / "power_manifest.txt")["input.artifact.sha256"] == (
            sha256_file(tmp_path / "one" / "a.txt"))


class TestDemos:
    def test_demo_enhance(self, tmp_path, capsys):
        code = run([
            "demo-enhance", "--d", "200", "--base", "never",
            "--reps", "2000", "--calib-reps", "2000", "--outdir", tmp_path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "size_inflation_bound" in out
        assert (tmp_path / "enhancement_demo.csv").exists()

    @pytest.mark.parametrize("base", [None, "combined"], ids=["default-base", "combined"])
    def test_demo_enhance_base_is_a_calibrated_test(self, tmp_path, capsys, base):
        d, alpha = 200, 0.05
        calib_plan, plan = MonteCarloPlan(4000, 20_240_501), MonteCarloPlan(500, 20_240_777)
        argv = ["demo-enhance", "--d", d, "--reps", 500, "--calib-reps", 4000,
                "--outdir", tmp_path]
        assert run(argv + (["--base", base] if base else [])) == 0
        if base is None:  # p=2
            test = mc_calibrate(parse_exponent("2"), d, alpha, calib_plan)
        else:
            m, exps = member_exponents(d, "exp")
            test = build_combined(d, exps, geometric_budget(m, alpha), calib_plan)
        want = ["quantity,estimate,stderr"] + [
            f"{name},{fmt(rate)},{fmt(se)}" for name, rate, se in enhancement_demo(test, plan)
        ]
        assert (tmp_path / "enhancement_demo.csv").read_text().splitlines() == want
        enhanced = EnhancedTest(test)
        assert capsys.readouterr().out.splitlines()[-2:] == [
            f"spike_tail_exact = {enhanced.spike_power:.6g}",
            f"size_inflation_bound = {enhanced.spike_size:.6g}",
        ]

    def test_demo_pe_too_small_plan_is_refused_before_the_draw(
        self, tmp_path, monkeypatch, capsys
    ):
        # the combined test's deepest member level at d = 2000 is 0.00357
        calls = count_draws(monkeypatch)
        assert run(["demo-pe", "--d", 2000, "--reps", 200, "--calib-reps", 2000,
                    "--outdir", tmp_path / "out"]) == 2
        assert "at least 2800 replications" in capsys.readouterr().err
        assert calls == [] and not (tmp_path / "out").exists()

    def test_demo_pe_small(self, tmp_path, capsys):
        code = run([
            "demo-pe", "--d", "500", "--alpha2", "0.025", "--alpha-inf", "0.025",
            "--reps", "1000", "--calib-reps", "4000", "--outdir", tmp_path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "max-comb" in out
        assert (tmp_path / "pe_demo.csv").exists()


class TestReduce:
    def test_round_trip_against_direct_computation(self, tmp_path, rng):
        n, d = 12, 3
        X = rng.normal(size=(n, d))
        z = rng.normal(size=n)
        xf, zf, out = tmp_path / "X.txt", tmp_path / "z.txt", tmp_path / "theta.txt"
        np.savetxt(xf, X)
        np.savetxt(zf, z)
        assert run(["reduce", "--design", xf, "--response", zf, "--out", out]) == 0
        got = np.loadtxt(out)
        w, v = np.linalg.eigh(X.T @ X)
        expected = v @ ((v.T @ (X.T @ z)) / np.sqrt(w))
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_unreadable_input(self, tmp_path):
        assert run([
            "reduce", "--design", tmp_path / "nope.txt",
            "--response", tmp_path / "nope.txt", "--out", tmp_path / "o.txt",
        ]) == 2


class TestFigure3Preset:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_desk_preset_smoke(self, tmp_path):
        # reduced replication counts keep the smoke test fast; the preset
        # still runs all seven tests over the three stock families
        code = run([
            "power", "--figure3", "--scale", "desk", "--d", "400",
            "--calib-reps", "4000", "--reps", "400", "--outdir", tmp_path,
        ])
        assert code == 0
        for stem in ("dense", "semi-sparse", "sparse"):
            assert (tmp_path / f"power_{stem}.csv").exists()
            assert (tmp_path / f"power_{stem}.svg").exists()
        text = (tmp_path / "power_dense.csv").read_text()
        for label in ("p=1", "p=4", "sup", "combined", "minimax"):
            assert label in text


_ABOVE_X86_V3 = "X86_V4 AVX512_ICL AVX512_SPR"


def _calibrate_in_subprocess(out, disabled):
    """A non-integer-exponent calibration run through ``python -m pnormlab.cli`` in
    a fresh interpreter, with the numpy CPU features ``disabled`` turned off;
    returns its artifact and its manifest."""
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    src = os.path.dirname(os.path.dirname(os.path.abspath(pnormlab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    subprocess.run([sys.executable, "-m", "pnormlab.cli", "calibrate", "--d", "300",
                    "--test", "p=2.5", "--reps", "2000", "--out", str(out)],
                   env=env, check=True, capture_output=True)
    return read_kv(out), read_kv(f"{out}.manifest")


class TestNumpyDispatch:
    def test_lower_target_changes_the_manifest_line_not_the_values(self, tmp_path):
        if not any(target in numpy_dispatch() for target in _ABOVE_X86_V3.split()):
            pytest.skip(f"numpy dispatches to no target above X86_V3: {numpy_dispatch()}")
        art_hi, man_hi = _calibrate_in_subprocess(tmp_path / "hi.txt", None)
        art_lo, man_lo = _calibrate_in_subprocess(tmp_path / "lo.txt", _ABOVE_X86_V3)
        assert man_hi["numpy_dispatch"] == numpy_dispatch()
        assert man_lo["numpy_dispatch"] != man_hi["numpy_dispatch"]
        # the bits may or may not move by an ulp across targets
        assert float(art_lo.pop("critical_value")) == pytest.approx(
            float(art_hi.pop("critical_value")), rel=1e-13)
        assert art_lo == art_hi
