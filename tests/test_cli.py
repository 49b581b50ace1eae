import math
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pnormlab import cli
from pnormlab.cli import main
from pnormlab.engine import (
    build_combined,
    build_minimax_adaptive,
    geometric_budget,
    load_test,
    mc_calibrate,
    mc_scale_minimax,
    member_exponents,
)
from pnormlab.errors import ConfigError
from pnormlab.mc import MonteCarloPlan
from pnormlab.norms import parse_exponent
from pnormlab.report import read_kv, sha256_file


def run(argv):
    return main([str(a) for a in argv])


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
        st.one_of(st.sampled_from(["2", "3", "sup", "0.5"]), _ARG_VALUE),
        min_size=1, max_size=3,
    ).map(",".join),
}


class TestExitCodes:
    def test_missing_required_option(self, capsys):
        assert run(["calibrate", "--p", "2", "--alpha", "0.05", "--asymptotic"]) == 2
        assert "missing required option" in capsys.readouterr().err

    def test_chunk_size_is_not_an_option(self, tmp_path):
        # every plan draws fixed 128-row chunks
        with pytest.raises(SystemExit) as exc:
            run(["power", "--d", "100", "--chunk-size", "64", "--outdir", tmp_path])
        assert exc.value.code == 2

    def test_sup_is_not_a_flag(self, tmp_path):
        # the sup surface is --p sup, as in every other subcommand
        with pytest.raises(SystemExit) as exc:
            run(["consistency", "--contour", "--sup", "--outdir", tmp_path])
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
        ["consistency", "--contour", "--p", "2", "--range", "5"],
        ["consistency", "--family", "dense", "--dgrid", "geometric:1e3"],
        ["consistency", "--family", "power-sparse:abc", "--dgrid", "1000,2000"],
        ["calibrate", "--d", "100", "--p", "2", "--asymptotic",
         "--out", "{tmp}/missing/x.txt"],
        ["power", "--d", "100", "--tests", "p=2", "--calib-reps", "2000",
         "--reps", "200", "--agrid", "0:1:2", "--artifact", "{tmp}/missing.txt"],
        ["power", "--d", "100", "--tests", "p=2", "--calib-reps", "2000",
         "--reps", "200", "--agrid", "0:nan:3"],
        ["consistency", "--contour", "--p", "2", "--range", "0:inf"],
        ["power", "--d", "100", "--tests", "p=2", "--calib-reps", "2000",
         "--reps", "200", "--agrid", "0:1:10001"],
        ["consistency", "--contour", "--p", "2", "--resolution", "1002"],
        # a grid bound past float range
        ["consistency", "--family", "dagger", "--dgrid", "geometric:1e3:1e309"],
        ["power", "--d", "100", "--tests", "p=2", "--calib-reps", "2000",
         "--reps", "200", "--agrid", "0:1:2", "--workers", "0"],
        ["power", "--d", "100", "--tests", ","],
        ["consistency", "--radius", "--p", "sup", "--d", "100"],
        # a threshold from 5 draws, or from the 2 draws above it
        ["calibrate", "--minimax", "--d", "100", "--reps", "5"],
        ["calibrate", "--minimax", "--d", "100", "--reps", "2000", "--alpha", "0.001"],
        ["power", "--d", "100", "--tests", "p=2,p=2", "--calib-reps", "2000",
         "--reps", "200", "--agrid", "0:1:2"],
        # the preset runs its own tests and families
        ["power", "--figure3", "--tests", "p=2"],
        ["power", "--figure3", "--family", "sparse"],
    ], ids=["agrid", "agrid-empty", "range", "dgrid", "power-sparse", "out-dir", "artifact",
            "agrid-nan", "range-inf", "agrid-points", "resolution", "dgrid-overflow",
            "workers-zero", "tests-empty", "radius-sup", "minimax-reps", "minimax-tail",
            "tests-twice", "figure3-tests", "figure3-family"])
    def test_malformed_input_exits_two(self, tmp_path, capsys, argv):
        argv = [a.format(tmp=tmp_path) for a in argv]
        if argv[0] in cli._OPTIONS["outdir"].commands.split():
            argv += ["--outdir", tmp_path / "out"]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    # both write where --out says, and reduce draws nothing
    @pytest.mark.parametrize("argv", [
        ["calibrate", "--asymptotic", "--p", "2", "--d", "100", "--out", "{tmp}/a.txt",
         "--outdir", "{tmp}/D"],
        ["reduce", "--design", "{tmp}/X.txt", "--response", "{tmp}/z.txt",
         "--out", "{tmp}/a.txt", "--outdir", "{tmp}/D"],
        ["reduce", "--design", "{tmp}/X.txt", "--response", "{tmp}/z.txt",
         "--out", "{tmp}/a.txt", "--workers", "2"],
    ], ids=["calibrate-outdir", "reduce-outdir", "reduce-workers"])
    def test_ignored_options_are_refused(self, tmp_path, rng, argv):
        np.savetxt(tmp_path / "X.txt", rng.normal(size=(5, 2)))
        np.savetxt(tmp_path / "z.txt", rng.normal(size=5))
        with pytest.raises(SystemExit) as exc:
            run([a.format(tmp=tmp_path) for a in argv])
        assert exc.value.code == 2
        assert not (tmp_path / "D").exists() and not (tmp_path / "a.txt").exists()

    @pytest.mark.parametrize("command", [["calibrate", "--asymptotic"],
                                         ["consistency", "--radius"]])
    def test_overflowing_dimension_exits_three(self, capsys, command):
        assert run(command + ["--p", "2", "--d", "1" + "0" * 400]) == 3
        assert capsys.readouterr().err.startswith("numeric error: ")

    # these two commands and the trace command (next test) start no
    # simulation and allocate nothing that grows with d, so any argv is cheap
    # to run
    @settings(max_examples=300, deadline=None)
    @example(argv=["calibrate", "--asymptotic", "--p", "sup", "--d", "1000",
                   "--alpha", "5e-324"])
    @given(argv=st.tuples(
        st.sampled_from([("calibrate", "--asymptotic"), ("consistency", "--radius")]),
        st.lists(st.tuples(st.sampled_from(["--p", "--d", "--alpha"]), _ARG_VALUE),
                 max_size=4),
    ).map(lambda t: list(t[0]) + [x for pair in t[1] for x in pair]))
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
        argv = ["consistency"] + [
            x for flag, value in options.items() if value is not None
            for x in (flag, value)
        ]
        with tempfile.TemporaryDirectory() as outdir:
            try:
                code = main(argv + ["--outdir", outdir])
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code
        assert code in (0, 2, 3)

    def test_numeric_failure(self, capsys):
        code = run(
            ["calibrate", "--p", "2", "--d", "1", "--alpha", "0.9999", "--asymptotic"]
        )
        assert code == 3
        assert "numeric error" in capsys.readouterr().err


class TestCalibrate:
    def test_asymptotic_prints_formula_value(self, capsys):
        assert run(["calibrate", "--p", "2", "--d", "100", "--alpha", "0.05",
                    "--asymptotic"]) == 0
        out = capsys.readouterr().out
        assert "kappa = 11.10233052" in out

    def test_monte_carlo_artifact_round_trip(self, tmp_path):
        out = tmp_path / "p2.txt"
        code = run([
            "calibrate", "--p", "2", "--d", "200", "--alpha", "0.05",
            "--reps", "5000", "--seed", "3", "--out", out,
        ])
        assert code == 0
        test = load_test(out)
        assert test.d == 200 and test.alpha == 0.05
        assert (tmp_path / "p2.txt.manifest").exists()

    def test_combined_preset(self, tmp_path, capsys):
        out = tmp_path / "combined.txt"
        code = run([
            "calibrate", "--preset", "exp", "--d", "500", "--alpha", "0.05",
            "--reps", "5000", "--seed", "3", "--out", out,
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "scale =" in text
        test = load_test(out)
        assert test.alpha == pytest.approx(0.05)
        assert 0.0 < test.scale <= 1.0


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
            "calibrate", "--p", "2", "--d", "100", "--alpha", "0.05",
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
        assert run(["calibrate", "--p", "2", "--d", "100", "--asymptotic", "--out", art]) == 0
        assert run([
            "power", "--d", "100", "--tests", "p=2", "--calib-reps", "2000",
            "--reps", "200", "--agrid", "0:1:2", "--artifact", art,
            "--outdir", tmp_path / "out",
        ]) == 2

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
        simulate = cli.simulate_null_statistics

        def counting(*args, **kwargs):
            calls.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(cli, "simulate_null_statistics", counting)
        assert run([
            "power", "--figure3", "--d", "200", "--calib-reps", "4000",
            "--reps", "200", "--agrid", "0:1:3", "--outdir", tmp_path,
        ]) == 0
        assert len(calls) == 1
        res = cli._Resolver(cli.build_parser().parse_args(["power"]))
        plan = MonteCarloPlan(replications=4000, seed=1)
        assert cli._build_test_suite([], 200, 0.05, plan, res, 1) == []
        assert len(calls) == 1

    @pytest.mark.parametrize("tests, artifact", [("p=2,2", False), ("p=2,p=2", False),
                                                 ("p=2", True)])
    def test_repeated_label_is_refused_before_calibration(
        self, tmp_path, monkeypatch, capsys, tests, artifact
    ):
        art = tmp_path / "a.txt"
        assert run(["calibrate", "--asymptotic", "--p", "2", "--d", "300", "--out", art]) == 0
        calls = []
        simulate = cli.simulate_null_statistics

        def counting(*args, **kwargs):
            calls.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(cli, "simulate_null_statistics", counting)
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
        assert run(["consistency", "--radius", "--p", "2", "--d", "10000"]) == 0
        assert "radius = 10" in capsys.readouterr().out

    def test_radius_creates_no_outdir(self, tmp_path):
        outdir = tmp_path / "out"
        assert run(["consistency", "--radius", "--p", "2", "--d", "10000",
                    "--outdir", outdir]) == 0
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

    @pytest.mark.parametrize("exponents", ["2,2", "2,3,2.0", "sup,inf"])
    def test_repeated_exponent_is_refused_before_any_trace(self, tmp_path, capsys, exponents):
        # one trace file and one manifest key per exponent
        assert run([
            "consistency", "--family", "dagger", "--exponents", exponents,
            "--dgrid", "geometric:1e3:1e5", "--outdir", tmp_path,
        ]) == 2
        assert "repeats an exponent" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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
            "consistency", "--contour", "--p", "1", "--resolution", "11",
            "--range=-2:2", "--outdir", tmp_path,
        ])
        assert code == 0
        lines = (tmp_path / "contour_p1.csv").read_text().splitlines()
        assert lines[0] == "x1,x2,value"
        assert len(lines) == 1 + 11 * 11

    def test_sup_contour(self, tmp_path):
        assert run([
            "consistency", "--contour", "--p", "sup", "--resolution", "5",
            "--outdir", tmp_path,
        ]) == 0
        assert (tmp_path / "contour_sup.csv").exists()


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d = 100\nalpha = 0.05\n# comment\n")
        assert run([
            "calibrate", "--config", cfg, "--p", "2", "--asymptotic",
            "--d", "400",
        ]) == 0
        out = capsys.readouterr().out
        assert "d = 400" in out

    def test_config_supplies_missing_values(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d = 100\n")
        assert run(["calibrate", "--config", cfg, "--p", "2", "--asymptotic"]) == 0
        assert "kappa = 11.10233052" in capsys.readouterr().out

    @pytest.mark.parametrize("line", ["alpah = 0.5", "calib_reps = 1000", "chunk-size = 64",
                                      "config = other.cfg"],
                             ids=["typo", "underscore", "stale-chunk-size", "nested-config"])
    def test_unknown_key_exits_two(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"d = 100\n{line}\n")
        assert run(["calibrate", "--config", cfg, "--p", "2", "--asymptotic"]) == 2
        assert line.split(" = ")[0] in capsys.readouterr().err

    def test_key_of_another_subcommand_is_valid(self, tmp_path, capsys):
        # one file can serve both calibrate and power
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d = 100\nfamily = dense\n")
        assert run(["calibrate", "--config", cfg, "--p", "2", "--asymptotic"]) == 0
        assert "kappa = 11.10233052" in capsys.readouterr().out


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

    def test_reads_what_the_manifest_writer_writes(self, tmp_path):
        assert run(["calibrate", "--p", "2", "--d", "100", "--asymptotic",
                    "--out", tmp_path / "a.txt"]) == 0
        manifest = read_kv(tmp_path / "a.txt.manifest")
        assert manifest["manifest"] == "pnormlab-run/1"
        assert manifest["config.d"] == "100"
        assert len(manifest["output.a.txt.sha256"]) == 64

    def test_manifest_bytes_do_not_depend_on_the_output_path(self, tmp_path, rng):
        # nor on where the input files live: inputs are recorded by content
        np.savetxt(tmp_path / "X.txt", rng.normal(size=(5, 2)))
        np.savetxt(tmp_path / "z.txt", rng.normal(size=5))
        for sub in ("one", "two/deeper"):
            where = tmp_path / sub
            where.mkdir(parents=True)
            for name in ("X.txt", "z.txt"):
                (where / name).write_bytes((tmp_path / name).read_bytes())
            assert run(["calibrate", "--p", "2", "--d", "100", "--asymptotic",
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
