"""The benchmark's workloads and the process that measures one of them.

``perfbench/run.py`` starts this file in a fresh interpreter for every
measurement, with ``src`` on ``PYTHONPATH``::

    python3 perfbench/workloads.py '<json request>'

and reads one JSON object from the last line of its standard output.  The
request's ``mode`` is one of:

* ``setup``: import pnormlab and build the workload's inputs, then report
  the monotonic clock, so the caller can time set-up from spawn to ready.
* ``measure``: set up, then run iterations back to back (one closed-loop
  client) until ``seconds`` have passed, recording each iteration's wall and
  CPU seconds and the digest of every operation's output.
* ``leg``: set up and run one iteration as one timed span, under cProfile
  when ``traced``.

Outputs are verified after each iteration's clock has stopped: their
SHA-256, and structural invariants (finite values, rates in [0, 1], the
expected row counts).
"""

from __future__ import annotations

import contextlib
import cProfile
import hashlib
import io
import json
import math
import os
import pstats
import resource
import shutil
import sys
import time
import traceback
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import pnormlab as pl  # noqa: E402
from pnormlab import cli  # noqa: E402
from pnormlab.engine import CalibrationWarning  # noqa: E402
from pnormlab.mc import MonteCarloPlan, empirical_upper_quantile, simulate_null_statistics  # noqa: E402

from layers import LayerProfile, layer_metrics  # noqa: E402

# the minimax side-condition warning fires at every desk-size calibration
warnings.simplefilter("ignore", CalibrationWarning)

ALPHA = SPEC["alpha"]
DESK_TESTS = 7  # p=1..4, sup, combined, minimax
POWER_HEADER = "test,family,a,d,power,stderr,replications"


def plan_seeds(seed: int) -> tuple[int, int]:
    """Calibration and power plan seeds of a workload seed."""
    return 20_240_501 + 1000 * seed, 20_240_777 + 1000 * seed


class InvariantError(Exception):
    pass


class Op:
    """One operation: a public call that produces an output, held as the
    files it wrote or as text (printed critical values)."""

    def __init__(self, label: str, check):
        self.label = label
        self.check = check
        self.files: list[str] = []
        self.text: str | None = None
        self.error: str | None = None

    def run(self, fn) -> "Op":
        try:
            fn(self)
        except Exception:  # an operation that raises counts as failed
            self.error = traceback.format_exc(limit=4)
        return self

    def verify(self) -> dict:
        out = {"label": self.label, "digest": None, "ok": False, "error": self.error,
               "bytes": sum(os.path.getsize(p) for p in self.files)}
        if self.error is not None:
            return out
        h = hashlib.sha256()
        if self.text is not None:
            h.update(self.text.encode("utf-8"))
        for path in sorted(p for p in self.files if p.endswith(".csv")):
            h.update(os.path.basename(path).encode("utf-8") + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
        out["digest"] = h.hexdigest()
        try:
            self.check(self)
            out["ok"] = True
        except (InvariantError, ValueError, OSError) as exc:
            out["error"] = f"invariant: {exc}"
        return out


def _csv_rows(path: str, header: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        raise InvariantError(f"{os.path.basename(path)}: header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def check_power_tables(op: Op) -> None:
    tables = [p for p in op.files if p.endswith(".csv")]
    if not tables:
        raise InvariantError("no power table written")
    for path in tables:
        rows = _csv_rows(path, POWER_HEADER)
        if len(rows) != DESK_TESTS * 32:
            raise InvariantError(f"{os.path.basename(path)}: {len(rows)} rows")
        for row in rows:
            power, stderr = float(row[4]), float(row[5])
            if not (0.0 <= power <= 1.0 and math.isfinite(stderr) and stderr >= 0.0):
                raise InvariantError(f"{os.path.basename(path)}: bad cell {row}")


def check_traces(op: Op) -> None:
    tables = [p for p in op.files if p.endswith(".csv")]
    if len(tables) != 3:
        raise InvariantError(f"{len(tables)} trace tables written, expected 3")
    for path in tables:
        rows = _csv_rows(path, "d,value")
        if len(rows) < 2 or not all(math.isfinite(float(v)) and float(v) >= 0.0 for _, v in rows):
            raise InvariantError(f"{os.path.basename(path)}: non-finite or short trace")


def check_critical_values(op: Op) -> None:
    values = [float(tok) for line in op.text.splitlines() for tok in line.split()[1:]]
    if len(values) < DESK_TESTS or not all(math.isfinite(v) and v > 0.0 for v in values):
        raise InvariantError("critical values missing, non-finite or non-positive")


def run_cli(op: Op, argv: list[str], outdir: str) -> None:
    """One in-process CLI run writing into a fresh ``outdir``."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--outdir", outdir])
    if code != 0:
        raise RuntimeError(f"pnormlab {argv[0]} exited with {code}")
    op.files = [os.path.join(outdir, name) for name in sorted(os.listdir(outdir))]


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Figure3:
    """``pnormlab power --figure3 --scale desk`` in-process."""

    def __init__(self, sizes: dict, seed: int):
        calib_seed, power_seed = plan_seeds(seed)
        self.argv = [
            "power", "--figure3", "--scale", "desk", "--d", str(sizes["d"]),
            "--calib-reps", str(sizes["calib_reps"]), "--reps", str(sizes["reps"]),
            "--calib-seed", str(calib_seed), "--seed", str(power_seed),
        ]
        # the auto-grid probes draw a prefix of the power plan's chunk streams
        self.plans = [MonteCarloPlan(sizes["calib_reps"], calib_seed),
                      MonteCarloPlan(sizes["reps"], power_seed)]

    def setup(self, workers: int) -> list[Op]:
        return []

    def iteration(self, workdir: str, workers: int) -> list[Op]:
        argv = self.argv + ["--workers", str(workers)]
        outdir = fresh_dir(os.path.join(workdir, "figure3"))
        return [Op("figure3", check_power_tables).run(lambda op: run_cli(op, argv, outdir))]


class PowerStudy:
    """The seven desk tests calibrated from one shared null sample, then
    ``power_curve`` tables over fixed grids on one power plan."""

    def __init__(self, sizes: dict, seed: int):
        calib_seed, power_seed = plan_seeds(seed)
        self.d = int(sizes["d"])
        self.calib_plan = MonteCarloPlan(sizes["calib_reps"], calib_seed)
        self.plan = MonteCarloPlan(sizes["reps"], power_seed)
        self.plans = [self.calib_plan, self.plan]
        self.grids = {name: np.linspace(lo, hi, int(n)) for name, (lo, hi, n) in sizes["grids"].items()}
        self.tests: list = []

    def setup(self, workers: int) -> list[Op]:
        return [Op("calibrate", check_critical_values).run(lambda op: self._calibrate(op, workers))]

    def _calibrate(self, op: Op, workers: int) -> None:
        d = self.d
        singles = [pl.Exponent.finite(p) for p in (1, 2, 3, 4)] + [pl.SUP]
        m, ladder = pl.member_exponents(d, "exp")
        minimax = pl.build_minimax_adaptive(d, 5.0, 8)
        union = singles + [pl.Exponent.finite(p) for p in ladder] + list(minimax.norm_exponents())
        stats = simulate_null_statistics(d, union, self.calib_plan, workers=workers)
        tests = [
            pl.PNormTest(d=d, exponent=e, critical_value=empirical_upper_quantile(stats[e], ALPHA),
                         alpha=ALPHA)
            for e in singles
        ]
        tests.append(pl.build_combined(d, ladder, pl.geometric_budget(m, ALPHA), self.calib_plan,
                                       workers, stats=stats))
        tests.append(pl.mc_scale_minimax(minimax, ALPHA, self.calib_plan, workers, stats=stats))
        self.tests = tests
        lines = [f"{t.label} {t.critical_value!r}" for t in tests[:5]]
        lines.append(" ".join([tests[5].label] + [repr(k) for k in tests[5].kappas + (tests[5].scale,)]))
        lines.append(" ".join([tests[6].label] + [repr(k) for k in tests[6].kappas + (tests[6].threshold,)]))
        op.text = "\n".join(lines) + "\n"

    def iteration(self, workdir: str, workers: int) -> list[Op]:
        ops = []
        for name, grid in self.grids.items():
            family = getattr(pl, name)()
            path = os.path.join(fresh_dir(os.path.join(workdir, name)), f"power_{name}.csv")

            def curve(op: Op, family=family, grid=grid, path=path) -> None:
                table = pl.power_curve(self.tests, family, grid, self.d, self.plan, workers=workers)
                table.to_csv(path)
                op.files = [path]

            ops.append(Op(f"power_{name}", check_power_tables).run(curve))
        return ops


class ConsistencyTraces:
    """Four in-process ``pnormlab consistency`` runs, one per family."""

    def __init__(self, sizes: dict, seed: int):
        self.runs = [
            (family, ["consistency", "--family", family, "--exponents", sizes["exponents"],
                      "--dgrid", sizes["dgrid"]])
            for family in sizes["families"]
        ]
        self.plans: list[MonteCarloPlan] = []

    def setup(self, workers: int) -> list[Op]:
        return []

    def iteration(self, workdir: str, workers: int) -> list[Op]:
        ops = []
        for family, argv in self.runs:
            argv = argv + ["--workers", str(workers)]
            outdir = fresh_dir(os.path.join(workdir, family.replace(":", "_")))
            ops.append(Op(family, check_traces).run(lambda op, a=argv, o=outdir: run_cli(op, a, o)))
        return ops


WORKLOADS = {
    "fig3-desk": Figure3,
    "power-dense": PowerStudy,
    "power-sparse": PowerStudy,
    "consistency-traces": ConsistencyTraces,
}


def unique_chunks(plans: list[MonteCarloPlan]) -> int:
    """Distinct chunk RNG streams (seed, chunk size, chunk index) the plans
    own: the noise a workload needs to draw at least once.  Computed."""
    return len({(p.seed, p.chunk_size, c) for p in plans for c in range(p.n_chunks)})


# ---------------------------------------------------------------------------
# The measuring process
# ---------------------------------------------------------------------------


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def measure(workload, workers: int, seconds: float, workdir: str) -> dict:
    ops = [op.verify() for op in workload.setup(workers)]
    ready = time.monotonic()
    iterations = []
    start = time.perf_counter()
    while True:
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        done = workload.iteration(workdir, workers)
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
        ops += [op.verify() for op in done]
        iterations.append({"wall_s": wall, "cpu_s": cpu})
        if time.perf_counter() - start >= seconds:
            break
    return {
        "ready": ready,
        "iterations": iterations,
        "ops": ops,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "child_maxrss_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


def leg(request: dict, workers: int, traced: bool, workdir: str) -> dict:
    """Input building plus one iteration as one span, optionally profiled."""
    profiler = cProfile.Profile() if traced else None
    t0 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    workload = make_workload(request)
    ops = workload.setup(workers) + workload.iteration(workdir, workers)
    if profiler is not None:
        profiler.disable()
    wall = time.perf_counter() - t0
    result = {"wall_s": wall, "ops": [op.verify() for op in ops],
              "unique_chunks": unique_chunks(workload.plans)}
    if profiler is not None:
        package_dir = os.path.dirname(pl.__file__)
        metrics, records = layer_metrics(LayerProfile(pstats.Stats(profiler), package_dir), wall)
        result["metrics"], result["records"] = metrics, records
    return result


def make_workload(request: dict):
    name = request["workload"]
    sizes = request.get("sizes") or SPEC["workloads"][name]["sizes"]
    return WORKLOADS[name](sizes, int(request["seed"]))


def main(request: dict) -> dict:
    mode, workers = request["mode"], int(request["workers"])
    workdir = fresh_dir(os.path.join(request["workdir"], f"{mode}-{os.getpid()}"))
    try:
        if mode == "setup":
            ops = make_workload(request).setup(workers)
            result = {"ready": time.monotonic(), "ops": [op.verify() for op in ops]}
        elif mode == "measure":
            result = measure(make_workload(request), workers, float(request["seconds"]), workdir)
        elif mode == "leg":
            result = leg(request, workers, bool(request["traced"]), workdir)
        else:
            raise ValueError(f"unknown mode {mode!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                          "scipy": scipy.__version__, "pnormlab": pl.__version__}
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
