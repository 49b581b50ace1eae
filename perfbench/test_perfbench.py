"""Self-check of the benchmark at toy sizes.

Run from the root of a checkout with ``python3 -m pytest perfbench``.  It
starts the same measuring processes as ``perfbench/run.py``, at toy sizes,
for every workload in both modes (about a minute on two cores).
"""

import cProfile
import json
import os
import pstats
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from layers import LAYERS, OTHER, LayerProfile  # noqa: E402

import pnormlab as pl  # noqa: E402

SEED = 3
TOY = {
    "fig3-desk": {"d": 300, "calib_reps": 3072, "reps": 256, "workers": 2},
    "power-dense": {"d": 300, "calib_reps": 3072, "reps": 256, "workers": 1,
                    "grids": {"dense": [0.0, 1.0, 32]}},
    "power-sparse": {"d": 300, "calib_reps": 3072, "reps": 256, "workers": 1,
                     "grids": {"sparse": [0.0, 8.0, 32], "semi_sparse": [0.0, 2.5, 32]}},
    "consistency-traces": {"families": ["dense", "sparse", "dagger", "power-sparse:4"],
                           "exponents": "2,3,sup", "dgrid": "geometric:1e3:1e4", "workers": 1},
}


@pytest.fixture(scope="module")
def results():
    runner = run.Runner(deadline_s=900)
    return {
        w: {
            "e2e": run.end_to_end(runner, w, SEED, 0.2, None, sizes=sizes),
            "layers": run.per_layer(runner, w, SEED, None, sizes=sizes),
        }
        for w, sizes in TOY.items()
    }


def test_every_named_metric_appears(results, capsys):
    assert set(TOY) == {w["name"] for w in run.BENCH["workloads"]}
    for workload, res in results.items():
        for mode, key in (("e2e", "end_to_end"), ("layers", "per_layer")):
            assert res[mode]["failed"] == 0, res[mode]["reasons"]
            printed = run.report(workload, SEED, mode == "layers", res[mode])
            out = capsys.readouterr().out
            names = [m["name"] for m in run.BENCH[key]]
            assert list(printed) == names
            for name in names:
                value = printed[name]["value"]
                assert isinstance(value, (int, float)) and value == value, (workload, name)
                assert f"\n{name} " in out, (workload, name)
        assert all(res["e2e"]["values"][m] > 0 for m in ("wall_s", "setup_s", "cpu_s", "peak_rss_mib"))


def test_layer_self_times_add_up_to_traced_wall(results):
    for workload, res in results.items():
        m = res["layers"]["values"]
        total = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["other_s"]
        assert abs(total - m["traced_wall_s"]) <= 0.01 * m["traced_wall_s"], workload
        # the layers never account for more time than the span took
        assert m["other_s"] >= -0.01 * m["traced_wall_s"], workload
        with open(os.path.join(ROOT, res["layers"]["notes"]["records"]), encoding="utf-8") as fh:
            records = json.load(fh)["modules"]
        assert sum(records[layer]["self_s"] for layer in LAYERS) == pytest.approx(
            m["traced_wall_s"] - m["other_s"], rel=1e-9)


def test_attribution_conserves_profiled_time():
    profiler = cProfile.Profile()
    profiler.enable()
    pl.criterion_trace(pl.sparse(), pl.SUP, pl.geometric_dgrid(1000, 10000))
    pl.mc.simulate_null_statistics(500, [pl.Exponent.finite(2.0)], pl.MonteCarloPlan(256, 1))
    profiler.disable()
    stats = pstats.Stats(profiler)
    times = LayerProfile(stats, os.path.dirname(pl.__file__)).self_times()
    assert sum(times.values()) == pytest.approx(stats.total_tt, rel=1e-9)
    assert times["consistency"] > 0 and times["gaussmath"] > 0 and times["mc"] > 0
    assert times["norms"] > 0 and set(times) == set(LAYERS) | {OTHER}


def test_unique_chunks_match_the_plans(results):
    for workload in ("fig3-desk", "power-dense", "power-sparse"):
        sizes = TOY[workload]
        plans = [pl.MonteCarloPlan(sizes["calib_reps"], 1), pl.MonteCarloPlan(sizes["reps"], 2)]
        m = results[workload]["layers"]["values"]
        assert m["mc.unique_chunks"] == sum(p.n_chunks for p in plans), workload
    dense = results["power-dense"]["layers"]["values"]
    # one shared calibration sample and one curve: every chunk is drawn once
    assert dense["mc.draw_calls"] == dense["mc.unique_chunks"]
    assert dense["mc.draw_reuse"] == 1.0
    assert results["consistency-traces"]["layers"]["values"]["mc.unique_chunks"] == 0


def test_corrupted_reference_digest_fails():
    runner = run.Runner(deadline_s=300)
    good = run.end_to_end(runner, "power-dense", SEED, 0.2, None, sizes=TOY["power-dense"])
    assert good["failed"] == 0
    reference = dict(good["digests"])
    checked = run.end_to_end(runner, "power-dense", SEED, 0.2, reference, sizes=TOY["power-dense"])
    assert checked["failed"] == 0
    reference["power_dense"] = "0" * 64
    corrupted = run.end_to_end(runner, "power-dense", SEED, 0.2, reference, sizes=TOY["power-dense"])
    assert corrupted["failed"] > 0 and corrupted["failed"] <= corrupted["attempted"]
    assert any("reference" in reason for reason in corrupted["reasons"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "power-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
