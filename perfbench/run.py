"""pnormlab benchmark: four batch workloads, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig3-desk --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 1

Workloads, sizes, the seed rule and the metric predictions are recorded in
``perfbench/spec.json``.  Every measurement runs in a fresh interpreter
(``perfbench/workloads.py``) importing ``pnormlab`` from ``src``; this
process only starts those, checks their outputs and reports.

``--trace 0`` reports the end-to-end metrics: a measuring process runs the
workload's iterations back to back for ``--seconds``, and set-up is timed
in that process and in further fresh ones.  ``--trace 1`` reports the
per-layer metrics: the workload's span (input building plus one iteration)
runs untraced at workers=2, untraced at workers=1 and under cProfile at
workers=1, each in its own process, and the per-module records are written
as JSON to ``.perfbench/`` when the run ends.

Each workload prints its metrics by name with unit, sample count and ratio
bases, then the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when any operation failed, and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
DEADLINE_S = 170.0

with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
with open(os.path.join(HERE, "reference_digests.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)



class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed operation)."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


class Runner:
    """Starts measuring processes one at a time within one deadline."""

    def __init__(self, deadline_s: float = DEADLINE_S):
        self.deadline = time.monotonic() + deadline_s
        self.versions: dict = {}

    def child(self, request: dict) -> dict:
        if not os.path.isfile(os.path.join(SRC, "pnormlab", "__init__.py")):
            raise BenchError(f"no pnormlab sources under {SRC}")
        request = dict(request, workdir=os.path.join(OUT, "work"))
        tmp = os.path.join(OUT, "tmp")
        os.makedirs(tmp, exist_ok=True)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, TMPDIR=tmp,
                   PYTHONPATH=SRC + (os.pathsep + path if path else ""))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a measurement")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "workloads.py"), json.dumps(request)],
                stdout=subprocess.PIPE, env=env, cwd=ROOT, timeout=remaining, check=False,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{request['mode']} of {request['workload']} timed out") from exc
        lines = proc.stdout.decode("utf-8", "replace").splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{request['mode']} of {request['workload']} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        result["spawned"] = spawned
        self.versions = result["versions"]
        return result


def count_failures(op_groups: list[list[dict]], reference: dict | None) -> tuple[int, list[str]]:
    """Operations attempted, and one reason per failed operation.

    An operation fails when it raised, broke an invariant, differs from the
    first operation of the same label (every group repeats identical
    inputs: iterations of one run, or legs at different worker counts), or
    differs from the reference digest of its label when one is given.
    """
    first: dict[str, str] = {}
    attempted, reasons = 0, []
    for group in op_groups:
        for op in group:
            attempted += 1
            label, digest = op["label"], op["digest"]
            if not op["ok"]:
                reasons.append(f"{label}: {(op['error'] or 'failed').strip().splitlines()[-1]}")
            elif first.setdefault(label, digest) != digest:
                reasons.append(f"{label}: digest {digest[:12]} differs from {first[label][:12]} of the same inputs")
            elif reference is not None and reference.get(label) != digest:
                reasons.append(f"{label}: digest {digest[:12]} is not the reference")
    return attempted, reasons


def reference_for(workload: str, seed: int) -> dict | None:
    """Stored digests that apply to a run at the recorded sizes: those of
    the default seed, or of any seed for a workload without Monte Carlo."""
    if seed != REFERENCE["seed"] and SPEC["workloads"][workload]["seeded"]:
        return None
    return REFERENCE["digests"][workload]


# ---------------------------------------------------------------------------
# Machine note
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def machine_note() -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(os.path.join(index, "level")), _read(os.path.join(index, "type"))
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = {"size": _read(os.path.join(index, "size")),
                                   "shared_cpu_list": _read(os.path.join(index, "shared_cpu_list"))}
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model, "caches": caches}


def _kib(text: str) -> int:
    text = text.upper()
    scale = {"K": 1, "M": 1024, "G": 1024 * 1024}.get(text[-1:], None)
    return int(text[:-1]) * scale if scale else int(text or 0) // 1024


# chunk-sized float64 buffers one process's workspace holds: eps and the
# batch_norms scratch (scaled, chain, log, work), the dense path's shifted
# copy, and the sparse kernel's abs, work and masked arrays
CHUNK_BUFFERS = {"fig3-desk": 9, "power-dense": 6, "power-sparse": 8}


def working_set(workload: str, sizes: dict) -> list[tuple[str, int]]:
    """Largest arrays of the workload, in bytes, computed from its sizes."""
    if workload == "consistency-traces":
        top = int(float(sizes["dgrid"].split(":")[-1]))
        return [(f"one criterion vector at d={top} (float64)", 8 * top)]
    chunk = 128 * int(sizes["d"]) * 8
    n = CHUNK_BUFFERS[workload]
    return [(f"one 128 x {sizes['d']} chunk buffer (float64)", chunk),
            (f"{n} such workspace buffers in one process", n * chunk)]


def print_machine(workload: str, sizes: dict, versions: dict) -> None:
    note = machine_note()
    caches = note["caches"]
    print(f"# machine: nproc={note['nproc']} cpu={note['cpu_model']!r} "
          + " ".join(f"{k}={v['size']} (shared by cpus {v['shared_cpu_list']})" for k, v in caches.items())
          + " " + " ".join(f"{k}={v}" for k, v in versions.items()))
    for what, nbytes in working_set(workload, sizes):
        rel = " ".join(f"= {nbytes / 1024 / _kib(v['size']):.2f} x {k}"
                       for k, v in caches.items() if k in ("L2", "L3") and _kib(v["size"]))
        print(f"# working set (computed): {what}: {nbytes / 2**20:.2f} MiB {rel}")


# ---------------------------------------------------------------------------
# The two modes
# ---------------------------------------------------------------------------


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float,
               reference: dict | None, sizes: dict | None = None) -> dict:
    spec = SPEC["workloads"][workload]
    workers = int((sizes or spec["sizes"])["workers"])
    base = {"workload": workload, "seed": seed, "workers": workers, "sizes": sizes}
    run = runner.child(dict(base, mode="measure", seconds=seconds))
    probes = [runner.child(dict(base, mode="setup")) for _ in range(SPEC["setup_samples"] - 1)]
    setups = [r["ready"] - r["spawned"] for r in [run] + probes]
    attempted, reasons = count_failures([p["ops"] for p in probes] + [run["ops"]], reference)
    iters = run["iterations"]
    values = {
        "wall_s": statistics.median(i["wall_s"] for i in iters),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(i["cpu_s"] for i in iters),
        "peak_rss_mib": (run["maxrss_kib"] + run["child_maxrss_kib"]) / 1024.0,
    }
    notes = {
        "wall_s": f"median of {len(iters)} iteration(s), workers={workers}",
        "setup_s": f"median of {len(setups)} fresh processes",
        "cpu_s": f"median of {len(iters)} iteration(s), process plus children",
        "peak_rss_mib": f"process {run['maxrss_kib'] / 1024:.1f} + largest child {run['child_maxrss_kib'] / 1024:.1f}",
    }
    return {"attempted": attempted, "failed": len(reasons), "reasons": reasons,
            "values": values, "notes": notes,
            "digests": {op["label"]: op["digest"] for op in run["ops"]}}


def per_layer(runner: Runner, workload: str, seed: int, reference: dict | None,
              sizes: dict | None = None) -> dict:
    base = {"workload": workload, "seed": seed, "sizes": sizes, "mode": "leg"}
    w2 = runner.child(dict(base, workers=2, traced=False))
    w1 = runner.child(dict(base, workers=1, traced=False))
    traced = runner.child(dict(base, workers=1, traced=True))
    attempted, reasons = count_failures([w2["ops"], w1["ops"], traced["ops"]], reference)
    values = dict(traced["metrics"])
    draws = values["mc.draw_calls"]
    values["mc.unique_chunks"] = traced["unique_chunks"]
    values["mc.draw_reuse"] = traced["unique_chunks"] / draws if draws else 1.0
    values["mc.parallel_speedup"] = w1["wall_s"] / w2["wall_s"]
    values["report.bytes_written"] = sum(op["bytes"] for op in traced["ops"])
    values["trace_overhead_s"] = traced["wall_s"] - w1["wall_s"]
    notes = {
        "mc.unique_chunks": "computed from the plans",
        "mc.draw_reuse": f"unique_chunks / draw_calls, base draw_calls = {draws}"
                         + ("" if draws else " (no draws: reported as 1)"),
        "mc.parallel_speedup": f"untraced wall {w1['wall_s']:.3f} s at workers=1 / "
                               f"{w2['wall_s']:.3f} s at workers=2",
        "other_s": "traced_wall_s minus the layer self times",
        "trace_overhead_s": f"traced_wall_s minus untraced {w1['wall_s']:.3f} s at workers=1",
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "machine": machine_note(),
                   "versions": runner.versions, "sizes": sizes or SPEC["workloads"][workload]["sizes"],
                   "legs_wall_s": {"untraced_workers2": w2["wall_s"], "untraced_workers1": w1["wall_s"],
                                   "traced_workers1": traced["wall_s"]},
                   "metrics": values, "modules": traced["records"],
                   "digests": {op["label"]: op["digest"] for op in traced["ops"]}}, fh, indent=1)
    notes["records"] = os.path.relpath(path, ROOT)
    return {"attempted": attempted, "failed": len(reasons), "reasons": reasons,
            "values": values, "notes": notes,
            "digests": {op["label"]: op["digest"] for op in traced["ops"]}}


def report(workload: str, seed: int, trace: bool, res: dict) -> dict:
    """Print one workload's metrics; return its JSON metrics."""
    names = [m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    print(f"== {workload}  seed={seed}  {'traced (per-layer)' if trace else 'untraced (end-to-end)'}  "
          f"closed loop, 1 client")
    for name in names:
        note = res["notes"].get(name, "")
        print(f"{name:32s} {res['values'][name]:>14.6g} {units[name]:6s} {note}")
    frac = res["failed"] / res["attempted"]
    print(f"{'failed_frac':32s} {frac:>14.6g} {'ratio':6s} "
          f"base: {res['failed']} failed / {res['attempted']} operations attempted")
    for reason in res["reasons"]:
        print(f"   FAILED {reason}")
    for label, digest in res["digests"].items():
        print(f"   digest {label} {digest}")
    if "records" in res["notes"]:
        print(f"   per-module records: {res['notes']['records']}")
    return {name: {"value": res["values"][name], "unit": units[name]} for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(SPEC["workloads"]) + ["all"])
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workloads = list(SPEC["workloads"]) if args.workload == "all" else [args.workload]
    runner = Runner(DEADLINE_S * len(workloads))
    attempted = failed = 0
    metrics: dict = {}
    try:
        for workload in workloads:
            reference = reference_for(workload, args.seed)
            if args.trace:
                res = per_layer(runner, workload, args.seed, reference)
            else:
                res = end_to_end(runner, workload, args.seed, args.seconds, reference)
            print_machine(workload, SPEC["workloads"][workload]["sizes"], runner.versions)
            values = report(workload, args.seed, bool(args.trace), res)
            prefix = f"{workload}/" if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in values.items()})
            attempted += res["attempted"]
            failed += res["failed"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        for scratch in ("work", "tmp"):
            shutil.rmtree(os.path.join(OUT, scratch), ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
