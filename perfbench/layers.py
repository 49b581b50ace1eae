"""Per-layer attribution of a cProfile run over the modules of pnormlab.

A layer is one module of ``src/pnormlab``.  Its self time is the own time of
its functions plus the own time of the non-layer code (numpy, scipy, the
stdlib, and the transparent modules ``workspace``, ``errors`` and
``__init__``) that it calls, directly or through other non-layer code.
Non-layer time is split over its callers by the caller edges the profiler
recorded: own time by the edge's own time, and further up by the edge's
cumulative time.  Time with no layer above it goes to ``other``.
"""

from __future__ import annotations

import os
import pstats
from collections import defaultdict

LAYERS = ("cli", "power", "engine", "mc", "norms", "consistency", "gaussmath", "report")
OTHER = "other"


class LayerProfile:
    """Layer view of one ``pstats.Stats`` table."""

    def __init__(self, stats: pstats.Stats, package_dir: str):
        self.table = stats.stats
        self.package_dir = os.path.realpath(package_dir)
        self._owners: dict = {}

    def layer_of(self, key) -> str | None:
        path = os.path.realpath(key[0]) if key[0].endswith(".py") else ""
        if os.path.dirname(path) != self.package_dir:
            return None
        module = os.path.basename(path)[:-3]
        return module if module in LAYERS else None

    def _owner_shares(self, key) -> dict[str, float]:
        """Where calls of ``key`` come from, as shares over layers."""
        layer = self.layer_of(key)
        if layer is not None:
            return {layer: 1.0}
        if key in self._owners:
            return self._owners[key]
        # provisional entry: a recursive cycle back to ``key`` resolves to other
        self._owners[key] = {OTHER: 1.0}
        callers = self.table[key][4] if key in self.table else {}
        if callers:
            shares: dict[str, float] = defaultdict(float)
            for caller, w in _edge_weights(callers, index=3).items():
                for owner, s in self._owner_shares(caller).items():
                    shares[owner] += w * s
            self._owners[key] = dict(shares)
        return self._owners[key]

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer plus ``other``; they sum to the profile's
        total own time."""
        out = {name: 0.0 for name in LAYERS + (OTHER,)}
        for key, (_, _, tt, _, callers) in self.table.items():
            layer = self.layer_of(key)
            if layer is not None:
                out[layer] += tt
                continue
            if not callers:
                out[OTHER] += tt
                continue
            for caller, w in _edge_weights(callers, index=2).items():
                for owner, s in self._owner_shares(caller).items():
                    out[owner] += tt * w * s
        return out

    def functions(self, layer: str, name: str) -> list:
        return [k for k in self.table if k[2] == name and self.layer_of(k) == layer]

    def calls(self, layer: str, name: str) -> int:
        return sum(self.table[k][1] for k in self.functions(layer, name))

    def cumulative(self, layer: str, name: str) -> float:
        return sum(self.table[k][3] for k in self.functions(layer, name))

    def edge_calls(self, caller: tuple[str, str], callee: tuple[str, str]) -> int:
        """Calls from functions named ``caller`` into ones named ``callee``,
        each given as (layer, function name)."""
        sources = set(self.functions(*caller))
        return sum(
            edge[0]
            for k in self.functions(*callee)
            for c, edge in self.table[k][4].items()
            if c in sources
        )

    def records(self, self_s: dict[str, float]) -> dict[str, dict]:
        """One record per layer: self time, own time and calls of its
        functions, caller edges by calling layer, and its heaviest
        functions."""
        recs = {
            name: {"self_s": self_s[name], "own_s": 0.0, "calls": 0,
                   "callers": defaultdict(int), "functions": []}
            for name in LAYERS
        }
        for key, (_, nc, tt, ct, callers) in self.table.items():
            layer = self.layer_of(key)
            if layer is None:
                continue
            rec = recs[layer]
            rec["own_s"] += tt
            rec["calls"] += nc
            rec["functions"].append(
                {"function": f"{os.path.basename(key[0])}:{key[1]}:{key[2]}",
                 "calls": nc, "own_s": tt, "cum_s": ct}
            )
            for caller, edge in callers.items():
                source = self.layer_of(caller) or OTHER
                if source != layer:
                    rec["callers"][source] += edge[0]
        for rec in recs.values():
            rec["callers"] = dict(rec["callers"])
            rec["functions"] = sorted(rec["functions"], key=lambda f: -f["own_s"])[:12]
        return recs


def _edge_weights(callers: dict, index: int) -> dict:
    """Normalised caller weights from one column of the edge tuples
    (nc, cc, tt, ct), falling back to call counts when the times are 0."""
    total = sum(e[index] for e in callers.values())
    if total > 0:
        return {c: e[index] / total for c, e in callers.items()}
    calls = sum(e[0] for e in callers.values()) or 1
    return {c: e[0] / calls for c, e in callers.items()}


def layer_metrics(profile: LayerProfile, traced_wall_s: float) -> tuple[dict, dict]:
    """Per-layer metric values (unit-free numbers) and the layer records."""
    self_s = profile.self_times()
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    m["mc.draw_s"] = profile.cumulative("mc", "draw")
    m["mc.draw_calls"] = profile.calls("mc", "draw")
    m["mc.simulate_calls"] = profile.calls("mc", "simulate_null_statistics")
    m["mc.quantile_calls"] = profile.calls("mc", "empirical_upper_quantile")
    m["mc.quantile_s"] = profile.cumulative("mc", "empirical_upper_quantile")
    m["norms.batch_norms_calls"] = profile.calls("norms", "batch_norms")
    m["norms.batch_norms_s"] = profile.cumulative("norms", "batch_norms")
    m["norms.kernel_setup_calls"] = profile.calls("norms", "__init__")
    m["norms.kernel_setup_s"] = profile.cumulative("norms", "__init__")
    m["norms.kernel_scale_calls"] = profile.calls("norms", "norms_at")
    m["norms.kernel_scale_s"] = profile.cumulative("norms", "norms_at")
    m["norms.kernel_fallbacks"] = profile.edge_calls(("norms", "norms_at"), ("norms", "batch_norms"))
    m["engine.decide_calls"] = profile.calls("engine", "decide_batch")
    calibrators = ("mc_calibrate", "build_combined", "mc_scale_minimax")
    m["engine.calibrations"] = sum(profile.calls("engine", f) for f in calibrators)
    m["engine.calibrate_s"] = sum(profile.cumulative("engine", f) for f in calibrators)
    m["power.power_curve_calls"] = profile.calls("power", "power_curve")
    m["power.power_curve_s"] = profile.cumulative("power", "power_curve")
    m["power.auto_grid_s"] = profile.cumulative("power", "auto_a_grid")
    m["power.grid_probes"] = profile.edge_calls(("power", "auto_a_grid"), ("power", "estimate_rejection_many"))
    m["consistency.sup_criterion_s"] = profile.cumulative("consistency", "sup_criterion")
    m["consistency.finite_criterion_s"] = profile.cumulative("consistency", "finite_p_criterion")
    m["traced_wall_s"] = traced_wall_s
    m["other_s"] = traced_wall_s - sum(self_s[layer] for layer in LAYERS)
    return m, profile.records(self_s)
