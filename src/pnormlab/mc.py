"""Deterministic chunked Monte Carlo execution.

Reproducibility contract
------------------------
A plan is the pair ``(replications, seed)``.  The replication index space
``0..R-1`` is split into fixed chunks of `MonteCarloPlan.chunk_size` = 128
rows.  Chunk ``c`` owns an independent RNG stream derived from
``SeedSequence(entropy=plan.seed, spawn_key=(c,))`` driving a PCG64
generator; Gaussian variates come from numpy's ziggurat
``standard_normal`` through `draw`.  Chunk results are combined by chunk
index through order-independent reductions (integer counts, concatenation
followed by sorting), so the worker count used to execute chunks can never
change any output.  Outputs are bit-identical for a fixed ``(seed,
replications)``, a fixed numpy version and a fixed SIMD target of numpy's
float64 ``exp``, ``log`` and ``power`` (across targets an elementwise value
can move by about an ulp).  Manifests record the library versions and
that target (`report.numpy_dispatch`) alongside every run.

Common random numbers: streams are keyed on (seed, chunk, replication)
only.  Everything evaluated "for the same plan" sees the same noise
realizations, never re-keyed by test or alternative.

One chunk pass: `simulate_shifted` draws each chunk once and evaluates the
noise plus every requested mean shift through a `ShiftedNormKernel`, for
null calibration and rejection counts alike.  A shift is a pair ``(unit,
scale)``, the mean ``scale * unit``, so the shifts of a power curve share
one `Unit` and no shift is ever a d-row of its own.  A unit on few enough
coordinates for a sparse kernel (`_joins_sparse_kernel`) is held by its
support and values; such a shift, the zero shift included, joins the kernel
of the widest such support containing its own and costs O(replications x
support).  Any other unit is one dense row, and each of its shifts gets an
empty-support kernel that the chunk pass fills from every tile plus ``scale
* unit``, added in the chunk's scratch: one full pass bit-identical to
`batch_norms` of the shifted noise.  The chunk pass is the one place that
adds a dense shift; a kernel reduces the tile it is handed.  The chunk is
drawn one row tile of `norms._tile_rows` rows at a time; each tile fills
every kernel before the next tile overwrites it.
Successive tile draws consume the chunk's generator in the order one
whole-chunk draw does (pinned by ``tests/test_mc.py::TestTiledDraws``), so
the chunk, not the tile, stays the unit of the RNG stream.  A chunk
allocates one block of `_CHUNK_BUFFERS` tile buffers, the noise tile and the
three norm scratch matrices its kernels share as they fill in turn, never a
128 x d chunk.  The visits run once per chunk and shift, after its last
tile, as ``visit(norms, first)``: the argument order of ``decide_batch``,
with ``first`` the shifted column ``eps[:, 0] + theta_0``, the one
coordinate a test reads (the spike detector of `engine.EnhancedTest`); a
kernel keeps column 0 of the rows it is handed and gives it in `first_at`.
Kernels are filled for a pass and dropped with it, unless the caller hands
`simulate_shifted` a store: a mapping it owns that holds filled kernels
only, under exact keys (plan seed, chunk, rows, d, the exponents and the
support, or the full pass's ``(unit, scale)``); a dict is read and written,
any other mapping only read.  A later pass on the same plan takes what
matches and draws a chunk only to fill what is missing, so
`power.power_curve` lets its auto-grid probes fill kernels that its curve
reads.  A kernel holds no tile buffer, so a stored one keeps only its
chunk-height columns; a reused kernel gives the bits of a fresh fill.
There is no store across calls of the library.
Sums are max-factored and add the off-support part, never subtract it, so
norms agree with the direct evaluation to a relative 1e-13 even at
exponents near 60 with the row maximum on the support or cancelled by the
shift (pinned by ``tests/test_norms.py::TestShiftedNormKernel``).

Execution: `run_chunked` runs chunks in a loop or on a pool of threads.
numpy's generator fills and large ufuncs release the GIL, so chunks on
different threads overlap; each chunk owns its generator and its buffers,
so chunks share no mutable state but a store, where each chunk reads and
writes only the keys of its own index.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, ClassVar, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .norms import Exponent, ShiftedNormKernel, _tile_rows

__all__ = [
    "MonteCarloPlan",
    "draw",
    "chunk_generator",
    "run_chunked",
    "Unit",
    "simulate_shifted",
    "simulate_null_statistics",
]

_SPARSE_SUPPORT_FRACTION = 0.2  # shared kernel up to this support share
_CHUNK_BUFFERS = 4  # tile buffers a chunk allocates: the noise and three norm scratch


def draw(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the next ``out.size`` standard normals of ``rng``."""
    return rng.standard_normal(out=out)


@dataclass(frozen=True)
class MonteCarloPlan:
    """Replication count and base seed of one simulation.

    The pair (replications, seed) fully determines every simulated draw:
    the replications are cut into chunks of the fixed `chunk_size` rows,
    each with its own RNG stream.  `descriptor` names the chunk size and the
    standard normal sampler for provenance strings.
    """

    replications: int
    seed: int
    chunk_size: ClassVar[int] = 128

    def __post_init__(self):
        if int(self.replications) < 1:
            raise ConfigError("replications must be >= 1")
        seed = int(self.seed)
        if not (0 <= seed < 2**64):
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "replications", int(self.replications))
        object.__setattr__(self, "seed", seed)

    @property
    def n_chunks(self) -> int:
        return -(-self.replications // self.chunk_size)

    def chunk_bounds(self) -> list[tuple[int, int, int]]:
        """(chunk_index, start, size) covering the replication space."""
        size = self.chunk_size
        return [(c, start, min(size, self.replications - start))
                for c, start in enumerate(range(0, self.replications, size))]

    def descriptor(self) -> str:
        return (
            f"seed={self.seed} replications={self.replications} "
            f"chunk_size={self.chunk_size} sampler=standard_normal"
        )

    def with_replications(self, replications: int) -> "MonteCarloPlan":
        return MonteCarloPlan(replications=replications, seed=self.seed)


def chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    """The RNG stream owned by one chunk."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(chunk_index),))
    return np.random.Generator(np.random.PCG64(ss))


def run_chunked(task, plan: MonteCarloPlan, workers: int = 1) -> list:
    """Run ``task(chunk_index, start, size)`` over all chunks of the plan.

    Results are returned in chunk order regardless of completion order or
    worker count.  ``workers == 1`` runs the chunks in a loop on the calling
    thread; more workers run them on at most ``os.cpu_count()`` threads, and
    no more than there are chunks.  The first chunk that raises ends the
    run: chunks not yet started are cancelled and its error propagates.
    Raises ConfigError when ``workers < 1``.
    """
    workers = int(workers)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    bounds = plan.chunk_bounds()
    workers = min(workers, len(bounds), os.cpu_count() or 1)
    if workers == 1:
        return [task(c, start, size) for c, start, size in bounds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, *zip(*bounds)))


def _joins_sparse_kernel(size: int, d: int) -> bool:
    """Whether a shift on ``size`` of ``d`` coordinates joins a sparse kernel:
    at most `_SPARSE_SUPPORT_FRACTION` of d, and the kernel's chunk-height
    support block (`MonteCarloPlan.chunk_size` x size) no larger than the
    chunk's own block of `_CHUNK_BUFFERS` tiles."""
    return (size <= _SPARSE_SUPPORT_FRACTION * d
            and size * MonteCarloPlan.chunk_size <= _CHUNK_BUFFERS * _tile_rows(d) * d)


def _finite(values) -> np.ndarray:
    """``values`` as floats, refused when any entry is NaN or infinite."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise DomainError("a mean vector needs finite entries")
    return values


@dataclass(frozen=True, eq=False)
class Unit:
    """A mean-shift direction at dimension ``d``: a shift is ``scale * unit``.

    When a sparse kernel takes its nonzero entries (`_joins_sparse_kernel`)
    the unit is held by their ascending ``support`` and the ``values``
    there; otherwise ``support`` is None and ``values`` is the whole dense
    row.  Build one with `from_runs`, which refuses a NaN or infinite entry.
    """

    d: int
    support: np.ndarray | None
    values: np.ndarray

    @classmethod
    def from_runs(cls, values, counts) -> "Unit":
        """The unit that repeats ``values[j]`` ``counts[j]`` times, in order,
        as `consistency.AlternativeFamily.runs` describes a family; a sparse
        unit costs its support and the runs, never d."""
        values = _finite(values)
        counts = np.asarray(counts).astype(np.int64)
        keep = values != 0.0
        kept = counts[keep]
        d, size = int(counts.sum()), int(kept.sum())
        if not _joins_sparse_kernel(size, d):
            return cls(d, None, np.repeat(values, counts))
        # run j's k-th kept entry sits at its run start + k
        starts = np.cumsum(counts)[keep] - kept
        support = np.repeat(starts - (np.cumsum(kept) - kept), kept) + np.arange(size)
        return cls(d, support.astype(np.intp), np.repeat(values[keep], kept))

    @property
    def size(self) -> int:
        """The number of nonzero entries: ``len(support)`` for a sparse unit."""
        return int(np.count_nonzero(self.values)) if self.support is None else len(self.support)

    def at(self, coords: np.ndarray) -> np.ndarray:
        """The unit's entries at the coordinates ``coords``."""
        if self.support is None:
            return self.values[coords]
        pos = np.searchsorted(self.support, coords)
        pos[~np.isin(coords, self.support)] = self.values.size  # the appended zero
        return np.append(self.values, 0.0)[pos]


def simulate_shifted(shifts: Sequence[tuple[Unit, float]], exponents: Sequence[Exponent],
                     plan: MonteCarloPlan, visit: Callable[..., object], workers: int = 1,
                     store: Mapping | None = None) -> list[list]:
    """Draw each chunk of ``plan`` once and call ``visit(norms, first)`` for
    every shift ``(unit, scale)``, the mean ``theta = scale * unit``, with
    ``norms`` the statistics of ``eps + theta`` and ``first`` its column
    ``eps[:, 0] + theta_0``; neither the chunk ``eps`` nor any ``theta`` is
    ever held whole.  A sparse kernel adds its shifts on its support in
    `ShiftedNormKernel.norms_at` and `ShiftedNormKernel.first_at`; for a
    dense unit this pass adds ``scale * unit`` to every tile of a full pass.
    Returns each chunk's visit results, in chunk order.

    ``store``, a mapping the caller owns, holds filled kernels only.  A chunk
    takes from it the kernels whose key matches exactly: plan seed, chunk
    index, row count and d, the exponent tuple, and the kernel's support, or
    for a full pass its shift ``(unit, scale)`` with the unit held by
    reference.  The chunk is drawn only when one of its kernels is missing,
    and then fills only those, which it adds to ``store`` when that is a
    dict; any other mapping is only read.  A stored kernel holds the bits a
    fresh fill would give."""
    dims = {unit.d for unit, _ in shifts}
    if len(dims) != 1:
        raise DomainError(f"need one or more shifts of one dimension, got {sorted(dims)}")
    d = dims.pop()
    exps = tuple(exponents)
    tile = _tile_rows(d)
    empty = np.array([], dtype=np.intp)
    sizes = [unit.size if scale != 0.0 else 0 for unit, scale in shifts]
    # (support, offset, rows): one kernel over support on eps + offset; a
    # full pass is keyed by its (unit, scale), a sparse kernel by its support
    full, sparse = [], []
    for si in sorted(range(len(shifts)), key=lambda i: -sizes[i]):
        unit, scale = shifts[si]
        if sizes[si] and unit.support is None:
            full.append(((unit, scale), (empty, (unit.values, scale), [si])))
            continue
        own = unit.support if sizes[si] else empty
        for _, (support, _, rows) in sparse:
            if np.isin(own, support).all():
                rows.append(si)
                break
        else:
            sparse.append((own.tobytes(), (own, None, [si])))
    keys, groups = zip(*(full + sparse))
    # each shift's values on its kernel's support
    on_support = [None] * len(shifts)
    for support, _, rows in groups:
        for si in rows:
            unit, scale = shifts[si]
            on_support[si] = np.multiply(unit.at(support), scale)
    if store is None:
        store = MappingProxyType({})

    def chunk_pass(chunk_index: int, start: int, size: int) -> list:
        names = [(plan.seed, chunk_index, size, d, exps, key) for key in keys]
        kernels = [store.get(name) for name in names]
        todo = [gi for gi, kernel in enumerate(kernels) if kernel is None]
        if todo:
            rng = chunk_generator(plan.seed, chunk_index)
            # row 0 takes each noise tile; the others are the kernels' shared
            # scratch, where a full pass first adds its shift to the tile
            block = np.empty((_CHUNK_BUFFERS, min(tile, size), d))
            for gi in todo:
                kernels[gi] = ShiftedNormKernel(size, groups[gi][0], exps)
            for lo in range(0, size, tile):
                eps = draw(rng, block[0, : min(tile, size - lo)])
                for gi in todo:
                    offset, y = groups[gi][1], eps
                    if offset is not None:  # a full pass reduces eps + scale * unit
                        shift = np.multiply(*offset, out=block[2, 0])
                        y = np.add(eps, shift, out=block[1, : len(eps)])
                    kernels[gi].fill(lo, y, block[1:])
            if isinstance(store, dict):
                store.update(zip(names, kernels))
        out = [None] * len(shifts)
        for kernel, (_, _, rows) in zip(kernels, groups):
            for si in rows:
                values = on_support[si]
                out[si] = visit(kernel.norms_at(values), kernel.first_at(values))
        return out

    return run_chunked(chunk_pass, plan, workers=workers)


def simulate_null_statistics(
    d: int,
    exponents: Sequence[Exponent],
    plan: MonteCarloPlan,
    workers: int = 1,
) -> dict[Exponent, np.ndarray]:
    """Simulate ``plan.replications`` null vectors and return the joint draws
    of every requested norm statistic, aligned by replication index.

    All exponents are evaluated on the *same* simulated noise, so the
    returned columns carry the joint null law needed to calibrate combined
    tests coherently.
    """
    d = int(d)
    if d < 1:
        raise DomainError("dimension must be >= 1")
    exps = tuple(dict.fromkeys(exponents))
    if not exps:
        raise DomainError("at least one exponent is required")
    zero = Unit.from_runs([0.0], [d])  # empty support: one kernel, no shift
    chunks = simulate_shifted([(zero, 0.0)], exps, plan, lambda norms, first: norms, workers)
    return {e: np.concatenate([chunk[0][e] for chunk in chunks]) for e in exps}


def empirical_upper_quantile(values: np.ndarray, alpha: float) -> float:
    """Conservative empirical critical value: the ceil(R*(1-alpha))-th order
    statistic (no interpolation), keeping empirical size within 1/R of alpha.
    """
    values = np.asarray(values, dtype=float)
    r = values.size
    if r == 0:
        raise DomainError("cannot take a quantile of an empty sample")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    k = math.ceil(r * (1.0 - alpha))
    k = min(max(k, 1), r)
    return float(np.partition(values, k - 1)[k - 1])
