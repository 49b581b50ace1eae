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
replications)`` and a fixed numpy version; manifests record the library
versions alongside every run.

Common random numbers: streams are keyed on (seed, chunk, replication)
only.  Everything evaluated "for the same plan" sees the same noise
realizations, never re-keyed by test or alternative.

One chunk pass: `simulate_shifted` draws each chunk once and evaluates the
noise plus every requested mean shift through a `ShiftedNormKernel`, for
null calibration and rejection counts alike.  A shift on at most
``_SPARSE_SUPPORT_FRACTION * d`` coordinates, the zero shift included, joins
the kernel of the widest such support containing its own and costs
O(replications x support); any other shift gets an empty-support kernel
with the shift as its ``offset``, one full pass bit-identical to
`batch_norms` of the shifted noise.  The chunk is drawn one row tile of
`norms._tile_rows` rows at a time; each tile fills every kernel and the
visit's coordinate columns before the next tile overwrites it.  Successive
tile draws consume the chunk's generator in the order one whole-chunk draw
does (pinned by ``tests/test_mc.py::TestTiledDraws``), so the chunk, not the
tile, stays the unit of the RNG stream.  A chunk allocates one block of four
tile buffers, the noise tile and the three norm scratch matrices its kernels
share as they fill in turn, never a 128 x d chunk.  The visits run once per
chunk and shift, after its last tile.
Sums are max-factored and add the off-support part, never subtract it, so
norms agree with the direct evaluation to a relative 1e-13 even at
exponents near 60 with the row maximum on the support or cancelled by the
shift (pinned by ``tests/test_norms.py::TestShiftedNormKernel``).

Execution: `run_chunked` runs chunks in a loop or on a pool of threads.
numpy's generator fills and large ufuncs release the GIL, so chunks on
different threads overlap; each chunk owns its generator and its buffers,
so chunks share no mutable state.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .norms import Exponent, ShiftedNormKernel, _tile_rows

__all__ = [
    "MonteCarloPlan",
    "draw",
    "chunk_generator",
    "run_chunked",
    "simulate_shifted",
    "simulate_null_statistics",
]

_SPARSE_SUPPORT_FRACTION = 0.2  # shared kernel up to this support share


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


def simulate_shifted(shifts, exponents: Sequence[Exponent], plan: MonteCarloPlan,
                     visit: Callable[..., object], workers: int = 1,
                     coordinates: Sequence[int] = ()) -> list[list]:
    """Draw each chunk of ``plan`` once and call ``visit(columns, theta, norms)``
    for every row ``theta`` of the ``(n, d)`` matrix ``shifts``, with ``norms``
    the statistics of ``eps + theta`` and ``columns`` the noise columns
    ``{i: eps[:, i]}`` of the requested ``coordinates``; the chunk ``eps``
    itself is never held whole.  Returns each chunk's visit results, in chunk
    order."""
    shifts = np.asarray(shifts, dtype=float)
    d = shifts.shape[1]
    exps = tuple(exponents)
    coords = np.asarray(coordinates, dtype=np.intp)
    tile = _tile_rows(d)
    sizes = np.count_nonzero(shifts, axis=1)
    # (support, offset, rows): one kernel over support on eps + offset
    full, sparse = [], []
    for si in sorted(range(len(shifts)), key=lambda i: -sizes[i]):
        if sizes[si] > _SPARSE_SUPPORT_FRACTION * d:
            full.append((np.array([], dtype=np.intp), shifts[si], [si]))
            continue
        own = np.flatnonzero(shifts[si])
        for support, _, rows in sparse:
            if np.isin(own, support).all():
                rows.append(si)
                break
        else:
            sparse.append((own, None, [si]))
    groups = full + sparse

    def chunk_pass(chunk_index: int, start: int, size: int) -> list:
        rng = chunk_generator(plan.seed, chunk_index)
        # row 0 takes each noise tile; rows 1-3 are the kernels' shared scratch
        block = np.empty((4, min(tile, size), d))
        kernels = [ShiftedNormKernel(size, support, exps, block[1:], offset=offset)
                   for support, offset, _ in groups]
        gathered = np.empty((size, coords.size))
        for lo in range(0, size, tile):
            eps = draw(rng, block[0, : min(tile, size - lo)])
            gathered[lo : lo + len(eps)] = eps[:, coords]
            for kernel in kernels:
                kernel.fill(lo, eps)
        columns = {int(i): gathered[:, j] for j, i in enumerate(coords)}
        out = [None] * len(shifts)
        for kernel, (support, _, rows) in zip(kernels, groups):
            for si in rows:
                out[si] = visit(columns, shifts[si], kernel.norms_at(shifts[si, support]))
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
    chunks = simulate_shifted(np.zeros((1, d)), exps, plan, lambda cols, theta, norms: norms, workers)
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
