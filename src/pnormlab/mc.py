"""Deterministic chunked Monte Carlo execution.

Reproducibility contract
------------------------
The replication index space ``0..R-1`` is split into fixed-size chunks.
Chunk ``c`` owns an independent RNG stream derived from
``SeedSequence(entropy=plan.seed, spawn_key=(c,))`` driving a PCG64
generator; Gaussian variates come from numpy's ziggurat
``standard_normal``.  Chunk results are combined by chunk index through
order-independent reductions (integer counts, concatenation followed by
sorting), so the worker count used to execute chunks can never change any
output.  Outputs are bit-identical for a fixed ``(seed, chunk_size,
replications, sampler)`` and a fixed numpy version; manifests record the
library versions alongside every run.

Common random numbers: streams are keyed on (seed, chunk, replication)
only.  Everything evaluated "for the same plan" sees the same noise
realizations, never re-keyed by test or alternative.

Execution: `run_chunked` runs chunks in a loop or on a pool of threads.
numpy's generator fills and large ufuncs release the GIL, so chunks on
different threads overlap; each chunk owns its generator and each thread
its `thread_workspace()`, so chunks share no mutable state.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .norms import Exponent, batch_norms
from .workspace import thread_workspace

__all__ = [
    "StandardNormal",
    "CustomSymmetric",
    "MonteCarloPlan",
    "chunk_generator",
    "run_chunked",
    "simulate_null_statistics",
]


@dataclass(frozen=True)
class StandardNormal:
    """Default error sampler: i.i.d. standard normal noise (ziggurat)."""

    name: str = "standard_normal"

    def draw(
        self,
        rng: np.random.Generator,
        shape: tuple[int, int],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        if out is not None and out.shape == shape:
            return rng.standard_normal(out=out)
        return rng.standard_normal(shape)


@dataclass(frozen=True)
class CustomSymmetric:
    """Pluggable symmetric error sampler for exploratory simulation.

    Only the standard normal sampler carries verified calibration theory;
    custom samplers are probed for rough symmetry at construction but
    otherwise taken on trust.  ``rule(rng, shape)`` must return an array of
    the requested shape.
    """

    rule: Callable[[np.random.Generator, tuple[int, int]], np.ndarray]
    name: str = "custom_symmetric"

    def __post_init__(self):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0)))
        probe = np.asarray(self.rule(rng, (4, 2048)), dtype=float)
        if probe.shape != (4, 2048):
            raise DomainError("custom sampler returned the wrong shape")
        scale = float(np.abs(probe).mean()) or 1.0
        if abs(float(probe.mean())) > 0.25 * scale:
            raise DomainError(
                "custom sampler looks asymmetric (probe mean far from zero)"
            )

    def draw(
        self,
        rng: np.random.Generator,
        shape: tuple[int, int],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        drawn = np.asarray(self.rule(rng, shape), dtype=float)
        if drawn.shape != shape:
            raise DomainError("custom sampler returned the wrong shape")
        return drawn


@dataclass(frozen=True)
class MonteCarloPlan:
    """Replication count, base seed, and chunking of one simulation.

    The triple (replications, seed, chunk_size) plus the sampler fully
    determines every simulated draw; chunk_size is part of the identity
    because it delimits the per-chunk RNG streams.
    """

    replications: int
    seed: int
    chunk_size: int = 128
    sampler: StandardNormal | CustomSymmetric = field(default_factory=StandardNormal)

    def __post_init__(self):
        if int(self.replications) < 1:
            raise ConfigError("replications must be >= 1")
        if int(self.chunk_size) < 1:
            raise ConfigError("chunk_size must be >= 1")
        seed = int(self.seed)
        if not (0 <= seed < 2**64):
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "replications", int(self.replications))
        object.__setattr__(self, "chunk_size", int(self.chunk_size))
        object.__setattr__(self, "seed", seed)

    @property
    def n_chunks(self) -> int:
        return -(-self.replications // self.chunk_size)

    def chunk_bounds(self) -> list[tuple[int, int, int]]:
        """(chunk_index, start, size) covering the replication space."""
        out = []
        for c in range(self.n_chunks):
            start = c * self.chunk_size
            size = min(self.chunk_size, self.replications - start)
            out.append((c, start, size))
        return out

    def descriptor(self) -> str:
        return (
            f"seed={self.seed} replications={self.replications} "
            f"chunk_size={self.chunk_size} sampler={self.sampler.name}"
        )

    def with_replications(self, replications: int) -> "MonteCarloPlan":
        return MonteCarloPlan(replications=replications, seed=self.seed,
                              chunk_size=self.chunk_size, sampler=self.sampler)


def chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    """The RNG stream owned by one chunk."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(chunk_index),))
    return np.random.Generator(np.random.PCG64(ss))


def run_chunked(task, plan: MonteCarloPlan, workers: int = 1) -> list:
    """Run ``task(chunk_index, start, size)`` over all chunks of the plan.

    Results are returned in chunk order regardless of completion order or
    worker count.  ``workers == 1`` runs the chunks in a loop on the calling
    thread; more workers run them on at most ``os.cpu_count()`` threads, and
    no more than there are chunks.  Tasks take their buffers from
    `thread_workspace()`, so concurrent chunks never share one.  The first
    chunk that raises ends the run: chunks not yet started are cancelled and
    its error propagates.  Raises ConfigError when ``workers < 1``.
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

    def chunk_stats(chunk_index: int, start: int, size: int) -> list[np.ndarray]:
        ws = thread_workspace()
        rng = chunk_generator(plan.seed, chunk_index)
        eps = plan.sampler.draw(rng, (size, d), out=ws.buf("eps", (size, d)))
        norms = batch_norms(eps, exps, workspace=ws)
        return [norms[e] for e in exps]

    per_chunk = run_chunked(chunk_stats, plan, workers=workers)
    out: dict[Exponent, np.ndarray] = {}
    for j, e in enumerate(exps):
        out[e] = np.concatenate([chunk[j] for chunk in per_chunk])
    return out


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
