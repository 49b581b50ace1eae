"""p-norm statistics: the Exponent tag type and overflow-safe evaluation.

The supremum norm is a distinct tag (`SUP`), never a large float stand-in.
Finite-exponent norms are evaluated in max-factored form,

    ||y||_p = m * (sum (|y_i|/m)^p)^(1/p),   m = max_i |y_i|,

so arbitrarily large exponents (the power lab uses p beyond 55 at d in the
hundreds of thousands) cannot overflow.  A small exponent can: the root
``S_p^(1/p)`` raises a sum of up to d to the power 1/p, so at p = 0.001 and
d = 100 every norm is inf, and a Monte Carlo calibration on such a column
refuses its infinite critical value (`mc.empirical_upper_quantile`).

`_scaled_power_sums` is the one routine that computes power sums: on two
caller-owned scratch matrices it walks small integer exponents through one
sequential multiplication chain and shares the elementwise log across
non-integer exponents; `_power_split` sorts an exponent set into those two
groups once.  `_norms` is the one finish step, ``m * S_p^(1/p)``.
`batch_norms` (the untiled reference, also behind `engine.reject_matrix`
and `p_norm_stat`) calls both.  `ShiftedNormKernel`, the Monte Carlo hot
path, sums the noise off a sparse support once per tile and the shifted
support block once per shift, and joins the two under their common maximum
``M``,

    ||y||_p = M * (S_rest * (m_rest/M)^p + S_on * (m_on/M)^p)^(1/p).

The kernel is filled one row tile at a time, at most
``_TILE_ELEMENTS`` doubles per scratch buffer, or one row when d is larger
(the drawn tile and three scratch buffers, 2 MiB, stay near a 2 MiB per-core
L2 cache through the roughly twenty passes over a tile); every reduction in
it is per row, so a tile gives the same bits as the whole chunk.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, _require_positive

__all__ = ["Exponent", "SUP", "parse_exponent", "p_norm_stat", "batch_norms"]

_MAX_INT_CHAIN = 16  # small integer exponents evaluated by multiplication
_TILE_ELEMENTS = 2**16  # float64 elements per noise and scratch tile (512 KiB)


@dataclass(frozen=True)
class Exponent:
    """Norm exponent: a positive real, or the supremum norm when p is None."""

    p: float | None

    def __post_init__(self):
        if self.p is not None:
            p = _require_positive("finite norm exponent", float(self.p))
            object.__setattr__(self, "p", p)

    @staticmethod
    def finite(p: float) -> "Exponent":
        if p is None:
            raise DomainError("finite exponent requires a positive real")
        return Exponent(float(p))

    @property
    def is_sup(self) -> bool:
        return self.p is None

    @property
    def label(self) -> str:
        if self.is_sup:
            return "sup"
        p = self.p
        if float(p).is_integer() and p < 2**53:  # a larger one prints as a float
            return f"p={int(p)}"
        return f"p={p:.6g}"


SUP = Exponent(None)


def parse_exponent(text: str) -> Exponent:
    """Parse 'sup'/'inf' or a positive real, bare or as a test name's 'p=<x>'."""
    t = str(text).strip().lower().removeprefix("p=")
    if t in ("sup", "inf", "max", "infinity"):
        return SUP
    try:
        return Exponent.finite(float(t))
    except (TypeError, ValueError) as exc:
        raise DomainError(f"cannot parse norm exponent from {text!r}") from exc


def p_norm_stat(y, exponent: Exponent) -> float:
    """Norm statistic of a single observation vector, as `batch_norms` of
    its one row.

    Returns 0.0 on the zero vector; raises DomainError on an empty vector.
    """
    if not isinstance(exponent, Exponent):
        raise DomainError(f"exponent must be an Exponent, got {type(exponent)!r}")
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise DomainError("observation vector must be one-dimensional and non-empty")
    return float(batch_norms(y[None, :], [exponent])[exponent][0])


def _tile_rows(d: int) -> int:
    """Rows per Monte Carlo noise tile, and so per kernel fill, at dimension ``d``."""
    return max(1, _TILE_ELEMENTS // d)


@functools.lru_cache(maxsize=64)
def _power_split(exponents: tuple[Exponent, ...]) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The exponents' power sums as ``(chain, other)``: the ascending integer
    exponents up to ``_MAX_INT_CHAIN`` walked by the multiply chain, and the
    other finite ones, which share one log pass.  Cached per exponent tuple,
    so a Monte Carlo run resolves its split once, not once per tile."""
    finite = dict.fromkeys(e.p for e in exponents if not e.is_sup)
    chain = tuple(sorted(int(p) for p in finite if p.is_integer() and p <= _MAX_INT_CHAIN))
    return chain, tuple(p for p in finite if p not in chain)


def _scaled_power_sums(
    Z: np.ndarray, exponents: tuple[Exponent, ...], work: np.ndarray
) -> tuple[np.ndarray, dict[float, np.ndarray]]:
    """Row max ``m`` of the non-negative matrix ``Z`` and, for every finite
    exponent, the power sums ``sum_i (Z_i/m)^p`` keyed by ``p``.

    Divides ``Z`` by ``m`` in place; rows with ``m == 0``, an empty row
    included, keep zero sums.  ``work`` is two scratch matrices of ``Z``'s
    shape: the multiply chain (then the exp pass) and the log.
    """
    chain, logz = work
    m = Z.max(axis=1, initial=0.0)
    safe_m = np.where(m > 0.0, m, 1.0)
    Z /= safe_m[:, None]

    power_sums: dict[float, np.ndarray] = {}
    chain_targets, other = _power_split(exponents)
    if 1 in chain_targets:
        power_sums[1.0] = Z.sum(axis=1)
    for j in range(2, max(chain_targets, default=0) + 1):
        np.multiply(Z if j == 2 else chain, Z, out=chain)
        if j in chain_targets:
            power_sums[float(j)] = chain.sum(axis=1)

    if other:
        with np.errstate(divide="ignore"):
            np.log(Z, out=logz)
        # the chain's sums are taken, so its buffer is free for the exp pass
        for p in other:
            np.multiply(logz, p, out=chain)
            np.exp(chain, out=chain)
            power_sums[p] = chain.sum(axis=1)
    return m, power_sums


def batch_norms(Y: np.ndarray, exponents: Sequence[Exponent]) -> dict[Exponent, np.ndarray]:
    """Norm statistics of every row of ``Y`` for every requested exponent.

    Returns a dict keyed by exponent with float arrays of length
    ``Y.shape[0]``; rows that are identically zero get statistic 0.  The
    untiled reference: its scratch is allocated per call, three matrices of
    ``Y``'s shape.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] == 0:
        raise DomainError("batch_norms expects a non-empty (replications, d) matrix")
    m, power_sums = _scaled_power_sums(np.abs(Y), tuple(exponents), np.empty((2,) + Y.shape))
    return _norms(m, power_sums, exponents)


def _norms(m: np.ndarray, sums: dict[float, np.ndarray],
           exponents: Sequence[Exponent]) -> dict[Exponent, np.ndarray]:
    """The norms ``m * S_p^(1/p)`` from row maxima ``m`` and power sums
    ``S_p`` of the rows scaled by them, keyed by exponent; ``m`` for sup.
    A small exponent's norm that overflows is inf, without a warning."""
    with np.errstate(over="ignore"):
        return {e: m if e.is_sup else m * sums[e.p] ** (1.0 / e.p) for e in exponents}


class ShiftedNormKernel:
    """Incremental norm evaluation for mean shifts supported on few coordinates.

    Given a noise chunk ``eps`` and a support (column indices), the
    statistics of ``eps`` plus any shift supported there cost one
    `_scaled_power_sums` pass over ``|eps|`` with the support columns zeroed
    (row max ``m_rest``, sums ``S_rest``) plus one over the shifted support
    columns per shift (row max ``m_on``, sums ``S_on``), O(replications x
    support): with ``M = max(m_rest, m_on)``,

        ||y||_p = M * (S_rest * (m_rest/M)^p + S_on * (m_on/M)^p)^(1/p).

    Every scaled entry is at most 1 and nothing is subtracted, so no sum
    overflows or cancels.  With an empty support every norm is
    bit-identical to `batch_norms` of ``eps``: ``S_on`` is exactly 0 and
    ``(m_rest/M)^p`` exactly 1 (0 on an all-zero row).

    The kernel never sees the whole chunk: it is sized for ``rows`` rows and
    `fill` hands it the chunk one row tile at a time, with a ``(3, tile, d)``
    scratch array (``|y|``, the chain/exp pass and the log) that the caller
    owns and may share between kernels that fill in turn.  The kernel keeps
    no reference to it: what it holds is ``m_rest``, ``S_rest``, the support
    columns (rows x support) and the column ``y[:, 0]`` for `first_at`, so a
    filled kernel can outlive the chunk's buffers.  `fill` reduces the tile
    it is given: the caller (`mc.simulate_shifted`) adds a dense mean shift
    first.  ``max(axis=1)`` and the pairwise ``sum(axis=1)`` reduce each row
    over the same d elements in the same order, so any tiling gives the bits
    of one pass over the chunk.
    """

    def __init__(self, rows: int, support: np.ndarray, exponents: Sequence[Exponent]):
        self.exponents = tuple(exponents)
        self._support = np.asarray(support, dtype=np.intp)
        self._eps_support = np.empty((rows, self._support.size))
        self._first = np.empty(rows)
        self._max_rest = np.empty(rows)
        self._sum_rest = {e.p: np.empty(rows) for e in self.exponents if not e.is_sup}

    def fill(self, lo: int, tile: np.ndarray, scratch: np.ndarray) -> None:
        """Take rows ``lo .. lo + len(tile)`` of the noise chunk from ``tile``,
        working in ``scratch``, three matrices of at least its rows; ``tile``
        may be ``scratch[0]``, which then turns into ``|tile|`` in place."""
        hi = lo + tile.shape[0]
        self._eps_support[lo:hi] = tile[:, self._support]
        self._first[lo:hi] = tile[:, 0]
        scratch = scratch[:, : tile.shape[0]]
        Z = np.abs(tile, out=scratch[0])
        Z[:, self._support] = 0.0
        m, sums = _scaled_power_sums(Z, self.exponents, scratch[1:])
        self._max_rest[lo:hi] = m
        for p, s in sums.items():
            self._sum_rest[p][lo:hi] = s

    def norms_at(self, values: np.ndarray) -> dict[Exponent, np.ndarray]:
        """Norms of every row of ``eps`` with ``values`` added on the support."""
        shifted = np.abs(self._eps_support + np.asarray(values, dtype=float)[None, :])
        m_on, sum_on = _scaled_power_sums(shifted, self.exponents, np.empty((2,) + shifted.shape))
        M = np.maximum(self._max_rest, m_on)
        safe_M = np.where(M > 0.0, M, 1.0)
        rest, on = self._max_rest / safe_M, m_on / safe_M
        sums = {p: s * rest**p + sum_on[p] * on**p for p, s in self._sum_rest.items()}
        return _norms(M, sums, self.exponents)

    def first_at(self, values: np.ndarray) -> np.ndarray:
        """Column 0 of ``y`` with ``values`` added on the support, as `norms_at`."""
        return self._first + (values[0] if self._support[:1].tolist() == [0] else 0.0)
