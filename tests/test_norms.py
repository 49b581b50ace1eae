import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pnormlab.engine import member_exponents
from pnormlab.errors import DomainError
from pnormlab.norms import (
    SUP,
    Exponent,
    ShiftedNormKernel,
    _scaled_power_sums,
    _tile_rows,
    batch_norms,
    p_norm_stat,
    parse_exponent,
)


# the 13 exponents a figure-3 desk run reads: p=1..8 (the singles and the
# minimax ladder), sup and the exp-preset combined ladder at d = 1e4
DESK_UNION = tuple(dict.fromkeys(
    [Exponent.finite(p) for p in range(1, 9)] + [SUP]
    + [Exponent.finite(p) for p in member_exponents(10_000)[1]]))


def _direct_norm(y, e: Exponent) -> float:
    """The norm as one scaled power sum ``m * sum((|y|/m)^p)^(1/p)``, written
    apart from `_scaled_power_sums` (no multiply chain, no shared log)."""
    a = np.abs(np.asarray(y, dtype=float))
    m = float(a.max())
    if e.is_sup or m == 0.0:
        return m
    return m * float(np.sum((a / m) ** e.p)) ** (1.0 / e.p)


def _longdouble_norm(y, e: Exponent) -> float:
    """The norm summed unscaled in extended precision."""
    a = np.abs(np.asarray(y, dtype=np.longdouble))
    if e.is_sup:
        return float(a.max())
    p = np.longdouble(e.p)
    return float(np.sum(a**p) ** (np.longdouble(1.0) / p))


class TestExponent:
    def test_finite_validation(self):
        assert Exponent.finite(2.5).p == 2.5
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                Exponent.finite(bad)
        # None is the sup norm's p, never a finite exponent
        with pytest.raises(DomainError, match="finite exponent requires a positive real"):
            Exponent.finite(None)

    def test_sup_is_a_distinct_tag(self):
        assert SUP.is_sup
        assert SUP.p is None
        assert SUP != Exponent.finite(1e300)

    def test_labels_and_parsing(self):
        assert Exponent.finite(2.0).label == "p=2"
        assert SUP.label == "sup"
        # an integer prints in full only below 2**53, where floats are exact
        # integers; 1e308 would print 309 digits into a file name
        assert Exponent.finite(2.0**53 - 1).label == "p=9007199254740991"
        assert Exponent.finite(2.0**53).label == "p=9.0072e+15"
        assert Exponent.finite(1e308).label == "p=1e+308"
        assert parse_exponent("sup") == SUP
        assert parse_exponent("3.5") == Exponent.finite(3.5)
        # a test name's spelling
        assert parse_exponent(" P=2 ") == parse_exponent("2") == Exponent.finite(2.0)
        for bad in ("nope", "p=", "p=p=2"):
            with pytest.raises(DomainError):
                parse_exponent(bad)


class TestPNormStat:
    def test_euclidean(self):
        assert p_norm_stat([3.0, 4.0], Exponent.finite(2)) == pytest.approx(5.0, rel=1e-15)

    def test_ones_vector(self):
        d, p = 37, 3.0
        assert p_norm_stat(np.ones(d), Exponent.finite(p)) == pytest.approx(
            d ** (1.0 / p), rel=1e-14
        )

    def test_sup(self):
        assert p_norm_stat([-2.0, 1.0], SUP) == 2.0

    def test_zero_vector(self):
        assert p_norm_stat(np.zeros(5), Exponent.finite(0.7)) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            p_norm_stat([], Exponent.finite(2))

    def test_exponent_must_be_an_exponent(self):
        with pytest.raises(DomainError, match="exponent must be an Exponent, got <class 'float'>"):
            p_norm_stat([3.0, 4.0], 2.0)

    def test_huge_exponent_no_overflow_sign_pattern(self):
        # +-10 entries, p = e^4 + 1, d = 1e5: closed form 10 * d**(1/p)
        p = math.e**4 + 1.0
        y = np.full(100_000, 10.0)
        y[::2] *= -1.0
        got = p_norm_stat(y, Exponent.finite(p))
        assert math.isfinite(got)
        assert got == pytest.approx(10.0 * 100_000 ** (1.0 / p), rel=1e-12)

    def test_huge_exponent_vs_extended_precision_oracle(self, rng):
        # mixed magnitudes large enough to overflow the naive power sum
        p = math.e**4 + 1.0
        y = rng.normal(scale=1e6, size=64)
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.sum(np.abs(y) ** p))  # naive evaluation fails
        got = p_norm_stat(y, Exponent.finite(p))
        assert got == pytest.approx(_longdouble_norm(y, Exponent.finite(p)), rel=1e-10)


class TestBatchNorms:
    def test_matches_scalar_path(self, rng):
        Y = rng.normal(size=(40, 230))
        Y[7] = 0.0
        exps = [Exponent.finite(p) for p in (0.5, 1, 2, 3, 4, 8, 11.3, 55.6)] + [SUP]
        norms = batch_norms(Y, exps)
        for e in exps:
            ref = np.array([_direct_norm(row, e) for row in Y])
            np.testing.assert_allclose(norms[e], ref, rtol=1e-12)

    def test_matches_extended_precision_oracle(self, rng):
        # every exponent a desk run reads, and the off-ladder 0.5, 11.3 and
        # 55.6, through `batch_norms`, a sparse kernel and `p_norm_stat`
        assert len(DESK_UNION) == 13
        exps = list(DESK_UNION) + [Exponent.finite(p) for p in (0.5, 11.3, 55.6)]
        Y = rng.normal(size=(8, 500))
        Y[3] = 0.0
        support = np.array([0, 9, 250])
        values = np.array([3.0, -2.0, 0.5])
        kernel = _kernel(Y, support, exps)
        shifted = Y.copy()
        shifted[:, support] += values
        for got, rows in ((batch_norms(Y, exps), Y), (kernel.norms_at(values), shifted)):
            for e in exps:
                oracle = np.array([_longdouble_norm(row, e) for row in rows])
                np.testing.assert_allclose(got[e], oracle, rtol=1e-13, atol=0.0)
        for e in exps:
            assert p_norm_stat(Y[0], e) == pytest.approx(_longdouble_norm(Y[0], e), rel=1e-13)

    def test_norm_inequality_chain_10k_vectors(self, rng):
        # sup <= ||.||_q <= ||.||_p for 1 <= p <= q, on every vector
        Y = rng.normal(scale=2.0, size=(10_000, 60))
        ps = [1.0, 1.5, 2.0, 3.0, 7.0, 21.0855]
        exps = [Exponent.finite(p) for p in ps] + [SUP]
        norms = batch_norms(Y, exps)
        tol = 1.0 + 1e-12
        for lo, hi in zip(ps[:-1], ps[1:]):
            assert np.all(
                norms[Exponent.finite(hi)] <= norms[Exponent.finite(lo)] * tol
            )
        assert np.all(norms[SUP] <= norms[Exponent.finite(ps[-1])] * tol)

    def test_power_sums_of_an_empty_block_are_zero(self):
        # a kernel's support block on an empty support has no columns
        Z = np.empty((6, 0))
        m, sums = _scaled_power_sums(Z, DESK_UNION, np.empty((2, 6, 0)))
        assert np.array_equal(m, np.zeros(6))
        assert sorted(sums) == sorted(e.p for e in DESK_UNION if not e.is_sup)
        for s in sums.values():
            assert np.array_equal(s, np.zeros(6))

    def test_rejects_bad_shapes(self):
        with pytest.raises(DomainError):
            batch_norms(np.zeros((0, 3)).reshape(0, 3)[:, :0], [SUP])
        with pytest.raises(DomainError):
            batch_norms(np.zeros(5), [SUP])


def _kernel(eps, support, exps, offset=None):
    """A kernel filled from ``eps`` in the row tiles a Monte Carlo chunk uses;
    an ``offset`` pair ``(unit, scale)`` is added to each tile in the scratch,
    as `mc.simulate_shifted` does for a full pass."""
    tile = _tile_rows(eps.shape[1])
    scratch = np.empty((3, min(tile, len(eps)), eps.shape[1]))
    kernel = ShiftedNormKernel(len(eps), support, exps)
    for lo in range(0, len(eps), tile):
        y = eps[lo : lo + tile]
        if offset is not None:
            y = np.add(y, np.multiply(*offset, out=scratch[1, 0]), out=scratch[0, : len(y)])
        kernel.fill(lo, y, scratch)
    return kernel


class TestShiftedNormKernel:
    def test_matches_direct_evaluation(self, rng):
        eps = rng.normal(size=(64, 400))
        support = np.array([0, 5, 17, 399])
        values = np.array([2.0, -1.0, 0.5, 3.0])
        exps = [Exponent.finite(p) for p in (1, 2, 3.3, 8)] + [SUP]
        kernel = _kernel(eps, support, exps)
        for a in (0.0, 0.7, 2.5):
            shifted = eps.copy()
            shifted[:, support] += a * values
            direct = batch_norms(shifted, exps)
            incr = kernel.norms_at(a * values)
            for e in exps:
                np.testing.assert_allclose(incr[e], direct[e], rtol=1e-9)
            assert np.array_equal(kernel.first_at(a * values), shifted[:, 0])

    # adversarial: a 4-8 sigma row maximum on the support, exponents up to 60,
    # and the scale that cancels it; the first example is the case where an
    # unfactored ``total - on_support`` cancels to 0 at every row
    @settings(max_examples=200, deadline=None)
    @example(seed=0, rows=4, d=100, peak=8.0, values=[1.0], ps=[55.598], scale=1.0)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 8),
        d=st.integers(20, 300),
        peak=st.floats(4.0, 8.0) | st.floats(-8.0, -4.0),
        values=st.lists(st.floats(0.1, 3.0) | st.floats(-3.0, -0.1), min_size=1, max_size=5),
        ps=st.lists(st.integers(1, 16).map(float) | st.floats(0.5, 60.0), min_size=1, max_size=4),
        scale=st.floats(-10.0, 10.0),
    )
    def test_hard_cases_match_direct_evaluation(self, seed, rows, d, peak, values, ps, scale):
        eps = np.random.default_rng(seed).standard_normal((rows, d))
        values = np.array(values)
        support = np.arange(0, d, d // values.size)[: values.size]
        eps[:, support[0]] = peak
        exps = [Exponent.finite(p) for p in ps] + [SUP]
        kernel = _kernel(eps, support, exps)
        for a in (0.0, scale, -peak / values[0]):
            shifted = eps.copy()
            shifted[:, support] += a * values
            direct = batch_norms(shifted, exps)
            incr = kernel.norms_at(a * values)
            for e in exps:
                np.testing.assert_allclose(incr[e], direct[e], rtol=1e-13, atol=0.0)

    def test_empty_support_is_batch_norms(self, rng):
        eps = rng.normal(size=(32, 300))
        eps[7] = 0.0
        exps = [Exponent.finite(p) for p in (1, 2, 3, 4, 8, 16, 0.5, 2.5, 55.598)] + [SUP]
        kernel = _kernel(eps, np.array([], dtype=np.intp), exps)
        got = kernel.norms_at(np.array([]))
        want = batch_norms(eps, exps)
        for e in exps:
            assert np.array_equal(got[e], want[e])

    # row counts that are not multiples of the tile height, at d on both sides
    # of the one-tile threshold (d = 1310 for 50 rows); the example tiles 50
    # rows as 3 x 13 + 11
    @settings(max_examples=60, deadline=None)
    @example(seed=1, rows=50, d=5000, width=0, dense=True, ps=[1.0, 2.0, 2.5, 55.598])
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 50),
        d=st.integers(500, 5000),
        width=st.integers(0, 6),
        dense=st.booleans(),
        ps=st.lists(st.integers(1, 16).map(float) | st.floats(0.5, 60.0), min_size=1, max_size=4),
    )
    def test_row_tiles_match_the_whole_chunk(self, seed, rows, d, width, dense, ps):
        rng = np.random.default_rng(seed)
        eps = rng.standard_normal((rows, d))
        offset = (rng.normal(size=d), 0.5) if dense else None
        support = rng.choice(d, size=width, replace=False)
        values = rng.normal(scale=2.0, size=width)
        exps = [Exponent.finite(p) for p in ps] + [SUP]
        incr = _kernel(eps, support, exps, offset=offset).norms_at(values)
        shifted = eps.copy() if offset is None else eps + offset[0] * offset[1]
        shifted[:, support] += values
        direct = batch_norms(shifted, exps)
        for e in exps:
            if width == 0:
                assert np.array_equal(incr[e], direct[e])
            else:
                np.testing.assert_allclose(incr[e], direct[e], rtol=1e-13, atol=0.0)

    def test_tile_height_from_dimension(self):
        assert _tile_rows(100) >= 128  # small d: one pass over a 128-row chunk
        assert 1 < _tile_rows(10_000) < 128
        assert _tile_rows(10**7) == 1

    def test_overflow_falls_back_to_factored_path(self, rng):
        eps = rng.normal(scale=1e60, size=(16, 50))
        support = np.array([0])
        values = np.array([1.0])
        exps = [Exponent.finite(8.0)]
        kernel = _kernel(eps, support, exps)
        got = kernel.norms_at(values)[exps[0]]
        shifted = eps.copy()
        shifted[:, 0] += 1.0
        ref = batch_norms(shifted, exps)[exps[0]]
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, ref, rtol=1e-12)
