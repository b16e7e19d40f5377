import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from gasfl.aggregators import _PAIRWISE_KINDS, AggregatorSpec, aggregate
from gasfl.core import SeedSpec, make_partition
from gasfl.gas import (GasConfig, KnownF, SelectionResult, _group_blocks, gas_aggregate,
                       group_scores, select_clients)

ALL_BASES = ("mean", "median", "trimmed_mean", "multi_krum", "bulyan", "geometric_median", "dnc")


def _cfg(p=4, base="median", selection=None, seed=3, policy="per_round"):
    return GasConfig(p=p, base=AggregatorSpec(base),
                     selection=selection if selection is not None else KnownF(2),
                     seed=SeedSpec(seed), partition_policy=policy)


def _rand(seed, n, d):
    return np.random.default_rng(seed).standard_normal((n, d))


# group scoring ----------------------------------------------------------

def test_group_scores_identical_subvectors():
    sub = np.tile([1.0, 2.0], (5, 1))
    agg, scores = group_scores(sub, AggregatorSpec("median"), 1)
    assert np.array_equal(agg, [1.0, 2.0])
    assert np.array_equal(scores, np.zeros(5))


def test_group_scores_mean_base():
    agg, scores = group_scores([[0.0], [2.0]], AggregatorSpec("mean"), 0)
    assert np.array_equal(agg, [1.0])
    assert np.array_equal(scores, [1.0, 1.0])


def test_group_scores_median_matches_direct():
    sub = _rand(1, 5, 2)
    _, scores = group_scores(sub, AggregatorSpec("median"), 1)
    direct = np.linalg.norm(sub - aggregate(AggregatorSpec("median"), sub, 0), axis=1)
    assert np.abs(scores - direct).max() <= 1e-12


# selection ------------------------------------------------------------------

def test_select_clients_examples():
    assert np.array_equal(select_clients(np.array([3.0, 1.0, 2.0]), 2).selected, [1, 2])
    assert np.array_equal(select_clients(np.array([1.0, 1.0, 5.0]), 1).selected, [0])
    assert np.array_equal(select_clients(np.array([4.0, 2.0, 9.0]), 3).selected, [0, 1, 2])


def test_select_clients_range_check():
    with pytest.raises(ValueError, match="keep_count"):
        select_clients(np.array([1.0, 2.0]), 3)
    with pytest.raises(ValueError, match="keep_count"):
        select_clients(np.array([1.0, 2.0]), 0)


def test_selection_invariants():
    totals = np.array([5.0, 1.0, 1.0, 3.0])
    res = select_clients(totals, 3)
    assert isinstance(res, SelectionResult)
    assert res.keep_count == 3 and len(res.selected) == 3
    assert np.array_equal(res.selected, [1, 2, 3])


# full pipeline -----------------------------------------------------------------

def test_gas_known_f_zero_reduces_to_mean():
    x = _rand(2, 8, 12)
    agg, _, sel, _ = gas_aggregate(_cfg(p=3, selection=KnownF(0)), x)
    assert len(sel.selected) == 8
    assert np.abs(agg - x.mean(axis=0)).max() <= 1e-12


@settings(max_examples=150, deadline=None)
@given(n=st.integers(3, 12), d=st.integers(1, 40), p_share=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_gas_known_f_zero_is_the_mean_bit_for_bit(n, d, p_share, seed):
    # with f = 0 every client is kept, whatever the base scores
    x = np.random.default_rng(seed).standard_normal((n, d))
    p = 1 + int(p_share * (d - 1))
    for base in ALL_BASES:
        agg, _, sel, _ = gas_aggregate(_cfg(p=p, base=base, selection=KnownF(0), seed=seed), x)
        assert np.array_equal(sel.selected, np.arange(n)), base
        assert np.array_equal(agg, x.mean(axis=0)), base


def test_gas_p1_totals_are_whole_vector_distances():
    x = _rand(3, 7, 9)
    _, table, _, _ = gas_aggregate(_cfg(p=1), x)
    direct = np.linalg.norm(x - aggregate(AggregatorSpec("median"), x, 0), axis=1)
    assert np.abs(table.totals - direct).max() <= 1e-12


def test_gas_output_is_mean_of_selected():
    x = _rand(4, 9, 6)
    agg, _, sel, _ = gas_aggregate(_cfg(p=2), x)
    assert np.array_equal(agg, x[sel.selected].mean(axis=0))
    assert np.all(agg >= x[sel.selected].min(axis=0)) and np.all(agg <= x[sel.selected].max(axis=0))


def test_gas_score_table_invariants():
    x = _rand(5, 10, 8)
    _, table, _, _ = gas_aggregate(_cfg(p=3), x)
    assert np.all(table.group_scores >= 0)
    recomputed = np.zeros(10)
    for q in range(table.group_scores.shape[1]):
        recomputed += table.group_scores[:, q]
    assert np.array_equal(table.totals, recomputed)


def test_gas_determinism_and_round_dependence():
    x = _rand(8, 8, 10)
    cfg = _cfg(p=4)
    a = gas_aggregate(cfg, x, round=5)
    b = gas_aggregate(cfg, x, round=5)
    c = gas_aggregate(cfg, x, round=6)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1].totals, b[1].totals)
    assert any(not np.array_equal(p, q) for p, q in zip(a[3].subsets, c[3].subsets))


def test_gas_fixed_partition_policy():
    x = _rand(9, 8, 10)
    cfg = _cfg(p=4, policy="fixed")
    a = gas_aggregate(cfg, x, round=5)
    c = gas_aggregate(cfg, x, round=6)
    assert all(np.array_equal(p, q) for p, q in zip(a[3].subsets, c[3].subsets))


def _assert_matches_per_group_path(x, cfg, f, rnd):
    n = x.shape[0]
    agg, table, sel, part = gas_aggregate(cfg, x, round=rnd)
    round_seed = cfg.seed.child("round", rnd)
    expected = np.empty((n, part.p))
    totals = np.zeros(n)
    for q, subset in enumerate(part.subsets):
        _, expected[:, q] = group_scores(x[:, subset], cfg.base, f,
                                         seed=round_seed.child("group", q))
        totals += expected[:, q]
    assert np.array_equal(table.group_scores, expected), (part.p, cfg.base.kind)
    assert np.array_equal(table.totals, totals), (part.p, cfg.base.kind)
    assert np.array_equal(sel.selected, select_clients(totals, n - f).selected)
    assert np.array_equal(agg, x[sel.selected].mean(axis=0))


def _block_shapes(n, d, p, base):
    """(size, groups) of each block `gas_aggregate` scores; any partition gives the same."""
    part = make_partition(d, p, SeedSpec(0))
    return [cols.shape[::-1] for _, cols in _group_blocks(part, n, AggregatorSpec(base))]


def _strided(x):
    return np.repeat(x, 2, axis=1)[:, ::2]


def _check_blocked_scoring(layout):
    # the blocked scoring equals scoring group by group with group_scores,
    # on every input passed through `layout`
    n, d, f, rnd = 12, 30, 2, 2
    x = layout(_rand(10, n, d))
    for p in (1, 7, d):  # 30 = 4 * 7 + 2: groups of 5 and 4 when p = 7
        for base in ALL_BASES:
            _assert_matches_per_group_path(x, _cfg(p=p, base=base, selection=KnownF(f)), f, rnd)
    # one column: numpy then averages the kept clients pairwise
    for base in ALL_BASES:
        _assert_matches_per_group_path(x[:, :1], _cfg(p=1, base=base, selection=KnownF(f)), f, rnd)
    # a wide_server-like shape: 10007 = 100 * 100 + 7, so 7 groups of 101
    # and 93 groups of 100 coordinates, and both sizes end in a partial block
    n, d, p = 50, 10007, 100
    x = layout(_rand(15, n, d))
    for base in ALL_BASES:
        shapes = _block_shapes(n, d, p, base)
        for size, count in ((101, 7), (100, 93)):
            blocks = [groups for s, groups in shapes if s == size]
            assert len(blocks) > 1 and blocks[-1] < blocks[0] and sum(blocks) == count, (base, size)
        _assert_matches_per_group_path(x, _cfg(p=p, base=base, selection=KnownF(10)), 10, 4)
    # the desk shape, one coordinate per group: a pairwise base scores its
    # groups in several blocks, bounded by their (n, n) matrices
    n, d = 50, 650
    x = layout(_rand(16, n, d))
    for base in ALL_BASES:
        assert (len(_block_shapes(n, d, d, base)) > 1) == (base in _PAIRWISE_KINDS), base
        if base in _PAIRWISE_KINDS:
            _assert_matches_per_group_path(x, _cfg(p=d, base=base, selection=KnownF(10)), 10, 1)


def test_gas_scores_match_per_group_path():
    # C-ordered uploads are gathered along their rows
    _check_blocked_scoring(np.ascontiguousarray)


def test_gas_transposed_gather_matches_per_group_path():
    # any other layout is gathered from the rows of x.T: a view for a
    # column-major matrix, and one C-ordered copy for a strided one
    for layout in (np.asfortranarray, _strided):
        assert not layout(_rand(10, 12, 30)).flags.c_contiguous
        _check_blocked_scoring(layout)


def test_gas_permutation_equivariance_fixed_partition():
    x = _rand(11, 9, 8)
    cfg = _cfg(p=3, policy="fixed")
    perm = np.random.default_rng(12).permutation(9)
    agg, _, sel, _ = gas_aggregate(cfg, x)
    agg_p, _, sel_p, _ = gas_aggregate(cfg, x[perm])
    assert np.abs(agg - agg_p).max() <= 1e-12
    assert set(perm[sel_p.selected]) == set(sel.selected)


def test_gas_monotone_exclusion():
    x = _rand(13, 10, 6)
    cfg = _cfg(p=2, selection=KnownF(2))
    _, _, sel_before, _ = gas_aggregate(cfg, x)
    boosted = x.copy()
    boosted[4] *= 1e3
    _, _, sel_after, _ = gas_aggregate(cfg, boosted)
    assert 4 not in sel_after.selected


def test_gas_byzantine_exclusion_separated_cluster():
    # honest Gaussian clusters, colluders far out: selection is all-honest
    rng = np.random.default_rng(99)
    n, f, d = 50, 10, 1024
    honest = rng.standard_normal((n - f, d))
    sigma = honest.std(axis=0)
    byz = np.tile(honest.mean(axis=0) + 10.0 * sigma, (f, 1))
    x = np.vstack([honest, byz])
    cfg = GasConfig(p=16, base=AggregatorSpec("median"), selection=KnownF(f), seed=SeedSpec(41))
    _, _, sel, part = gas_aggregate(cfg, x)
    assert part.p == 16
    assert set(sel.selected) == set(range(n - f))


def test_gas_preconditions():
    x = _rand(14, 4, 3)
    with pytest.raises(ValueError, match="f < n/2"):
        gas_aggregate(_cfg(selection=KnownF(2)), x)
    with pytest.raises(ValueError, match="at least 2"):
        gas_aggregate(_cfg(selection=KnownF(0)), x[:1])
    with pytest.raises(ValueError):
        KnownF(-1)
