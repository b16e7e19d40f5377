import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasfl import attacks
from gasfl.aggregators import (KINDS, AggregatorSpec, aggregate, bulyan_selection,
                               estimate_resilience, max_f, multi_krum_selection)
from gasfl.core import SeedSpec, pairwise_sq_dists
from gasfl.gas import GasConfig, KnownF, gas_aggregate


def _direct_sq_dists(x):
    diff = x[:, None, :] - x[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


@st.composite
def point_sets(draw, n_min=2, n_max=12, k_max=24):
    """(n, k) points: random rows, optionally far from the origin and with repeats."""
    n = draw(st.integers(n_min, n_max), label="n")
    k = draw(st.integers(1, k_max), label="k")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    x = rng.standard_normal((n, k)) * draw(st.sampled_from([1e-3, 1.0, 50.0]), label="scale")
    x += draw(st.sampled_from([0.0, 1e3, -1e3]), label="offset")
    repeats = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                            max_size=3), label="repeats")
    for src, dst in repeats:
        x[dst] = x[src]
    return x


# the Gram-form helper -----------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(x=point_sets())
def test_gram_distances_match_difference_form(x):
    fast = pairwise_sq_dists(x)
    direct = _direct_sq_dists(x)
    # the Gram form rounds relative to the squared row norms about the centroid
    c = x - x.mean(axis=0)
    scale = float(np.einsum("ij,ij->i", c, c).max())
    assert np.abs(fast - direct).max() <= 1e-12 * scale


@settings(max_examples=300, deadline=None)
@given(x=point_sets())
def test_gram_distances_symmetric_nonnegative_zero_diagonal(x):
    sq = pairwise_sq_dists(x)
    assert sq.shape == (x.shape[0], x.shape[0])
    assert np.array_equal(sq, sq.T)
    assert (sq >= 0).all()
    assert (np.diag(sq) == 0).all()


@settings(max_examples=100, deadline=None)
@given(groups=st.integers(1, 6), x=point_sets(n_min=3))
def test_gram_distances_same_alone_or_stacked(groups, x):
    n, k = x.shape
    rng = np.random.default_rng(groups)
    stack = np.stack([x] + [rng.standard_normal((n, k)) for _ in range(groups - 1)])
    stacked = pairwise_sq_dists(stack)
    for g in range(groups):
        assert np.array_equal(stacked[g], pairwise_sq_dists(stack[g]))
    # a column-major matrix, like a group split off a gradient matrix
    assert np.array_equal(pairwise_sq_dists(np.asfortranarray(x)), stacked[0])


# the rules it feeds -------------------------------------------------------------

@st.composite
def distinct_points(draw, n_min, n_max):
    """Rows in general position, a translation and a row permutation."""
    n = draw(st.integers(n_min, n_max), label="n")
    k = draw(st.integers(1, 24), label="k")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    x = rng.standard_normal((n, k)) * draw(st.sampled_from([1e-2, 1.0, 30.0]), label="scale")
    shift = rng.standard_normal(k) * draw(st.sampled_from([1.0, 1e3]), label="shift")
    return x, shift, rng.permutation(n)


# Krum over k = 1 nearest peers ties exactly: two mutual nearest neighbours
# score the same distance, and the lower index wins. Permutation invariance
# therefore holds only when every Krum scoring sums k >= 2 distances.

@settings(max_examples=200, deadline=None)
@given(data=distinct_points(n_min=4, n_max=12), f_share=st.floats(0.0, 1.0))
def test_multi_krum_selection_translation_and_permutation_invariant(data, f_share):
    x, shift, perm = data
    n = x.shape[0]
    f = int(f_share * max_f(AggregatorSpec("multi_krum"), n))
    sel = multi_krum_selection(x, f)
    assert np.array_equal(multi_krum_selection(x + shift, f), sel)
    if n - f - 2 >= 2:
        assert np.array_equal(np.sort(perm[multi_krum_selection(x[perm], f)]), sel)


@settings(max_examples=100, deadline=None)
@given(data=distinct_points(n_min=6, n_max=20), f_share=st.floats(0.0, 1.0))
def test_bulyan_selection_translation_and_permutation_invariant(data, f_share):
    x, shift, perm = data
    n = x.shape[0]
    f = int(f_share * max_f(AggregatorSpec("bulyan"), n))
    sel = bulyan_selection(x, f)
    assert np.array_equal(bulyan_selection(x + shift, f), sel)
    # the pool shrinks to 2f + 1 clients, scored over f - 1 peers; with f = 0
    # every client is picked, whatever the ties
    if f == 0 or f >= 3:
        assert np.array_equal(np.sort(perm[bulyan_selection(x[perm], f)]), sel)


# a finite upload whose squared norm overflows ------------------------------------

@pytest.mark.parametrize("big", [1e154, 1e160, 1e300, np.finfo(float).max])
def test_huge_finite_row_is_dropped_without_nan(big):
    # the row pulls the centering mean far out, so its squared norm, and the
    # honest ones, overflow the Gram form unless it is rescaled
    x = np.random.default_rng(0).standard_normal((12, 5))
    x[0] = big
    sq = pairwise_sq_dists(x)
    assert not np.isnan(sq).any()
    assert (sq[0, 1:] > 0).all()
    assert np.array_equal(multi_krum_selection(x, 2), np.arange(1, 11))
    assert np.array_equal(bulyan_selection(x, 2), np.arange(1, 9))
    for base in ("multi_krum", "bulyan"):
        cfg = GasConfig(p=2, base=AggregatorSpec(base), selection=KnownF(2), seed=SeedSpec(0))
        agg, table, sel, _ = gas_aggregate(cfg, x)
        assert 0 not in sel.selected and table.totals[0] == np.inf, base
        assert np.array_equal(agg, x[sel.selected].mean(axis=0)), base


def test_bulyan_never_repicks_when_every_score_is_inf():
    # rows on distinct axes at the float maximum: every distance saturates to
    # inf, so every Krum score in every pool is inf and the pool order decides
    x = np.eye(6) * np.finfo(float).max
    assert np.isposinf(pairwise_sq_dists(x)[~np.eye(6, dtype=bool)]).all()
    assert np.array_equal(bulyan_selection(x, 1), [0, 1, 2, 3])
    stack = np.stack([x, x[::-1]])
    assert np.array_equal(bulyan_selection(stack, 1), [[0, 1, 2, 3], [0, 1, 2, 3]])


# a stack scores each matrix as it would alone ------------------------------------

@st.composite
def stacks(draw):
    """(groups, n, k) stacks: C-ordered or the transposed view GAS scores, with
    rows far from the origin, repeated rows and k = 1."""
    groups = draw(st.integers(1, 4), label="groups")
    n = draw(st.integers(2, 12), label="n")
    k = draw(st.sampled_from([1, 2, 5, 13]), label="k")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    buf = rng.standard_normal((k, groups, n)) * draw(st.sampled_from([1e-3, 1.0, 50.0]), label="scale")
    buf += draw(st.sampled_from([0.0, 1e3, -1e6]), label="offset")
    repeats = draw(st.lists(st.tuples(st.integers(0, groups - 1), st.integers(0, n - 1),
                                      st.integers(0, n - 1)), max_size=4), label="repeats")
    for g, src, dst in repeats:
        buf[:, g, dst] = buf[:, g, src]
    stack = buf.transpose(1, 2, 0)
    if draw(st.booleans(), label="c_order"):
        stack = np.ascontiguousarray(stack)
    return stack


@settings(max_examples=150, deadline=None)
@given(stack=stacks(), f_share=st.floats(0.0, 1.0))
def test_stacked_aggregate_matches_each_matrix_alone(stack, f_share):
    n = stack.shape[1]
    specs = [AggregatorSpec(kind) for kind in KINDS]
    # DnC drawing a coordinate sample, over rounds that can keep unequal counts
    specs.append(AggregatorSpec("dnc", b=2, niters=2))
    seed = SeedSpec(9)
    for spec in specs:
        if max_f(spec, n) < 0:
            continue
        f = int(f_share * max_f(spec, n))
        stacked = aggregate(spec, stack, f, seed=seed)
        assert stacked.shape == (stack.shape[0], stack.shape[2])
        for g in range(stack.shape[0]):
            alone = aggregate(spec, stack[g], f, seed=seed)
            assert np.array_equal(stacked[g], alone), (spec, f, g)


# memory stays bounded in d -------------------------------------------------------

N, D, F = 50, 5000, 10


def _gas(x, base):
    return gas_aggregate(GasConfig(p=100, base=AggregatorSpec(base), selection=KnownF(F),
                                   seed=SeedSpec(0)), x)


# name -> (call, bound on its tracemalloc peak as a multiple of the input)
MEMORY_CASES = {
    # one centered copy of the input, the std taken from it in column blocks
    "min_max": (lambda x: attacks.min_max(x), 1.25),
    "min_sum": (lambda x: attacks.min_sum(x), 1.25),
    "multi_krum_selection": (lambda x: multi_krum_selection(x, F), 4),
    "bulyan_selection": (lambda x: bulyan_selection(x, F), 4),
    # draws its own (N, D) points
    "estimate_resilience": (lambda x: estimate_resilience(AggregatorSpec("multi_krum"), N, F, D,
                                                          1, SeedSpec(0)), 4),
    # one transposed copy, the groups gathered and scored block by block
    "gas_aggregate": (lambda x: _gas(x, "multi_krum"), 2),
    **{f"gas_aggregate_{base}": (lambda x, base=base: _gas(x, base), 2)
       for base in KINDS if base != "multi_krum"},
}


@pytest.mark.parametrize("name", sorted(MEMORY_CASES))
def test_peak_memory_is_a_small_multiple_of_the_input(name):
    # an (n, n, d) difference tensor would be N = 50 times the input
    call, bound = MEMORY_CASES[name]
    x = np.random.default_rng(1).standard_normal((N, D))
    tracemalloc.start()
    try:
        call(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * x.nbytes, f"{name} peaked at {peak / x.nbytes:.2f}x its input"
