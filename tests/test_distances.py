import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasfl.aggregators import (KINDS, AggregatorSpec, aggregate, aggregate_with_selection,
                               bucketing_wrap, estimate_resilience, max_f)
from gasfl.attacks import AttackContext, AttackSpec, craft
from gasfl.core import SeedSpec, pairwise_sq_dists
from gasfl.data import generate_synthetic
from gasfl.gas import GasConfig, KnownF, gas_aggregate
from gasfl.simulation import ExperimentConfig, PlainDefense, init_run


def _kept(kind, x, f):
    return aggregate_with_selection(AggregatorSpec(kind), x, f)[1]


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
    sel = _kept("multi_krum", x, f)
    assert np.array_equal(_kept("multi_krum", x + shift, f), sel)
    if n - f - 2 >= 2:
        assert np.array_equal(np.sort(perm[_kept("multi_krum", x[perm], f)]), sel)


@settings(max_examples=100, deadline=None)
@given(data=distinct_points(n_min=6, n_max=20), f_share=st.floats(0.0, 1.0))
def test_bulyan_selection_translation_and_permutation_invariant(data, f_share):
    x, shift, perm = data
    n = x.shape[0]
    f = int(f_share * max_f(AggregatorSpec("bulyan"), n))
    sel = _kept("bulyan", x, f)
    assert np.array_equal(_kept("bulyan", x + shift, f), sel)
    # the pool shrinks to 2f + 1 clients, scored over f - 1 peers; with f = 0
    # every client is picked, whatever the ties
    if f == 0 or f >= 3:
        assert np.array_equal(np.sort(perm[_kept("bulyan", x[perm], f)]), sel)


# a finite upload whose squared norm overflows ------------------------------------

def _gas_on(base, x, f=2):
    return gas_aggregate(GasConfig(p=2, base=AggregatorSpec(base), selection=KnownF(f),
                                   seed=SeedSpec(0)), x)


@pytest.mark.parametrize("big", [1e154, 1e160, 1e300, np.finfo(float).max])
def test_huge_finite_row_is_dropped_without_nan(big):
    # the row's squares, and with them the Gram form, the Weiszfeld distances
    # and DnC's power iteration, overflow unless the defense's entry scales
    # the matrix down first
    x = np.random.default_rng(0).standard_normal((12, 5))
    x[0] = big
    for base in KINDS:
        agg, kept = aggregate_with_selection(AggregatorSpec(base), x, 2, seed=SeedSpec(0))
        assert np.isfinite(agg).all(), base
        if base == "dnc":
            assert 0 not in kept
        elif base in ("multi_krum", "bulyan"):
            assert np.array_equal(kept, np.arange(1, 11 if base == "multi_krum" else 9)), base
        agg, table, sel, _ = _gas_on(base, x)
        assert 0 not in sel.selected and np.argmax(table.totals) == 0, base
        assert not np.isnan(table.totals).any(), base
        assert np.array_equal(agg, x[sel.selected].mean(axis=0)), base


def test_rows_near_the_float_maximum_overflow_no_centering_mean():
    # two rows at 1.7e308 sum past the float range, so every mean of them,
    # the centering mean and a bucket mean alike, overflows unless the
    # defense's entry scales the matrix down first
    x = np.random.default_rng(0).standard_normal((12, 5))
    x[:2] = 1.7e308
    for kind in KINDS:
        spec = AggregatorSpec(kind)
        assert np.isfinite(aggregate(spec, x, 2, seed=SeedSpec(0))).all(), kind
        assert np.isfinite(bucketing_wrap(spec, x, min(2, max_f(spec, 6)), 2)).all(), kind
        agg, _, sel, _ = _gas_on(kind, x)
        assert np.array_equal(sel.selected, np.arange(2, 12)), kind
        assert np.array_equal(agg, x[2:].mean(axis=0)), kind
    assert np.array_equal(_kept("multi_krum", x, 2), np.arange(2, 12))
    # an ordinary matrix stacked with it keeps the bits it has alone
    y = np.random.default_rng(1).standard_normal((12, 5))
    for kind in KINDS:
        spec = AggregatorSpec(kind)
        stacked = aggregate(spec, np.stack([x, y]), 2, seed=SeedSpec(0))
        assert np.array_equal(stacked[1], aggregate(spec, y, 2, seed=SeedSpec(0))), kind


def test_bulyan_never_repicks_when_every_score_is_tied():
    # rows on distinct axes at the float maximum: every pair sits the same
    # distance apart, so every Krum score in every pool ties and the pool
    # order decides
    x = np.eye(6) * np.finfo(float).max
    assert np.array_equal(_kept("bulyan", x, 1), [0, 1, 2, 3])
    stack = np.stack([x, x[::-1]])
    assert np.array_equal(_kept("bulyan", stack, 1), [[0, 1, 2, 3], [0, 1, 2, 3]])


# every defense commutes with a power of two --------------------------------------

@st.composite
def ordinary_matrices(draw):
    """(n, d) normal rows, n in 12..20, and a Byzantine count."""
    n = draw(st.integers(12, 20), label="n")
    d = draw(st.integers(1, 12), label="d")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    return rng.standard_normal((n, d)), draw(st.integers(0, 3), label="f")


@settings(max_examples=30, deadline=None)
@given(data=ordinary_matrices())
def test_every_defense_is_homogeneous_under_powers_of_two(data):
    # scaling by 2^j is exact, and each entry's guard keeps the kernels
    # inside the float range, so each output scales with the input bit for bit;
    # the geometric median reads its distances in units of the input's scale
    x, f = data
    powers = (-60, -30, 0, 150, 300, 700, 1000)
    # the attacks that read the honest rows, with x as those rows
    attacks = [AttackSpec(kind) for kind in ("lie", "min_max", "min_sum", "ipm")]
    crafted = [craft(spec, AttackContext(x, 2), SeedSpec(4)) for spec in attacks]
    for j in powers:
        for spec, out in zip(attacks, crafted):
            assert np.array_equal(craft(spec, AttackContext(np.ldexp(x, j), 2), SeedSpec(4)),
                                  np.ldexp(out, j)), (spec.kind, j)
    for kind in KINDS:
        spec = AggregatorSpec(kind)
        f_rule = min(f, max_f(spec, x.shape[0]))
        f_bucket = min(f, max_f(spec, -(-x.shape[0] // 2)))
        cfg = GasConfig(p=min(3, x.shape[1]), base=spec, selection=KnownF(f_rule), seed=SeedSpec(1))
        plain = aggregate(spec, x, f_rule, seed=SeedSpec(2))
        agg, _, sel, _ = gas_aggregate(cfg, x)
        bucketed = bucketing_wrap(spec, x, f_bucket, 2, SeedSpec(3))
        for j in powers:
            y = np.ldexp(x, j)
            assert np.array_equal(aggregate(spec, y, f_rule, seed=SeedSpec(2)),
                                  np.ldexp(plain, j)), (kind, j)
            agg_j, _, sel_j, _ = gas_aggregate(cfg, y)
            assert np.array_equal(sel_j.selected, sel.selected), (kind, j)
            assert np.array_equal(agg_j, np.ldexp(agg, j)), (kind, j)
            assert np.array_equal(bucketing_wrap(spec, y, f_bucket, 2, SeedSpec(3)),
                                  np.ldexp(bucketed, j)), (kind, j)


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
        _, stacked_kept = aggregate_with_selection(spec, stack, f, seed=seed)
        for g in range(stack.shape[0]):
            alone, kept = aggregate_with_selection(spec, stack[g], f, seed=seed)
            assert np.array_equal(stacked[g], alone), (spec, f, g)
            assert np.array_equal(stacked_kept[g], kept), (spec, f, g)


# memory stays bounded in d -------------------------------------------------------

N, D, F = 50, 5000, 10


def _gas(x, base, p=100):
    return gas_aggregate(GasConfig(p=p, base=AggregatorSpec(base), selection=KnownF(F),
                                   seed=SeedSpec(0)), x)


# name -> (call, bound on its tracemalloc peak as a multiple of the input, input width)
MEMORY_CASES = {
    # one centered copy of the input, the std squared and added from it row by row
    "min_max": (lambda x: craft(AttackSpec("min_max"), AttackContext(x, 1)), 1.25, D),
    "min_sum": (lambda x: craft(AttackSpec("min_sum"), AttackContext(x, 1)), 1.25, D),
    "multi_krum_selection": (lambda x: aggregate_with_selection(AggregatorSpec("multi_krum"), x, F),
                             4, D),
    "bulyan_selection": (lambda x: aggregate_with_selection(AggregatorSpec("bulyan"), x, F), 4, D),
    # draws its own (N, D) points
    "estimate_resilience": (lambda x: estimate_resilience(AggregatorSpec("multi_krum"), N, F, D,
                                                          1, SeedSpec(0)), 4, D),
    # the groups gathered straight from the input and scored block by block
    "gas_aggregate": (lambda x: _gas(x, "multi_krum"), 1, D),
    # a 40 MB input, past every cache, is still gathered along its rows
    "gas_aggregate_d_1e5": (lambda x: _gas(x, "median"), 0.25, 100_000),
    **{f"gas_aggregate_{base}": (lambda x, base=base: _gas(x, base), 1, D)
       for base in KINDS if base != "multi_krum"},
    # one coordinate per group, as at the desk shape: the (p, n) score table
    # alone is the input's size, and a block also bounds a pairwise base's
    # (groups, n, n) distances, which for all 650 groups would be 50 inputs
    **{f"gas_aggregate_p_eq_d_{base}": (lambda x, base=base: _gas(x, base, p=650), 8, 650)
       for base in KINDS},
}


@pytest.mark.parametrize("name", sorted(MEMORY_CASES))
def test_peak_memory_is_a_small_multiple_of_the_input(name):
    # an (n, n, d) difference tensor would be N = 50 times the input
    call, bound, d = MEMORY_CASES[name]
    x = np.random.default_rng(1).standard_normal((N, d))
    tracemalloc.start()
    try:
        call(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * x.nbytes, f"{name} peaked at {peak / x.nbytes:.2f}x its input"


# set-up holds one copy of each split --------------------------------------------

DESK = ExperimentConfig(n_clients=N, n_byzantine=F, rounds=1, attack=AttackSpec("lie", z=1.5),
                        defense=PlainDefense(AggregatorSpec("median")))


def _desk_splits():
    dc = DESK.data
    return generate_synthetic(dc.n_classes, dc.n_features, dc.per_class, dc.r_sep, dc.noise,
                              SeedSpec(0), test_per_class=dc.test_per_class)


# name -> (call, bound on its tracemalloc peak as a multiple of what it leaves live)
SETUP_MEMORY_CASES = {
    # each split drawn into the array returned, then scaled and shifted in place
    "generate_synthetic": (_desk_splits, 1.25),
    # the shards gathered once from the train split, which is then dropped
    "init_run": (lambda: init_run(DESK, SeedSpec(0)), 1.1),
}


@pytest.mark.parametrize("name", sorted(SETUP_MEMORY_CASES))
def test_setup_peak_memory_is_close_to_its_result(name):
    call, bound = SETUP_MEMORY_CASES[name]
    call()  # the first call imports what numpy loads lazily
    tracemalloc.start()
    try:
        result = call()  # held while the totals are read, so `live` counts it
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    assert peak <= bound * live, f"{name} peaked at {peak / live:.2f}x its live result"
