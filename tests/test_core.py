import platform
import tracemalloc

import numpy as np
import pytest

from gasfl import core
from gasfl.aggregators import AggregatorSpec, aggregate, aggregate_with_selection
from gasfl.core import IndexPartition, SeedSpec, as_gradient_matrix, check_server_ingress, make_partition
from gasfl.gas import GasConfig, KnownF, gas_aggregate

MEAN = AggregatorSpec("mean")


def test_partition_sizes_divisible():
    part = make_partition(6, 3, SeedSpec(1))
    assert sorted(len(s) for s in part.subsets) == [2, 2, 2]


def test_partition_sizes_ceiling_rule():
    part = make_partition(5, 2, SeedSpec(1))
    assert sorted(len(s) for s in part.subsets) == [2, 3]


def test_partition_paper_scale_sizes():
    # d and p from the largest published splitting configuration
    part = make_partition(2472266, 10000, SeedSpec(3))
    sizes = [len(s) for s in part.subsets]
    assert max(sizes) <= 248
    assert sum(sizes) == 2472266


def test_partition_empty_dimension_rejected():
    with pytest.raises(ValueError, match="empty dimension"):
        make_partition(0, 1, SeedSpec(0))


def test_partition_clamps_p_to_d():
    part = make_partition(3, 10, SeedSpec(0))
    assert part.p == 3
    assert all(len(s) == 1 for s in part.subsets)


def test_partition_invariants_random_triples():
    # disjointness, cover, and size bounds across a large random sample, read
    # off the flat order and the group views reshaped from it
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        d = int(rng.integers(1, 10_001))
        p = int(rng.integers(1, d + 1))
        part = make_partition(d, p, SeedSpec(int(rng.integers(2**32))))
        (counts, sizes) = zip(*(g.shape for g in part.groups))
        assert sum(counts) == p and np.dot(counts, sizes) == d
        assert list(sizes) == sorted(set(sizes), reverse=True)  # larger groups first
        assert sizes[-1] >= d // p and sizes[0] <= -(-d // p)
        assert np.array_equal(np.sort(part.order), np.arange(d))


def test_partition_pure_function_of_inputs():
    a = make_partition(100, 7, SeedSpec(42, (("round", 3),)))
    b = make_partition(100, 7, SeedSpec(42, (("round", 3),)))
    c = make_partition(100, 7, SeedSpec(42, (("round", 4),)))
    assert all(np.array_equal(x, y) for x, y in zip(a.subsets, b.subsets))
    assert any(not np.array_equal(x, y) for x, y in zip(a.subsets, c.subsets))


def test_partition_pinned_example():
    # groups as the earlier per-chunk np.sort(np.array_split(shuffled, p)) produced them
    part = make_partition(10, 4, SeedSpec(2023))
    assert part.order.tolist() == [1, 6, 7, 0, 2, 9, 4, 8, 3, 5]
    assert [g.tolist() for g in part.groups] == [[[1, 6, 7], [0, 2, 9]], [[4, 8], [3, 5]]]
    assert [g.shape for g in part.groups] == [(2, 3), (2, 2)]
    assert [s.tolist() for s in part.subsets] == [[1, 6, 7], [0, 2, 9], [4, 8], [3, 5]]
    assert not part.subsets[0].flags.writeable
    assert not any(g.flags.writeable for g in part.groups)


@pytest.mark.parametrize("order, match", [
    ([0, 1, 1, 3, 4], "permutation"),           # duplicated index
    ([0, 1, 2, 3, 5], "outside"),               # out-of-range index
    ([-1, 1, 2, 3, 4], "outside"),
    ([[0, 1, 2], [3, 4, 5]], "1-D"),
    ([1, 0, 2, 3, 4], "ascending"),             # unsorted group
    ([3, 4, 0, 1, 2], "ascending"),             # groups [3, 4], [0, 1, 2]: smaller first
])
def test_partition_field_validation(order, match):
    with pytest.raises(ValueError, match=match):
        IndexPartition(order=np.array(order), p=2)


def test_partition_accepts_valid_fields_without_aliasing():
    order = np.array([2, 3, 4, 0, 1])
    part = IndexPartition(order=order, p=2)
    order[0] = 0
    assert [s.tolist() for s in part.subsets] == [[2, 3, 4], [0, 1]]
    for p in (0, 6):
        with pytest.raises(ValueError, match="group count"):
            IndexPartition(order=order, p=p)


def test_extract_then_reassemble_is_identity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = int(rng.integers(1, 200))
        g = rng.standard_normal(d)
        part = make_partition(d, int(rng.integers(1, d + 1)), SeedSpec(int(rng.integers(2**32))))
        rebuilt = np.full(d, np.nan)
        for subset in part.subsets:
            rebuilt[np.sort(subset)] = g[np.sort(subset)]
        assert np.array_equal(rebuilt, g)


def test_mean_examples():
    assert np.array_equal(aggregate(MEAN, [[1.0, 2.0], [3.0, 4.0]], 0), [2.0, 3.0])
    assert np.array_equal(aggregate(MEAN, [[5.0]], 0), [5.0])
    assert np.array_equal(aggregate(MEAN, [[1.0], [2.0], [9.0]], 0), [4.0])


def test_mean_errors():
    with pytest.raises(ValueError, match="empty"):
        aggregate(MEAN, [], 0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        aggregate(MEAN, [[1.0, 2.0], [1.0]], 0)


def test_mean_permutation_and_translation():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 4))
    shift = rng.standard_normal(4)
    assert np.allclose(aggregate(MEAN, x[::-1], 0), aggregate(MEAN, x, 0))
    assert np.allclose(aggregate(MEAN, x + shift, 0), aggregate(MEAN, x, 0) + shift)



def test_seedspec_identical_paths_identical_streams():
    a = SeedSpec(9).child("train", 2).child("client", 17)
    b = SeedSpec(9).child("train", 2).child("client", 17)
    assert np.array_equal(a.generator().standard_normal(16), b.generator().standard_normal(16))


def test_seedspec_distinct_paths_differ():
    base = SeedSpec(9)
    draws = {
        tuple(np.round(s.generator().standard_normal(4), 12))
        for s in [base, base.child("a"), base.child("a", 1), base.child("b"), base.child("a").child("b")]
    }
    assert len(draws) == 5


def test_ingress_rejects_nan_and_inf():
    good = np.zeros((3, 2))
    check_server_ingress(good)
    bad = good.copy()
    bad[1, 0] = np.nan
    with pytest.raises(ValueError, match="client 1.*NaN"):
        check_server_ingress(bad)
    bad[1, 0] = np.inf
    with pytest.raises(ValueError, match="client 1.*infinite"):
        check_server_ingress(bad)
    # NaN is reported first, even behind an earlier client's inf
    bad[2, 1] = np.nan
    with pytest.raises(ValueError, match="client 2.*NaN"):
        check_server_ingress(bad)


def test_ingress_checks_wide_uploads_in_row_blocks():
    # a clean (50, 1e4) matrix is checked without a full (n, d) bool array,
    # which alone would be 1/8 of the input
    x = np.random.default_rng(0).standard_normal((50, 10_000))
    tracemalloc.start()
    try:
        check_server_ingress(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 8, f"peaked at {peak / x.nbytes:.3f}x the input"
    # an entry in a later row block is still found, and NaN still wins
    x[30, 7] = np.inf
    with pytest.raises(ValueError, match="client 30.*infinite"):
        check_server_ingress(x)
    x[49, -1] = np.nan
    with pytest.raises(ValueError, match="client 49.*NaN"):
        check_server_ingress(x)


def test_zero_width_uploads_are_rejected():
    # rejected with its shape before any block size divides by d = 0
    empty = np.empty((3, 0))
    with pytest.raises(ValueError, match=r"at least one coordinate, got shape \(3, 0\)"):
        check_server_ingress(empty)
    for call in (as_gradient_matrix, lambda x: aggregate(MEAN, x, 0),
                 lambda x: gas_aggregate(GasConfig(p=1, base=MEAN, selection=KnownF(0),
                                                   seed=SeedSpec(0)), x)):
        with pytest.raises(ValueError, match=r"at least one coordinate, got shape \(3, 0\)"):
            call(empty)
    with pytest.raises(ValueError, match="at least one coordinate"):
        as_gradient_matrix([[], []])
    # a (groups, n, 0) stack too, before any rule reduces over it
    for kind in ("mean", "median", "multi_krum"):
        for call in (aggregate, aggregate_with_selection):
            with pytest.raises(ValueError, match=r"at least one coordinate, got shape \(2, 5, 0\)"):
                call(AggregatorSpec(kind), np.empty((2, 5, 0)), 1)
    # zero rows stay allowed: `craft` reports them itself
    assert as_gradient_matrix(np.empty((0, 4))).shape == (0, 4)


def test_gradient_matrix_accepts_2d_array():
    x = np.arange(6, dtype=float).reshape(2, 3)
    assert as_gradient_matrix(x).shape == (2, 3)


def test_generator_matches_list_entropy():
    # the packed uint32 entropy must seed the same pool as SeedSequence's list path
    for master in (0, 1, 2**32, 2**64 - 1):
        for index in (0, 2**32, 2**63):
            spec = SeedSpec(master).child("round", index).child("client", 3)
            listed = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec._entropy())))
            fast = spec.generator()
            assert fast.bit_generator.state == listed.bit_generator.state
            assert np.array_equal(fast.integers(0, 2**63, 64), listed.integers(0, 2**63, 64))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc thresholds are glibc's")
def test_freed_round_arrays_are_reused_without_page_faults():
    # the arrays a d = 1e4 round holds at once: two (40, d) honest copies, the
    # (10, d) crafted rows and the (50, d) stacked uploads. With glibc's
    # dynamic thresholds each free trimmed the heap and the next round faulted
    # about 2,700 pages back in.
    resource = pytest.importorskip("resource")

    def round_arrays():
        held = [np.full((rows, 10_000), 1.0) for rows in (40, 40, 10, 50)]
        del held

    for _ in range(5):
        round_arrays()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        round_arrays()
    per_round = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20
    assert per_round < 50, f"{per_round:.0f} page faults per round"


class _FakeLibc:
    """A C library exporting only the named symbols, each recording its calls."""

    def __init__(self, symbols):
        self.calls = []
        for name in symbols:
            setattr(self, name, lambda *args, name=name: self.calls.append((name, args)))


@pytest.mark.parametrize("symbols, calls", [
    (("mallopt", "gnu_get_libc_version"), [("mallopt", (-3, 32 << 20)), ("mallopt", (-1, 64 << 20))]),
    (("gnu_get_libc_version",), []),  # mallopt patched out
    (("mallopt",), []),               # a stub mallopt, as in musl
    (None, []),                       # no dlopen(NULL), as on Windows
])
def test_malloc_thresholds_set_only_under_glibc(monkeypatch, symbols, calls):
    libc = _FakeLibc(symbols or ())

    def cdll(name):
        if symbols is None:
            raise OSError("no dlopen(NULL)")
        return libc

    monkeypatch.setattr(core.ctypes, "CDLL", cdll)
    core._set_malloc_thresholds()
    # M_MMAP_THRESHOLD is mallopt parameter -3 and M_TRIM_THRESHOLD -1
    assert libc.calls == calls
