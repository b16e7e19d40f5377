import numpy as np
import pytest

from gasfl.core import (IndexPartition, SeedSpec, as_gradient_matrix, check_server_ingress,
                        make_partition, mean)


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
    # disjointness, cover, and size bounds across a large random sample
    rng = np.random.default_rng(7)
    for k in range(10_000):
        d = int(rng.integers(1, 10_001))
        p = int(rng.integers(1, d + 1))
        part = make_partition(d, p, SeedSpec(int(rng.integers(2**32))))
        sizes = np.array([len(s) for s in part.subsets])
        assert sizes.min() >= d // p and sizes.max() <= -(-d // p)
        merged = np.concatenate(part.subsets)
        assert merged.size == d
        if k % 100 == 0:  # the expensive full-cover check on a subsample
            assert np.array_equal(np.sort(merged), np.arange(d))


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
    assert part.offsets.tolist() == [0, 3, 6, 8, 10]
    assert [s.tolist() for s in part.subsets] == [[1, 6, 7], [0, 2, 9], [4, 8], [3, 5]]
    assert not part.subsets[0].flags.writeable


@pytest.mark.parametrize("order, offsets, match", [
    ([0, 1, 1, 3, 4], [0, 3, 5], "permutation"),           # duplicated index
    ([0, 1, 2, 3, 5], [0, 3, 5], "outside"),               # out-of-range index
    ([-1, 1, 2, 3, 4], [0, 3, 5], "outside"),
    ([0, 1, 2, 3, 4], [1, 3, 5], "offsets"),               # does not start at 0
    ([0, 1, 2, 3, 4], [0, 3, 4], "offsets"),               # does not end at d
    ([0, 1, 2, 3, 4], [0, 3], "offsets"),                  # wrong boundary count
    ([0, 1, 2, 3, 4], [0, 4, 5], "group sizes"),           # sizes 4 and 1, outside [2, 3]
    ([0, 1, 2, 3], [0, 3, 5], "shape"),                    # order shorter than d
    ([1, 0, 2, 3, 4], [0, 3, 5], "ascending"),             # unsorted group
])
def test_partition_field_validation(order, offsets, match):
    with pytest.raises(ValueError, match=match):
        IndexPartition(order=np.array(order), offsets=np.array(offsets), d=5, p=2)


def test_partition_accepts_valid_fields_without_aliasing():
    order, offsets = np.array([3, 4, 0, 1, 2]), np.array([0, 2, 5])
    part = IndexPartition(order=order, offsets=offsets, d=5, p=2)
    order[0] = 0
    assert [s.tolist() for s in part.subsets] == [[3, 4], [0, 1, 2]]
    for p in (0, 6):
        with pytest.raises(ValueError, match="group count"):
            IndexPartition(order=order, offsets=offsets, d=5, p=p)


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
    assert np.array_equal(mean([[1.0, 2.0], [3.0, 4.0]]), [2.0, 3.0])
    assert np.array_equal(mean([[5.0]]), [5.0])
    assert np.array_equal(mean([[1.0], [2.0], [9.0]]), [4.0])


def test_mean_errors():
    with pytest.raises(ValueError, match="empty"):
        mean([])
    with pytest.raises(ValueError, match="dimension mismatch"):
        mean([[1.0, 2.0], [1.0]])


def test_mean_permutation_and_translation():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 4))
    shift = rng.standard_normal(4)
    assert np.allclose(mean(x[::-1]), mean(x))
    assert np.allclose(mean(x + shift), mean(x) + shift)



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
