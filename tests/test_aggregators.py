import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasfl import reference as ref
from gasfl.aggregators import (AggregatorSpec, _krum_scores, aggregate, aggregate_with_selection,
                               bucketing_wrap, bulyan, bulyan_selection, coordinate_median,
                               coordinate_trimmed_mean, dnc, dnc_survivors, estimate_resilience,
                               geometric_median, multi_krum, multi_krum_selection)
from gasfl.core import SeedSpec, pairwise_sq_dists


def _rand(seed, n, d, scale=2.0):
    return np.random.default_rng(seed).standard_normal((n, d)) * scale


# dispatch ---------------------------------------------------------------

def test_aggregate_dispatch_examples():
    assert np.array_equal(aggregate(AggregatorSpec("mean"), [[1.0], [3.0]], 0), [2.0])
    assert np.array_equal(aggregate(AggregatorSpec("median"), [[1.0], [2.0], [9.0]], 1), [2.0])


def test_aggregate_shared_precondition():
    with pytest.raises(ValueError, match="f < n/2"):
        aggregate(AggregatorSpec("median"), [[1.0], [2.0], [9.0]], 2)


def test_bulyan_constraint_error():
    with pytest.raises(ValueError, match="4f\\+2"):
        aggregate(AggregatorSpec("bulyan"), _rand(0, 5, 2), 1)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown aggregator kind"):
        AggregatorSpec("krum_xl")


# median ------------------------------------------------------------------

def test_median_examples():
    assert np.array_equal(coordinate_median([[1.0], [2.0], [9.0]]), [2.0])
    assert np.array_equal(coordinate_median([[1.0, 0.0], [2.0, 1.0], [3.0, 5.0], [4.0, 6.0]]),
                          [2.5, 3.0])


def test_median_matches_sort_oracle():
    x = _rand(3, 7, 3)
    assert np.abs(coordinate_median(x) - ref.median_reference(x)).max() <= 1e-12


@st.composite
def median_inputs(draw):
    """(n, d) matrices in either layout, with ties, signed zeros, infs and NaN columns."""
    n = draw(st.integers(1, 60), label="n")
    d = draw(st.integers(1, 9), label="d")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    # rounding leaves many ties, and -0.0 wherever a negative value rounds to zero
    x = np.round(rng.standard_normal((n, d)) * draw(st.sampled_from([0.3, 2.0, 1e3]), label="scale"))
    x[rng.random((n, d)) < draw(st.sampled_from([0.0, 0.3, 0.9]), label="zeros")] = -0.0
    special = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, d - 1),
                                      st.sampled_from([np.nan, np.inf, -np.inf])),
                            max_size=4), label="special")
    for i, j, value in special:
        x[i, j] = value
    return np.asarray(x, order=draw(st.sampled_from(["C", "F"]), label="order"))


@settings(max_examples=400, deadline=None)
@given(x=median_inputs())
def test_median_bit_identical_to_np_median(x):
    with np.errstate(invalid="ignore"):  # inf and -inf as the middle pair average to NaN
        fast, slow = coordinate_median(x), np.median(x, axis=0)
    assert np.array_equal(fast, slow, equal_nan=True)
    assert np.array_equal(np.signbit(fast), np.signbit(slow))


# trimmed mean ------------------------------------------------------------

def test_trimmed_mean_examples():
    assert np.array_equal(coordinate_trimmed_mean([[0.0], [1.0], [2.0], [3.0], [100.0]], 1), [2.0])
    x = _rand(4, 6, 2)
    assert np.allclose(coordinate_trimmed_mean(x, 0), x.mean(axis=0))


def test_trimmed_mean_constraint():
    with pytest.raises(ValueError, match="n > 2f"):
        coordinate_trimmed_mean(_rand(0, 4, 2), 2)


def test_trimmed_mean_matches_sort_oracle():
    x = _rand(5, 9, 4)
    assert np.abs(coordinate_trimmed_mean(x, 2) - ref.trimmed_mean_reference(x, 2)).max() <= 1e-12


# multi-krum --------------------------------------------------------------

def test_multi_krum_outlier_dominance():
    x = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [100.0, 100.0]])
    assert np.array_equal(multi_krum(x, 1), [1.0, 1.0])
    assert np.array_equal(multi_krum_selection(x, 1), [0, 1, 2])


def test_multi_krum_identical_inputs():
    x = np.tile([2.0, -1.0], (5, 1))
    assert np.array_equal(multi_krum(x, 1), [2.0, -1.0])


def test_multi_krum_constraint():
    with pytest.raises(ValueError, match="f\\+3"):
        multi_krum(_rand(0, 4, 2), 2)


def test_multi_krum_matches_brute_force():
    x = _rand(6, 6, 3)
    assert np.abs(_krum_scores(pairwise_sq_dists(x), 1)
                  - ref.krum_scores_reference(x, 1)).max() <= 1e-12
    assert np.abs(multi_krum(x, 1) - ref.multi_krum_reference(x, 1)).max() <= 1e-12


# bulyan ------------------------------------------------------------------

def test_bulyan_identical_inputs():
    x = np.tile([3.0], (7, 1))
    assert np.array_equal(bulyan(x, 1), [3.0])


def test_bulyan_single_outlier():
    x = np.array([[0.0]] * 6 + [[100.0]])
    assert np.array_equal(bulyan(x, 1), [0.0])


def test_bulyan_matches_straight_line_oracle():
    x = _rand(8, 11, 2)
    assert np.array_equal(bulyan_selection(x, 2), ref.bulyan_selection_reference(x, 2))
    assert np.abs(bulyan(x, 2) - ref.bulyan_reference(x, 2)).max() <= 1e-12


def test_bulyan_dispatch_selects_once(monkeypatch):
    import gasfl.aggregators as agg_mod
    calls = []
    real = agg_mod.bulyan_selection

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(agg_mod, "bulyan_selection", counted)
    x = _rand(10, 11, 4)
    out, sel = aggregate_with_selection(AggregatorSpec("bulyan"), x, 2)
    assert len(calls) == 1
    assert np.array_equal(sel, ref.bulyan_selection_reference(x, 2))
    assert np.abs(out - ref.bulyan_reference(x, 2)).max() <= 1e-12
    assert np.array_equal(out, bulyan(x, 2))


def test_bulyan_output_within_selected_range():
    x = _rand(9, 11, 3)
    sel = x[bulyan_selection(x, 2)]
    out = bulyan(x, 2)
    assert np.all(out >= sel.min(axis=0) - 1e-12) and np.all(out <= sel.max(axis=0) + 1e-12)


# geometric median ---------------------------------------------------------

def test_geometric_median_identical_points():
    x = np.tile([1.5, -2.0], (4, 1))
    assert np.allclose(geometric_median(x), [1.5, -2.0])


def test_geometric_median_square_symmetry():
    x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert np.abs(geometric_median(x, iters=100)).max() <= 1e-9


def test_geometric_median_1d_converges_to_median():
    x = np.array([[0.0], [1.0], [10.0]])
    out = geometric_median(x, iters=200)
    assert abs(out[0] - 1.0) < 0.05
    assert (ref.geometric_median_objective(out, x)
            <= ref.geometric_median_objective(x.mean(axis=0), x) + 1e-9)


def test_geometric_median_objective_nonincreasing():
    x = _rand(11, 8, 3)
    objs = [ref.geometric_median_objective(geometric_median(x, iters=t), x) for t in range(1, 8)]
    assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))


# dnc ----------------------------------------------------------------------

def test_dnc_f_zero_is_mean():
    x = _rand(12, 6, 4)
    assert np.allclose(dnc(x, 0, seed=SeedSpec(1)), x.mean(axis=0))


def test_dnc_removes_rank_one_outliers():
    # exact copies: the planted cluster carries all the spectral mass
    d = 12
    x = np.vstack([np.zeros((8, d)), np.full((2, d), 10.0)])
    out = dnc(x, 2, seed=SeedSpec(5))
    assert np.array_equal(out, np.zeros(d))
    survivors = dnc_survivors(x, 2, seed=SeedSpec(5))
    assert set(survivors).issubset(set(range(8)))


def test_dnc_power_iteration_matches_dense_eig():
    from gasfl.aggregators import _spectral_scores
    rng = np.random.default_rng(13)
    for k in range(20):
        x = rng.standard_normal((8, 5))
        x[0] += 9.0
        centered = x - x.mean(axis=0)
        scores = _spectral_scores(centered, SeedSpec(100 + k))
        exact = (centered @ ref.top_direction_reference(centered)) ** 2
        assert np.abs(scores - exact).max() / exact.max() <= 1e-6


def test_dnc_all_marked_is_error():
    x = _rand(14, 5, 3)
    with pytest.raises(ValueError, match="n > floor"):
        dnc(x, 2, c=4.0, seed=SeedSpec(0))  # floor(cf)=8 >= n=5


# bucketing -----------------------------------------------------------------

def test_bucketing_s1_equals_plain():
    x = _rand(15, 9, 3)
    spec = AggregatorSpec("median")
    assert np.allclose(bucketing_wrap(spec, x, 2, 1, SeedSpec(3)), aggregate(spec, x, 2),
                       atol=1e-12)


def test_bucketing_single_bucket_is_mean():
    x = _rand(16, 6, 2)
    out = bucketing_wrap(AggregatorSpec("median"), x, 0, 6, SeedSpec(3))
    assert np.allclose(out, x.mean(axis=0), atol=1e-12)


def test_bucketing_matches_permute_chunk_oracle():
    x = _rand(17, 9, 4)
    seed = SeedSpec(8)
    out = bucketing_wrap(AggregatorSpec("median"), x, 2, 2, seed)
    perm = seed.child("bucketing").generator().permutation(9)
    means = ref.bucketed_means_reference(x, 2, perm)
    assert np.allclose(out, coordinate_median(means), atol=1e-12)


def test_bucketing_too_few_buckets():
    with pytest.raises(ValueError, match="too few buckets"):
        bucketing_wrap(AggregatorSpec("median"), _rand(18, 9, 2), 3, 3, SeedSpec(0))


# equivariances and invariances ---------------------------------------------

EQUIVARIANT = [AggregatorSpec("mean"), AggregatorSpec("median"),
               AggregatorSpec("trimmed_mean"), AggregatorSpec("geometric_median")]


@pytest.mark.parametrize("spec", EQUIVARIANT, ids=lambda s: s.kind)
def test_translation_equivariance(spec):
    x = _rand(19, 9, 4)
    shift = np.random.default_rng(20).standard_normal(4)
    lhs = aggregate(spec, x + shift, 2)
    rhs = aggregate(spec, x, 2) + shift
    assert np.abs(lhs - rhs).max() <= 1e-9


@pytest.mark.parametrize("spec", EQUIVARIANT, ids=lambda s: s.kind)
def test_positive_scale_equivariance(spec):
    x = _rand(21, 9, 4)
    a = 3.7
    lhs = aggregate(spec, a * x, 2)
    rhs = a * aggregate(spec, x, 2)
    assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())


@pytest.mark.parametrize("kind", ["median", "trimmed_mean"])
def test_coordinate_boundedness(kind):
    x = _rand(22, 9, 5)
    out = aggregate(AggregatorSpec(kind), x, 2)
    assert np.all(out >= x.min(axis=0)) and np.all(out <= x.max(axis=0))


@pytest.mark.parametrize("kind", ["mean", "median", "trimmed_mean", "multi_krum",
                                  "bulyan", "geometric_median", "dnc"])
def test_permutation_invariance(kind):
    x = _rand(23, 11, 4)
    perm = np.random.default_rng(24).permutation(11)
    spec = AggregatorSpec(kind)
    seed = SeedSpec(55)
    out = aggregate(spec, x, 2, seed=seed)
    out_perm = aggregate(spec, x[perm], 2, seed=seed)
    assert np.abs(out - out_perm).max() <= 1e-9


def test_oracle_equivalence_thousand_instances():
    # exact agreement with the brute-force references on small random instances
    rng = np.random.default_rng(31)
    for _ in range(1000):
        n = int(rng.integers(6, 12))
        d = int(rng.integers(1, 6))
        x = rng.standard_normal((n, d)) * float(rng.uniform(0.5, 3.0))
        f = int(rng.integers(0, (n - 2) // 4 + 1))
        assert np.abs(coordinate_median(x) - ref.median_reference(x)).max() <= 1e-12
        assert np.abs(coordinate_trimmed_mean(x, f) - ref.trimmed_mean_reference(x, f)).max() <= 1e-12
        assert np.abs(_krum_scores(pairwise_sq_dists(x), f)
                      - ref.krum_scores_reference(x, f)).max() <= 1e-12
        assert np.array_equal(bulyan_selection(x, f), ref.bulyan_selection_reference(x, f))
        assert np.abs(bulyan(x, f) - ref.bulyan_reference(x, f)).max() <= 1e-12


# selection reporting --------------------------------------------------------

def test_aggregate_with_selection_reports_all_for_unselective_rules():
    x = _rand(25, 7, 3)
    for kind in ["mean", "median", "trimmed_mean", "geometric_median"]:
        _, sel = aggregate_with_selection(AggregatorSpec(kind), x, 2)
        assert np.array_equal(sel, np.arange(7))


# resilience certifier --------------------------------------------------------

def test_resilience_mean_f0_is_zero():
    report = estimate_resilience(AggregatorSpec("mean"), 8, 0, 3, 50, SeedSpec(1))
    assert report.lambda_hat == 0.0
    assert report.skipped == 0


def test_resilience_median_regression_anchor():
    report = estimate_resilience(AggregatorSpec("median"), 10, 2, 1, 1000, SeedSpec(2024))
    assert np.isfinite(report.lambda_hat)
    # frozen from the first run of this exact configuration
    assert report.lambda_hat == pytest.approx(0.3623425066349678, abs=1e-12)


def test_resilience_robust_rules_finite():
    for kind in ["median", "trimmed_mean", "multi_krum", "bulyan"]:
        report = estimate_resilience(AggregatorSpec(kind), 10, 2, 4, 100, SeedSpec(7))
        assert np.isfinite(report.lambda_hat) and report.lambda_hat >= 0


def test_resilience_mean_negative_control_diverges():
    report = estimate_resilience(AggregatorSpec("mean"), 10, 2, 4, 100, SeedSpec(7),
                                 adversary_scale=1e6)
    assert report.lambda_hat > 1e3


def test_resilience_adversary_at_mean_matches_clean_ratio():
    # an adversary sitting exactly on the honest mean is indistinguishable
    spec = AggregatorSpec("median")
    n, f, dim = 10, 2, 3
    seed = SeedSpec(5)
    report = estimate_resilience(spec, n, f, dim, 1, seed, adversary_scale=0.0)
    rng = seed.child("trial", 0).generator()
    honest = rng.standard_normal((n - f, dim))
    center = honest.mean(axis=0)
    points = np.vstack([honest, np.tile(center, (f, 1))])
    diff = honest[:, None, :] - honest[None, :, :]
    max_dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff).max())
    expected = np.linalg.norm(aggregate(spec, points, f) - center) / max_dist
    assert report.lambda_hat == pytest.approx(expected, abs=1e-15)
