import dataclasses
from typing import ClassVar

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasfl.aggregators import AggregatorSpec, aggregate_with_selection, bucketing_wrap, max_f
from gasfl.attacks import AttackSpec
from gasfl.core import SeedSpec
from gasfl.data import (ClientShards, SyntheticGradientModel, dirichlet_partition,
                        generate_synthetic)
from gasfl.gas import GasConfig, KnownF, gas_aggregate
from gasfl.models import Model, finite_difference_grad
from gasfl.reference import (dirichlet_shards_reference, local_train_reference,
                             synthetic_reference)
from gasfl.simulation import (BucketedDefense, DataConfig, ExperimentConfig, GasDefense,
                              PlainDefense, TrainerConfig, _sample_clients,
                              deviation_metric, inclusion_metrics, init_run, local_train,
                              run_experiment, run_round, run_single, server_step)

SMALL_DATA = DataConfig(n_classes=3, n_features=8, per_class=30, r_sep=6.0, noise=1.0,
                        beta=0.5, test_per_class=40)


def _small_cfg(attack="none", defense=None, n=8, f=2, rounds=3, repeats=1, seed=5, **kw):
    return ExperimentConfig(
        n_clients=n, n_byzantine=f, rounds=rounds,
        attack=AttackSpec(attack),
        defense=defense if defense is not None else PlainDefense(AggregatorSpec("mean")),
        trainer=kw.pop("trainer", TrainerConfig(local_epochs=1)),
        data=kw.pop("data", SMALL_DATA),
        repeats=repeats, master_seed=seed, **kw)


# synthetic data --------------------------------------------------------------

def test_generate_synthetic_zero_noise_collapses_to_centers():
    train, _ = generate_synthetic(3, 4, 5, r_sep=2.0, noise=0.0, seed=SeedSpec(1))
    for y in range(3):
        block = train.features[train.labels == y]
        assert np.all(block == block[0])
        assert np.linalg.norm(block[0]) == pytest.approx(2.0)


def test_generate_synthetic_separable_is_learnable():
    train, test = generate_synthetic(2, 16, 100, r_sep=10.0, noise=0.5, seed=SeedSpec(2))
    model = Model(n_classes=2, n_features=16)
    w = np.zeros(model.dim)
    for _ in range(200):
        w -= 0.5 * model.grad(w, train.features, train.labels)
    assert model.accuracy(w, test.features, test.labels) >= 0.99


def test_generate_synthetic_deterministic():
    a, at = generate_synthetic(4, 6, 10, 3.0, 1.0, SeedSpec(3))
    b, bt = generate_synthetic(4, 6, 10, 3.0, 1.0, SeedSpec(3))
    assert np.array_equal(a.features, b.features) and np.array_equal(at.features, bt.features)


def test_generate_synthetic_train_test_independent():
    train, test = generate_synthetic(4, 6, 10, 3.0, 1.0, SeedSpec(3))
    assert not np.array_equal(train.features, test.features)


# dirichlet partition ----------------------------------------------------------

def test_dirichlet_single_client_gets_everything():
    labels = np.array([0, 1, 0, 2, 1])
    part = dirichlet_partition(labels, 1, 0.5, SeedSpec(1))
    assert np.array_equal(part.client_indices[0], np.arange(5))


def test_dirichlet_conservation():
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 7, size=500)
    part = dirichlet_partition(labels, 13, 0.5, SeedSpec(9))
    merged = np.concatenate(part.client_indices)
    assert merged.size == 500
    assert np.array_equal(np.sort(merged), np.arange(500))


def test_dirichlet_default_configuration_runs():
    labels = np.repeat(np.arange(10), 50)
    part = dirichlet_partition(labels, 50, 0.5, SeedSpec(10))
    assert len(part.client_indices) == 50 and part.beta == 0.5


def test_dirichlet_validation():
    with pytest.raises(ValueError, match="positive"):
        dirichlet_partition(np.array([0, 1]), 2, 0.0, SeedSpec(0))


# set-up against its straight-line reference ----------------------------------

def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n, data", [
    (1, SMALL_DATA),
    (50, dataclasses.replace(SMALL_DATA, beta=0.05)),  # most shards empty
    (8, dataclasses.replace(SMALL_DATA, noise=0.0)),
    (8, dataclasses.replace(SMALL_DATA, per_class=1)),
    (8, dataclasses.replace(SMALL_DATA, test_per_class=None)),
    (8, dataclasses.replace(SMALL_DATA, beta=100.0)),
], ids=["one_client", "empty_shards", "noise_0", "per_class_1", "test_per_class_none", "beta_100"])
def test_setup_matches_straight_line_reference(n, data):
    cfg = _small_cfg(n=n, f=0, data=data)
    seed = SeedSpec(12)
    args = (data.n_classes, data.n_features, data.per_class, data.r_sep, data.noise, seed.child("data"))
    ref_train, ref_test = synthetic_reference(*args, test_per_class=data.test_per_class)
    train, test = generate_synthetic(*args, test_per_class=data.test_per_class)
    state = init_run(cfg, seed)
    for split, (features, labels) in ((train, ref_train), (test, ref_test), (state.test, ref_test)):
        assert _same_bits(split.features, features) and _same_bits(split.labels, labels)

    indices = dirichlet_shards_reference(ref_train[1], n, data.beta, seed.child("shards"))
    part = dirichlet_partition(train.labels, n, data.beta, seed.child("shards"))
    assert len(part.client_indices) == n
    assert all(_same_bits(got, want) for got, want in zip(part.client_indices, indices))
    if data.beta == 0.05:
        assert not all(idx.size for idx in indices)
    counts = np.array([idx.size for idx in indices], dtype=np.int64)
    shards = state.shards
    assert _same_bits(shards.features, np.concatenate([ref_train[0][idx] for idx in indices]))
    assert _same_bits(shards.labels, np.concatenate([ref_train[1][idx] for idx in indices]))
    assert _same_bits(shards.counts, counts)
    assert _same_bits(shards.starts, np.cumsum(counts) - counts)
    assert not shards.features.flags.writeable and not shards.labels.flags.writeable


NAN = float("nan")


# every float bound a library caller can reach, each written so that NaN fails it
@pytest.mark.parametrize("build, message", [
    (lambda: AggregatorSpec("geometric_median", eps=NAN), "eps must be positive"),
    (lambda: AttackSpec("min_max", gamma_init=NAN), "gamma_init must be positive"),
    (lambda: AttackSpec("min_max", tau=NAN), "tau must be positive"),
    (lambda: TrainerConfig(clip_norm=NAN), "clip_norm must be positive when enabled"),
    (lambda: TrainerConfig(learning_rate=NAN), "learning_rate must be >= 0"),
    (lambda: TrainerConfig(momentum=NAN), "momentum must lie in"),
    (lambda: TrainerConfig(weight_decay=NAN), "weight_decay must be >= 0"),
    (lambda: DataConfig(beta=NAN), "beta must be positive"),
    (lambda: DataConfig(r_sep=NAN), "r_sep must be >= 0"),
    (lambda: DataConfig(noise=NAN), "noise must be >= 0"),
    (lambda: _small_cfg(init_scale=NAN), "init_scale must be >= 0"),
    (lambda: dirichlet_partition(np.array([0, 1]), 2, NAN, SeedSpec(0)), "concentration must be positive"),
], ids=["AggregatorSpec.eps", "AttackSpec.gamma_init", "AttackSpec.tau", "TrainerConfig.clip_norm",
        "TrainerConfig.learning_rate", "TrainerConfig.momentum", "TrainerConfig.weight_decay",
        "DataConfig.beta", "DataConfig.r_sep", "DataConfig.noise", "ExperimentConfig.init_scale",
        "dirichlet_partition.beta"])
def test_nan_fails_every_float_bound(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# model gradients ---------------------------------------------------------------

@pytest.mark.parametrize("hidden", [None, 6])
def test_model_gradients_match_finite_differences(hidden):
    model = Model(n_classes=4, n_features=5, hidden=hidden)
    rng = np.random.default_rng(11)
    feats = rng.standard_normal((12, 5))
    labels = rng.integers(0, 4, size=12)
    for _ in range(5):
        w = rng.standard_normal(model.dim)
        num = finite_difference_grad(model, w, feats, labels)
        ana = model.grad(w, feats, labels)
        rel = np.linalg.norm(num - ana) / max(1.0, np.linalg.norm(ana))
        assert rel <= 1e-5


def test_model_dim_contract():
    assert Model(n_classes=10, n_features=64).dim == 650
    assert Model(n_classes=3, n_features=4, hidden=5).dim == 5 * 4 + 5 + 3 * 5 + 3


@pytest.mark.parametrize("fields, message", [
    ({"n_classes": 1, "n_features": 4}, "n_classes must be >= 2, got 1"),  # zero gradients, accuracy 1
    ({"n_classes": 0, "n_features": 4}, "n_classes must be >= 2, got 0"),
    ({"n_classes": 3, "n_features": 0}, "n_features must be >= 1, got 0"),
    ({"n_classes": 3, "n_features": -2}, "n_features must be >= 1, got -2"),
    ({"n_classes": 3, "n_features": 4, "hidden": 0}, "hidden must be >= 1 or null, got 0"),
], ids=["one_class", "no_class", "no_feature", "negative_features", "no_hidden_unit"])
def test_model_rejects_degenerate_widths(fields, message):
    with pytest.raises(ValueError, match=message):
        Model(**fields)


# local training -----------------------------------------------------------------

def _train_one(model, w, feats, labels, cfg, seed, flip_labels=False):
    """The batched trainer on a single client."""
    shards = ClientShards.from_shards([(feats, labels)])
    return local_train(model, w, shards, cfg, [seed], np.array([flip_labels]))[0]


def test_local_train_zero_lr_returns_zero():
    model = Model(n_classes=3, n_features=4)
    rng = np.random.default_rng(12)
    delta = _train_one(model, rng.standard_normal(model.dim), rng.standard_normal((9, 4)),
                       rng.integers(0, 3, 9), TrainerConfig(learning_rate=0.0), SeedSpec(1))
    assert np.array_equal(delta, np.zeros(model.dim))


def test_local_train_single_step_equals_lr_times_gradient():
    model = Model(n_classes=3, n_features=4)
    rng = np.random.default_rng(13)
    w = rng.standard_normal(model.dim)
    feats, labels = rng.standard_normal((7, 4)), rng.integers(0, 3, 7)
    cfg = TrainerConfig(local_epochs=1, batch_size=32, learning_rate=0.2,
                        momentum=0.0, weight_decay=0.0, clip_norm=None)
    delta = _train_one(model, w, feats, labels, cfg, SeedSpec(2))
    # w - (w - lr*g) reintroduces one rounding step, so compare at float64 precision
    assert np.allclose(delta, 0.2 * model.grad(w, feats, labels), rtol=1e-12, atol=1e-15)


def test_local_train_clip_bounds_single_step():
    model = Model(n_classes=3, n_features=4)
    rng = np.random.default_rng(14)
    w = rng.standard_normal(model.dim) * 10
    feats, labels = rng.standard_normal((7, 4)) * 50, rng.integers(0, 3, 7)
    cfg = TrainerConfig(local_epochs=1, batch_size=32, learning_rate=1.0,
                        momentum=0.0, weight_decay=0.0, clip_norm=0.5)
    delta = _train_one(model, w, feats, labels, cfg, SeedSpec(2))
    assert np.linalg.norm(delta) <= 0.5 + 1e-12


def test_local_train_label_flip_changes_result():
    model = Model(n_classes=3, n_features=4)
    rng = np.random.default_rng(15)
    w = rng.standard_normal(model.dim)
    feats, labels = rng.standard_normal((9, 4)), rng.integers(0, 3, 9)
    cfg = TrainerConfig(local_epochs=1)
    honest = _train_one(model, w, feats, labels, cfg, SeedSpec(3))
    flipped = _train_one(model, w, feats, labels, cfg, SeedSpec(3), flip_labels=True)
    assert not np.array_equal(honest, flipped)
    relabeled = _train_one(model, w, feats, 2 - labels, cfg, SeedSpec(3))
    assert np.array_equal(flipped, relabeled)


def test_local_train_empty_shard_rejected():
    model = Model(n_classes=3, n_features=4)
    with pytest.raises(ValueError, match="empty"):
        _train_one(model, np.zeros(model.dim), np.zeros((0, 4)), np.zeros(0, dtype=int),
                   TrainerConfig(), SeedSpec(0))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_batched_local_train_matches_reference(data):
    # ragged shards and batch sizes give several batches per epoch with uneven
    # tails, and clients that sit out the later steps of an epoch
    sizes = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=6), label="sizes")
    hidden = data.draw(st.sampled_from([None, 8]), label="hidden")
    cfg = TrainerConfig(local_epochs=data.draw(st.integers(0, 3), label="local_epochs"),
                        batch_size=data.draw(st.integers(1, 70), label="batch_size"),
                        clip_norm=data.draw(st.sampled_from([None, 0.05, 10.0]), label="clip_norm"))
    flips = np.array(data.draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)),
                               label="flips"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="data_seed"))
    model = Model(n_classes=4, n_features=5, hidden=hidden)
    shards = [(3.0 * rng.standard_normal((n, 5)), rng.integers(0, 4, n)) for n in sizes]
    seeds = [SeedSpec(11).child("client", i) for i in range(len(sizes))]
    w = rng.standard_normal(model.dim)
    updates = local_train(model, w, ClientShards.from_shards(shards), cfg, seeds, flips)
    assert updates.shape == (len(sizes), model.dim)
    for i, (feats, labels) in enumerate(shards):
        expected = local_train_reference(model, w, feats, labels, cfg, seeds[i], bool(flips[i]))
        assert np.array_equal(updates[i], expected), f"client {i} of sizes {sizes}"


@pytest.mark.parametrize("hidden", [None, 1, 8])
def test_stacked_grads_match_grad_per_client(hidden):
    # one width-1 layer or feature turns products into matrix-vector calls
    rng = np.random.default_rng(16)
    for n_features in (1, 7):
        model = Model(n_classes=3, n_features=n_features, hidden=hidden)
        counts = np.array([9, 9, 5, 1, 7, 9])
        ws = rng.standard_normal((counts.size, model.dim))
        feats = np.zeros((counts.size, 9, n_features))
        labels = np.zeros((counts.size, 9), dtype=np.int64)
        for i, n in enumerate(counts):
            feats[i, :n] = rng.standard_normal((n, n_features))
            labels[i, :n] = rng.integers(0, 3, n)
        stacked = model.grads(ws, feats, labels, counts)
        for i, n in enumerate(counts):
            assert np.array_equal(stacked[i], model.grad(ws[i], feats[i, :n], labels[i, :n]))


# metrics ---------------------------------------------------------------------------

def test_deviation_metric_examples():
    honest = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0]])
    mean = honest.mean(axis=0)
    assert deviation_metric(mean, honest) == 0.0
    assert deviation_metric(mean + np.array([3.0, 4.0, 0.0]), honest) == pytest.approx(5.0)


def test_inclusion_metrics_examples():
    byz_mask = np.array([False, False, False, True, True])
    ratio, byz = inclusion_metrics(np.array([0, 1, 2]), byz_mask)
    assert ratio == 1.0 and byz == 0
    ratio, byz = inclusion_metrics(np.arange(5), byz_mask)
    assert ratio == 1.0 and byz == 2
    ratio, byz = inclusion_metrics(np.array([0, 3]), byz_mask)
    assert ratio == pytest.approx(1 / 3) and byz == 1


def test_multi_krum_excludes_separated_outliers_in_round():
    # well-separated Byzantine cluster: Krum's selection drops all of it
    cfg = _small_cfg(attack="lie", defense=PlainDefense(AggregatorSpec("multi_krum")),
                     n=10, f=2, rounds=1)
    state = init_run(cfg, SeedSpec(77))

    honest_like = [c for c in range(10) if c not in state.byz_ids]
    honest = local_train(state.model, state.w, state.shards.take(honest_like), cfg.trainer,
                         [state.seed.child("train", 0).child("client", c) for c in honest_like])
    far = honest.mean(axis=0) + 50.0 * np.abs(honest).max()
    uploads = np.empty((10, state.w.size))
    byz_mask = np.array([c in state.byz_ids for c in range(10)])
    uploads[~byz_mask] = honest
    uploads[byz_mask] = far
    from gasfl.aggregators import aggregate_with_selection
    _, sel = aggregate_with_selection(AggregatorSpec("multi_krum"), uploads, 2)
    ratio, byz = inclusion_metrics(sel, byz_mask)
    assert byz == 0


# round loop --------------------------------------------------------------------

@pytest.mark.parametrize("hidden", [None, 4])
def test_fedavg_equivalence_straight_line_reference(hidden):
    # bit-identical re-derivation of the whole orchestration from public seeds
    cfg = _small_cfg(n=6, f=0, rounds=10, hidden=hidden)
    state = init_run(cfg, SeedSpec(5).child("repeat", 0))
    w_ref = state.w.copy()
    model, shards, seed = state.model, state.shards, state.seed
    trainer = cfg.trainer

    ws = []
    for t in range(10):
        state.w, _ = run_round(state, cfg, t)
        ws.append(state.w.copy())

    for t in range(10):
        rng = seed.child("sample", t).generator()
        sampled = np.sort(rng.choice(6, size=6, replace=False))
        sampled = [c for c in sampled if shards[c][0].shape[0] > 0]
        deltas = []
        for cid in sampled:
            feats, labels = shards[cid]
            crng = seed.child("train", t).child("client", cid).generator()
            w = w_ref.copy()
            velocity = np.zeros_like(w)
            for _ in range(trainer.local_epochs):
                order = crng.permutation(feats.shape[0])
                for start in range(0, order.size, trainer.batch_size):
                    batch = order[start : start + trainer.batch_size]
                    g = model.grad(w, feats[batch], labels[batch])
                    norm = np.linalg.norm(g)
                    if trainer.clip_norm is not None and norm > trainer.clip_norm:
                        g = g * (trainer.clip_norm / norm)
                    step = g + trainer.weight_decay * w
                    velocity = trainer.momentum * velocity + step
                    w = w - trainer.learning_rate * velocity
            deltas.append(w_ref - w)
        w_ref = w_ref - np.stack(deltas).mean(axis=0)
        assert np.array_equal(w_ref, ws[t]), f"round {t} diverged"


def test_gas_f0_matches_fedavg():
    plain = _small_cfg(n=6, f=0, rounds=4)
    gas = _small_cfg(n=6, f=0, rounds=4,
                     defense=GasDefense(AggregatorSpec("median"), p=4))
    r_plain = run_single(plain, SeedSpec(8))
    r_gas = run_single(gas, SeedSpec(8))
    for a, b in zip(r_plain, r_gas):
        assert a.test_accuracy == pytest.approx(b.test_accuracy, abs=1e-12)
        assert b.byz_inclusion_count == 0


def test_round_sampling_is_pure_function_of_seed_and_round():
    cfg = _small_cfg(n=8, f=2, rounds=2, client_sample_ratio=0.5)
    state1 = init_run(cfg, SeedSpec(6))
    state2 = init_run(cfg, SeedSpec(6))
    assert np.array_equal(_sample_clients(cfg, state1, 1), _sample_clients(cfg, state2, 1))
    assert not np.array_equal(_sample_clients(cfg, state1, 1), _sample_clients(cfg, state1, 2))


def test_honest_gradients_independent_of_attack():
    records = {}
    deltas = {}
    for kind in ["none", "lie", "ipm"]:
        cfg = _small_cfg(attack=kind, n=6, f=2, rounds=1,
                         defense=PlainDefense(AggregatorSpec("median")))
        state = init_run(cfg, SeedSpec(21))
        honest = [c for c in range(6) if c not in state.byz_ids]
        deltas[kind] = local_train(state.model, state.w, state.shards.take(honest), cfg.trainer,
                                   [state.seed.child("train", 0).child("client", c)
                                    for c in honest])
    assert np.array_equal(deltas["none"], deltas["lie"])
    assert np.array_equal(deltas["none"], deltas["ipm"])


def test_run_round_rejects_nan_uploads(monkeypatch):
    cfg = _small_cfg(attack="lie", n=6, f=2, rounds=1)
    state = init_run(cfg, SeedSpec(30))
    import gasfl.simulation as sim

    def bad_craft(spec, ctx, seed=None):
        out = np.full((ctx.byz_count, state.w.size), np.nan)
        return out

    monkeypatch.setattr(sim, "craft", bad_craft)
    with pytest.raises(ValueError, match="NaN"):
        run_round(state, cfg, 0)


def test_run_round_without_sampled_data_is_a_value_error():
    # 36 of 50 shards are empty; round 1 samples one client and it has no
    # data, so no client trains and the round must fail with a ValueError
    cfg = ExperimentConfig(n_clients=50, n_byzantine=10, rounds=2, attack=AttackSpec("none"),
                           defense=PlainDefense(AggregatorSpec("mean")),
                           data=dataclasses.replace(DataConfig(), per_class=2),
                           client_sample_ratio=0.02, repeats=1, master_seed=0)
    state = init_run(cfg, SeedSpec(0).child("repeat", 0))
    assert int((state.shards.counts == 0).sum()) == 36
    state.w, _ = run_round(state, cfg, 0)
    with pytest.raises(ValueError, match="round 1: no honest client sampled"):
        run_round(state, cfg, 1)


def test_bucketed_defense_runs():
    cfg = _small_cfg(attack="lie", n=9, f=2, rounds=2,
                     defense=BucketedDefense(AggregatorSpec("median"), s=2))
    records = run_single(cfg, SeedSpec(32))
    assert len(records) == 2
    assert all(0.0 <= r.test_accuracy <= 1.0 for r in records)


def test_defense_failure_names_round():
    # 3 of 50 clients sampled, which Multi-Krum takes at f = 0, but most
    # shards are empty: round 0 keeps fewer than the 3 clients it needs
    cfg = ExperimentConfig(n_clients=50, n_byzantine=10, rounds=1, attack=AttackSpec("none"),
                           defense=PlainDefense(AggregatorSpec("multi_krum")),
                           data=dataclasses.replace(DataConfig(), per_class=2),
                           client_sample_ratio=0.06, repeats=1)
    with pytest.raises(ValueError, match="defense failed in round 0"):
        run_single(cfg, SeedSpec(0))


def test_sample_too_small_for_the_rule_is_rejected():
    # Multi-Krum needs 3 rows at f = 0: 4 of 20 clients are enough, but
    # their ceil(4 / 2) = 2 bucket means and 2 clients are not
    krum = AggregatorSpec("multi_krum")
    _small_cfg(n=20, f=4, client_sample_ratio=0.2, defense=PlainDefense(krum))
    for ratio, defense in [(0.2, BucketedDefense(krum, s=2)), (0.1, PlainDefense(krum))]:
        with pytest.raises(ValueError, match=f"^client_sample_ratio {ratio} samples "):
            _small_cfg(n=20, f=4, client_sample_ratio=ratio, defense=defense)


# a sampled round with more Byzantine clients than the rule tolerates --------------

PARTIAL_DEFENSES = [
    pytest.param(PlainDefense(AggregatorSpec("median")), 1, id="median"),
    pytest.param(GasDefense(AggregatorSpec("median"), p=650), 1, id="gas_median"),
    pytest.param(PlainDefense(AggregatorSpec("multi_krum")), 1, id="multi_krum"),
    pytest.param(BucketedDefense(AggregatorSpec("median"), s=2), 3, id="bucketed_median"),
]


@pytest.mark.parametrize("defense, excess", PARTIAL_DEFENSES)
def test_partial_participation_clamps_f_and_counts_the_excess(defense, excess):
    # 10 of 50 clients sampled per round; round 67 samples 5 Byzantine
    # clients, one past the bound of 4 that the plain and GAS rules have at
    # n = 10, and three past the median's 2 of ceil(10 / 2) = 5 bucket means
    cfg = ExperimentConfig(n_clients=50, n_byzantine=10, rounds=200, attack=AttackSpec("lie", z=1.5),
                           defense=defense, client_sample_ratio=0.2, repeats=1)
    records = run_single(cfg, SeedSpec(3))
    assert len(records) == 200
    assert records[67].f_excess == excess
    assert all(r.f_excess >= 0 for r in records)


def test_round_with_one_honest_client_runs():
    # 5 of 50 clients per round: some rounds sample one honest client, whose
    # row is then the lie attack's mean, with a std of 0
    cfg = _small_cfg(attack="lie", n=50, f=10, rounds=200, client_sample_ratio=0.1,
                     defense=GasDefense(AggregatorSpec("median"), p=4, delta=0.45))
    state = init_run(cfg, SeedSpec(4))
    honest_counts, failed = [], []
    for t in range(cfg.rounds):
        sampled = _sample_clients(cfg, state, t)
        honest_counts.append(sum(int(c) not in state.byz_ids for c in sampled))
        try:
            state.w, _ = run_round(state, cfg, t)
        except ValueError as exc:
            assert "no honest client sampled" in str(exc)
            failed.append(t)
    assert honest_counts.count(1) > 0
    assert failed == [50, 78]  # out of scope here: rounds with no honest client


def test_gas_delta_drop_count_is_clamped():
    # 5 of 10 clients per round, none with an empty shard: delta = 0.45 drops
    # ceil(2.25) = 3, and the median tolerates 2 of 5, so every round runs
    # with 2 and records an excess of 1
    cfg = _small_cfg(n=10, f=2, rounds=3, client_sample_ratio=0.5,
                     defense=GasDefense(AggregatorSpec("median"), p=4, delta=0.45))
    assert [r.f_excess for r in run_single(cfg, SeedSpec(4))] == [1, 1, 1]


# the server step on hand-built uploads ---------------------------------------------

@pytest.mark.parametrize("f", [0, 1, 3])
def test_server_step_ipm_against_the_mean(f):
    # ipm sends -eps * hbar from f of n positions, so the mean lands
    # (f / n)(1 + eps) hbar away from the honest mean hbar
    n, eps, seed = 8, 0.7, SeedSpec(9)
    honest = np.random.default_rng(8).standard_normal((n - f, 5)) + 1.0
    byz_mask = np.isin(np.arange(n), [1, 4, 6][:f])
    mean = PlainDefense(AggregatorSpec("mean"))
    agg, step = server_step(mean, AttackSpec("ipm", epsilon=eps), honest, byz_mask, seed, 0)
    hbar = honest.mean(axis=0)
    assert step.deviation == pytest.approx(f / n * (1 + eps) * np.linalg.norm(hbar), rel=1e-12, abs=0)
    assert (step.honest_inclusion_ratio, step.byz_inclusion_count, step.f_excess) == (1.0, f, 0)
    bit_flip = AttackSpec("bit_flip")
    if f:
        with pytest.raises(ValueError, match="bit_flip needs the Byzantine clients' own gradients"):
            server_step(mean, bit_flip, honest, byz_mask, seed, 0)
    else:  # no row is crafted, so no Byzantine client's own gradient is needed
        assert np.array_equal(server_step(mean, bit_flip, honest, byz_mask, seed, 0)[0], agg)


def test_server_step_deviation_of_a_huge_finite_upload_is_finite(monkeypatch):
    # the mean takes one Byzantine row of 1e300s to 2e299s, whose plain norm
    # squares past the float range
    honest = np.random.default_rng(3).standard_normal((4, 3))
    monkeypatch.setattr("gasfl.simulation.craft", lambda spec, ctx, seed: np.full((ctx.byz_count, 3), 1e300))
    byz_mask = np.arange(5) == 4
    agg, step = server_step(PlainDefense(AggregatorSpec("mean")), AttackSpec("lie"),
                            honest, byz_mask, SeedSpec(0), 0)
    assert np.isfinite(step.deviation)
    assert step.deviation == pytest.approx(np.linalg.norm((agg - honest.mean(axis=0)) / 1e299) * 1e299,
                                           rel=1e-12, abs=0)


# each defense's count, bound and stream --------------------------------------------

DNC, MEDIAN = AggregatorSpec("dnc", b=2), AggregatorSpec("median")


def _gas_entry(x, f, seed, t):
    agg, _, result, _ = gas_aggregate(GasConfig(4, MEDIAN, KnownF(f), seed.child("gas")), x, round=t)
    return agg, result.selected


@pytest.mark.parametrize("defense, count, kept, entry", [
    (PlainDefense(DNC), (1, 2), 6,
     lambda x, f, seed, t: aggregate_with_selection(DNC, x, f, seed.child("agr", t))),
    (GasDefense(MEDIAN, p=4, delta=0.25), (3, 4), 7, _gas_entry),
    (BucketedDefense(MEDIAN, s=2), (1, 2), 10,
     lambda x, f, seed, t: (bucketing_wrap(MEDIAN, x, f, 2, seed.child("bucketing", t)), np.arange(10))),
], ids=["plain_dnc", "gas_delta", "bucketed_median"])
def test_apply_is_its_entry_point_on_its_stream(defense, count, kept, entry):
    # 10 clients holding 1 Byzantine one: DnC with b = 2 takes f <= 2 of 10,
    # GAS with delta = 0.25 hands its base rule ceil(2.5) = 3 whatever f is,
    # within the median's 4, and keeps the other 7, and bucketing runs its
    # rule over ceil(10 / 2) = 5 bucket means, of which the median takes f <= 2
    x = np.random.default_rng(9).standard_normal((10, 6))
    seed = SeedSpec(3)
    assert defense.base_input(10, 1) == count
    agg, selected = defense.apply(x, count[0], seed, 2)
    ref, ref_selected = entry(x, count[0], seed, 2)
    assert np.array_equal(agg, ref) and np.array_equal(selected, ref_selected)
    assert selected.size == kept
    # the uploads are such that the round's stream moves the aggregate
    assert not np.array_equal(defense.apply(x, count[0], seed, 3)[0], agg)


def test_gas_delta_zero_keeps_everyone():
    x = np.random.default_rng(7).standard_normal((6, 4))
    defense = GasDefense(AggregatorSpec("median"), p=4, delta=0.0)
    assert defense.base_input(6, 2) == (0, 2)
    _, selected = defense.apply(x, 0, SeedSpec(3), 0)
    assert np.array_equal(selected, np.arange(6))


@pytest.mark.parametrize("delta", [0.5, -0.1, float("nan")])
def test_gas_defense_rejects_delta_outside_range(delta):
    with pytest.raises(ValueError, match=r"^delta must lie in \[0, 0.5\)"):
        GasDefense(AggregatorSpec("median"), p=4, delta=delta)


# a defense the simulator has never heard of ------------------------------------

@dataclasses.dataclass(frozen=True)
class OutsideDefense:
    """PlainDefense's rule on PlainDefense's stream, under a class of its own."""

    base: AggregatorSpec
    kind: ClassVar[str] = "outside"
    count_field: ClassVar[str] = "n_byzantine"

    def base_input(self, n, f):
        return f, max_f(self.base, n)

    def apply(self, uploads, f, seed, t):
        return aggregate_with_selection(self.base, uploads, f, seed.child("agr", t))


def test_a_defense_defined_outside_simulation_runs_as_its_twin():
    # ExperimentConfig and the round read only the defense's own contract, so
    # a new class runs with no edit to simulation, and bit for bit as the
    # PlainDefense it copies
    def records(defense, **kw):
        cfg = _small_cfg(attack="lie", n=10, f=2, rounds=3, defense=defense, **kw)
        return [dataclasses.replace(r, wall_time=0.0) for r in run_single(cfg, SeedSpec(6))]
    for spec, kw in [(AggregatorSpec("multi_krum"), {}),
                     (AggregatorSpec("median"), {"client_sample_ratio": 0.5})]:
        assert records(OutsideDefense(spec), **kw) == records(PlainDefense(spec), **kw)
    # its bound is checked and its excess counted as any other defense's
    bulyan = AggregatorSpec("bulyan")
    with pytest.raises(ValueError, match=r"^n_byzantine is out of .*outside\(bulyan\) takes f <= 2"):
        _small_cfg(n=10, f=3, defense=OutsideDefense(bulyan))
    with pytest.raises(ValueError, match=r"^client_sample_ratio 0.2 samples 2 of 10 .*outside\(multi_krum\)"):
        _small_cfg(n=10, f=2, client_sample_ratio=0.2, defense=OutsideDefense(AggregatorSpec("multi_krum")))
    honest = np.random.default_rng(2).standard_normal((3, 4))
    byz_mask = np.arange(6) >= 3
    _, step = server_step(OutsideDefense(bulyan), AttackSpec("lie"), honest, byz_mask, SeedSpec(1), 0)
    assert step.f_excess == 2  # Bulyan takes f <= 1 of 6


# experiment driver ---------------------------------------------------------------

def test_run_experiment_single_repeat_zero_std():
    cfg = _small_cfg(rounds=2, repeats=1)
    records, summary = run_experiment(cfg)
    assert len(records) == 1 and summary.best_std == 0.0


def test_run_experiment_deterministic_and_repeats_differ():
    cfg = _small_cfg(rounds=2, repeats=2)
    r1, s1 = run_experiment(cfg)
    r2, s2 = run_experiment(cfg)
    assert s1.best_accuracies == s2.best_accuracies
    assert [rec.test_accuracy for rec in r1[0]] != [rec.test_accuracy for rec in r1[1]]


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="f < n/2"):
        _small_cfg(n=6, f=3)
    with pytest.raises(ValueError):
        _small_cfg(client_sample_ratio=0.0)


# negative control -------------------------------------------------------------------

def test_monotone_harm_on_desk_instance():
    # the attack must actually bite when nothing filters it; the 10-point hit
    # lands on multi_krum, whose colluder-tracking selection sheds the honest
    # outliers' restoring pull (plain mean keeps every honest client, which
    # caps its equilibrium damage near 2-3 points on this convex task)
    def final(attack, defense):
        cfg = ExperimentConfig(n_clients=50, n_byzantine=10, rounds=200, repeats=1,
                               master_seed=20260810, attack=attack, defense=defense)
        return run_single(cfg, SeedSpec(20260810).child("repeat", 0))[-1].test_accuracy

    clean = final(AttackSpec("none"), PlainDefense(AggregatorSpec("mean")))
    lie_mean = final(AttackSpec("lie"), PlainDefense(AggregatorSpec("mean")))
    lie_mk = final(AttackSpec("lie"), PlainDefense(AggregatorSpec("multi_krum")))
    assert clean - lie_mean >= 0.015
    assert clean - lie_mk >= 0.10


# direct gradient model --------------------------------------------------------------

def _client_means_three_arrays(model):
    """The means as base + shifts over whole-matrix norms, three (n, d) arrays."""
    rng = model.seed.child("client_means").generator()
    base = rng.standard_normal(model.dim)
    base *= model.base_norm / max(np.linalg.norm(base), 1e-300)
    shifts = rng.standard_normal((model.n_honest, model.dim))
    shifts *= model.kappa / np.maximum(np.linalg.norm(shifts, axis=1, keepdims=True), 1e-300)
    return base + shifts


@pytest.mark.parametrize("dim,n_honest", [(64, 12), (10_000, 40), (5_000, 7), (1, 3)])
def test_client_means_match_three_array_form(dim, n_honest):
    # built in place in one array, with row norms taken a few rows at a time
    model = SyntheticGradientModel(dim=dim, n_honest=n_honest, kappa=1.3, sigma=0.5,
                                   seed=SeedSpec(dim))
    assert np.array_equal(model.client_means(), _client_means_three_arrays(model))


@pytest.mark.parametrize("field,value", [("dim", 0), ("n_honest", 0), ("kappa", -1.0),
                                         ("kappa", float("nan")), ("sigma", -1.0),
                                         ("sigma", float("inf")), ("base_norm", float("nan"))])
def test_synthetic_gradient_model_rejects_bad_fields(field, value):
    # each is an error naming its field: dim=0 would divide by zero in
    # client_means, sigma=-1 flip the noise and kappa=nan give NaN means
    fields = dict(dim=8, n_honest=3, kappa=1.0, sigma=0.5, seed=SeedSpec(0), base_norm=1.0)
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SyntheticGradientModel(**{**fields, field: value})


def test_synthetic_gradient_model_geometry():
    model = SyntheticGradientModel(dim=64, n_honest=12, kappa=1.0, sigma=0.5, seed=SeedSpec(40))
    means = model.client_means()
    base_dists = np.linalg.norm(means - means.mean(axis=0), axis=1)
    assert means.shape == (12, 64)
    # every client mean sits exactly kappa from the shared base direction
    rng_means = model.client_means()
    assert np.array_equal(means, rng_means)
    # drawn once per instance and shared read-only; an equal model redraws the same means
    assert rng_means is means and not means.flags.writeable
    same = SyntheticGradientModel(dim=64, n_honest=12, kappa=1.0, sigma=0.5, seed=SeedSpec(40))
    assert np.array_equal(same.client_means(), means)
    g1 = model.sample_round(3)
    g2 = model.sample_round(3)
    assert np.array_equal(g1, g2)
    assert not np.array_equal(g1, model.sample_round(4))
    noise_norm = np.linalg.norm(model.sample_round(5) - means, axis=1)
    assert np.all(np.abs(noise_norm - 0.5) < 0.25)
