import numpy as np
import pytest

from gfnpool.envs import (
    DEFAULT_STATE_GUARD,
    MultisetEnv,
    PhyloEnv,
    StateSpace,
    random_topology,
    simulate_sites,
    split_sites,
)
from gfnpool.evaluation import exact_pT, l1, reward_table
from gfnpool.losses import LossSpec, db_loss_batch
from gfnpool.policy import load_snapshot, sample_batch
from gfnpool.train import (
    Model,
    TrainConfig,
    client_configs,
    derive_seed,
    fit,
    train_clients,
    train_local,
)
from tests.conftest import count_replays, counting_rewards


def small_cfg(kind="CB", **kw):
    base = dict(
        loss=LossSpec(kind),
        epochs=400,
        batch=64,
        seed=5,
        eval_every=100,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(epochs=0)
    with pytest.raises(ValueError):
        small_cfg(batch=1)
    with pytest.raises(ValueError):
        small_cfg(backend="gpu")
    with pytest.raises(ValueError):
        small_cfg(kind="AB")  # aggregation-only criterion
    for bad in (
        {"epsilon": 1.5},
        {"epsilon": -0.5},
        {"hidden": ()},
        {"hidden": (0,)},
        {"hidden": (8, 2.5)},
        {"hidden": 5},
        {"eval_every": 1.7},
        {"eval_every": -1},
    ):
        with pytest.raises(ValueError):
            small_cfg(**bad)


def test_reproducibility_same_seed(mset33):
    a = train_local(mset33, small_cfg())
    b = train_local(mset33, small_cfg())
    assert a.snapshot == b.snapshot
    assert [r["loss"] for r in a.metrics] == [r["loss"] for r in b.metrics]
    c = train_local(mset33, small_cfg(seed=6))
    assert c.snapshot != a.snapshot


def test_degenerate_single_terminal_env_immediately_exact():
    env = MultisetEnv(values=(0.4,), target_size=2)  # one terminal state
    res = train_local(env, small_cfg(epochs=1, eval_every=1))
    assert res.metrics[-1]["l1"] == pytest.approx(0.0, abs=1e-12)


def test_multiset_cb_converges_to_exact_oracle():
    gen = np.random.default_rng(2)
    env = MultisetEnv(values=tuple(gen.uniform(0, 1, 4)), target_size=3)
    res = train_local(env, small_cfg(epochs=3000, batch=128, eval_every=500))
    space = res.space
    final = l1(exact_pT(res.policy, space), reward_table([env], space))
    assert final <= 0.05
    # monotone trend: the criterion keeps decreasing in the median
    losses = [r["loss"] for r in res.metrics]
    k = max(1, len(losses) // 10)
    assert np.median(losses[-k:]) < np.median(losses[:k])


def test_snapshot_loads_back_to_same_distribution(mset33):
    res = train_local(mset33, small_cfg())
    pol, meta = load_snapshot(res.snapshot, mset33, res.space)
    assert meta["loss"] == "CB" and meta["role"] == "client"
    assert l1(exact_pT(pol, res.space), exact_pT(res.policy, res.space)) == 0.0


def test_client_fanout_order_failures_and_seeds(mset33):
    envs = [mset33, MultisetEnv(values=(0.1,), target_size=50_000), mset33]
    cfgs = client_configs(small_cfg(epochs=50), master_seed=9, n=3)
    # middle client cannot enumerate under a tiny guard: per-client failure
    cfgs[1] = TrainConfig(**{**cfgs[1].__dict__, "state_guard": 10})
    results = train_clients(list(zip(envs, cfgs)), parallelism=1)
    assert [r.ok for r in results] == [True, False, True]
    assert "EnumerationGuard" in results[1].error
    assert results[0].snapshot != results[2].snapshot  # distinct derived seeds


def test_parallelism_does_not_change_bytes(mset33):
    jobs = list(zip([mset33] * 3, client_configs(small_cfg(epochs=60), 4, 3), strict=True))
    seq = train_clients(jobs, parallelism=1)
    par = train_clients(jobs, parallelism=3)
    assert all(r.ok for r in seq)
    assert [r.snapshot for r in seq] == [r.snapshot for r in par]
    assert [m["loss"] for r in seq for m in r.metrics] == [m["loss"] for r in par for m in r.metrics]


def test_clients_share_one_enumeration(monkeypatch):
    gen = np.random.default_rng(8)
    envs = [MultisetEnv(values=tuple(gen.uniform(0, 1, 3)), target_size=3) for _ in range(3)]
    cfgs = client_configs(small_cfg(epochs=40), master_seed=12, n=3)
    alone = [train_local(e, c) for e, c in zip(envs, cfgs, strict=True)]
    enumerate_ = StateSpace.enumerated.__func__
    calls = []

    def counted(cls, env, guard=DEFAULT_STATE_GUARD):
        calls.append(env)
        return enumerate_(cls, env, guard)

    monkeypatch.setattr(StateSpace, "enumerated", classmethod(counted))
    jobs = list(zip(envs, cfgs, strict=True))
    shared = train_clients(jobs, parallelism=1)
    assert len(calls) == 1
    pooled = train_clients(jobs, parallelism=2)
    for a, r1, r2 in zip(alone, shared, pooled, strict=True):
        assert r1.snapshot == r2.snapshot == a.snapshot
        assert [m["loss"] for m in r1.metrics] == [m["loss"] for m in a.metrics]


@pytest.mark.parametrize("backend", ["tabular", "mlp"])
def test_cb_replays_once_per_epoch(grid3, grid3_space, monkeypatch, backend):
    # one sampling pass per epoch, and no replay: the pair loss reads every
    # pair off the sampler's step record
    import gfnpool.train as train_module

    replayed = count_replays(monkeypatch)
    sampled = []

    def counted(*args, **kw):
        sampled.append(kw.get("want_steps"))
        return sample_batch(*args, **kw)

    monkeypatch.setattr(train_module, "sample_batch", counted)
    cfg = small_cfg(epochs=5, batch=16, backend=backend, hidden=(8, 8), eval_every=0)
    train_local(grid3, cfg, grid3_space)
    assert sampled == [True] * 5
    assert replayed == []


@pytest.mark.parametrize("kind", ["CB", "DB"])
def test_epoch_phase_times_fit_in_the_wall_time(mset33, kind):
    res = train_local(mset33, small_cfg(kind, epochs=6, eval_every=2))
    for row in res.metrics:
        phases = [row[k] for k in ("sample_ms", "loss_ms", "step_ms", "eval_ms")]
        assert min(phases) >= 0.0
        assert sum(phases) <= row["wall_ms"]
    assert all(row["eval_ms"] > 0 for row in res.metrics[1::2])  # the probed epochs


@pytest.mark.parametrize("backend", ["tabular", "mlp"])
def test_model_blocks_are_views_of_one_buffer(grid3, grid3_space, backend):
    cfg = small_cfg("DB", epochs=1, batch=16, backend=backend, hidden=(8, 8), eval_every=0)
    init_ss = np.random.SeedSequence(cfg.seed).spawn(3)[2]

    model = Model(grid3, grid3_space, cfg, init_ss, logz_lr=0.1, flow=True)
    for view in (model.policy.params, model._logz, model.flow.params):
        assert np.shares_memory(view, model.params)
    assert model.flow.arity == 1
    start = model.flow.params.copy()

    def db(model, steps):
        return db_loss_batch(model.policy, model.flow, grid3_space, steps)

    trained, _ = fit(grid3, grid3_space, cfg, db, flow=True)
    assert np.shares_memory(trained.flow.params, trained.params)
    assert not np.array_equal(trained.flow.params, start)


def test_derive_seed_deterministic_and_distinct():
    a = derive_seed(123, 0)
    assert a == derive_seed(123, 0)
    assert len({derive_seed(123, k) for k in range(32)}) == 32


def test_phylo_shard_training_shape():
    gen = np.random.default_rng(21)
    truth = random_topology(5, gen)
    sites = simulate_sites(truth, 5, 60, 1.0, 0.1, gen)
    env = PhyloEnv(n_leaves=5, sites=sites, gamma=2.0)
    shards = split_sites(env, 5)
    assert len(shards) == 5
    cfgs = client_configs(small_cfg(epochs=120, batch=64, eval_every=60), 31, 5)
    results = train_clients(list(zip(shards, cfgs)), parallelism=1)
    assert all(r.ok for r in results)
    fps = {load_snapshot(r.snapshot, shards[i])[0].backend for i, r in enumerate(results)}
    assert fps == {"tabular"}


def test_nonfinite_loss_aborts():
    env = MultisetEnv(values=(1e308, 1e308), target_size=3)  # reward overflow
    from gfnpool.errors import RewardSupportError, NumericError

    with pytest.raises((RewardSupportError, NumericError)), pytest.warns(RuntimeWarning, match="overflow"):
        train_local(env, small_cfg(epochs=5))


@pytest.mark.parametrize("kind", ["CB", "DB"])
def test_fit_reads_each_new_terminal_once_through_the_space(mset33, kind, monkeypatch):
    import gfnpool.train as train_module

    env, seen = counting_rewards(mset33)
    epochs = []  # per epoch: the keys read before it, and its terminals

    def sampled(*args, **kwargs):
        steps = sample_batch(*args, **kwargs)
        epochs.append((seen[0], steps.tb.terminal_idx()))
        return steps

    monkeypatch.setattr(train_module, "sample_batch", sampled)
    res = train_local(env, small_cfg(kind, epochs=3, batch=8, eval_every=0))
    marks = [before for before, _ in epochs] + [seen[0]]
    assert len(epochs) == 3 and marks[0] == 0 < marks[1]
    read = np.zeros(res.space.n_states, dtype=bool)
    for k, (_, term) in enumerate(epochs):
        # one env key per terminal no earlier epoch read
        assert marks[k + 1] - marks[k] == np.setdiff1d(term, np.flatnonzero(read)).size
        read[term] = True
    res.space.log_rewards(np.flatnonzero(read))  # every one is in the cache now
    assert seen[0] == read.sum()
