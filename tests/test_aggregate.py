import hashlib

import numpy as np
import pytest

import gfnpool.aggregate as agg_module
from gfnpool.aggregate import (
    AggregateConfig,
    PcviParams,
    aggregate_ab,
    fedavg_average,
    load_local_policies,
    naive_policy_product,
    pcvi_distribution,
    pcvi_fit,
    pcvi_pool,
    pcvi_write,
)
from gfnpool.envs import GridEnv, MultisetEnv, SequenceEnv, StateSpace
from gfnpool.envs.base import Environment
from gfnpool.errors import SnapshotError, UnsupportedLossError
from gfnpool.evaluation import exact_pT, l1, reward_table
from gfnpool.losses import LossSpec, PooledLocals
from gfnpool.policy import (
    MlpPolicy,
    TabularPolicy,
    balanced_tabular_policy,
    load_snapshot,
    replay_log_pf,
    sample_batch,
    save_snapshot,
)
from gfnpool.train import TrainConfig, train_local
from tests.conftest import action_distribution, count_replays, pcvi_read, random_tabular


class RewardCallCounter(Environment):
    """Delegating wrapper that counts terminal-reward evaluations."""

    def __init__(self, base):
        self.base = base
        self.kind = base.kind
        self.all_states_terminal = base.all_states_terminal
        self.calls = 0

    @property
    def max_arity(self):
        return self.base.max_arity

    @property
    def max_traj_len(self):
        return self.base.max_traj_len

    @property
    def feature_dim(self):
        return self.base.feature_dim

    def initial_key(self):
        return self.base.initial_key()

    def validate_key(self, s):
        self.base.validate_key(s)

    def _children(self, s):
        return self.base._children(s)

    def parents(self, s):
        return self.base.parents(s)

    def _is_terminal(self, s):
        return self.base._is_terminal(s)

    @property
    def key_width(self):
        return self.base.key_width

    @property
    def _featurize_rows(self):
        return self.base._featurize_rows

    def n_states_estimate(self):
        return self.base.n_states_estimate()

    def structure(self):
        return self.base.structure()

    def log_reward(self, s):
        self.calls += 1
        return self.base.log_reward(s)


def trained_clients(envs, epochs=800, seed=3):
    out = []
    for k, env in enumerate(envs):
        cfg = TrainConfig(
            loss=LossSpec("CB"),
            epochs=epochs,
            batch=64,
            seed=seed + k,
            eval_every=0,
        )
        out.append(train_local(env, cfg).snapshot)
    return out


def test_aggregation_never_evaluates_any_reward(rng):
    envs = [
        MultisetEnv(values=(0.9, 0.1, 0.4), target_size=2),
        MultisetEnv(values=(0.2, 0.8, 0.3), target_size=2),
    ]
    snaps = trained_clients(envs, epochs=300)
    counter = RewardCallCounter(envs[0])
    cfg = AggregateConfig(epochs=100, batch=32, seed=7, eval_every=0)
    res = aggregate_ab(counter, snaps, cfg, eval_target=None)
    assert counter.calls == 0
    assert np.isfinite(res.metrics[-1]["loss"])


def test_aggregation_single_client_distills(rng):
    env = GridEnv(side=4, beacons=((2, 1),))
    snaps = trained_clients([env], epochs=900)
    space = StateSpace.enumerated(env)
    local = load_local_policies(env, snaps, space)[0]
    own = exact_pT(local, space)
    cfg = AggregateConfig(epochs=1500, batch=128, seed=9, eval_every=500)
    res = aggregate_ab(env, snaps, cfg, eval_target=own)
    assert res.metrics[-1]["l1"] <= 0.02


def test_aggregation_product_of_balanced_clients(rng):
    envs = [
        MultisetEnv(values=(1.2, 0.1, -0.5), target_size=2),
        MultisetEnv(values=(-0.3, 0.9, 0.2), target_size=2),
    ]
    space = StateSpace.enumerated(envs[0])
    snaps = []
    for e in envs:
        es = StateSpace.enumerated(e)
        snaps.append(save_snapshot(balanced_tabular_policy(es), e))
    target = reward_table(envs, space)
    cfg = AggregateConfig(epochs=2500, batch=128, seed=5, eval_every=500)
    res = aggregate_ab(envs[0], snaps, cfg, eval_target=target)
    assert res.metrics[-1]["loss"] <= 1e-5
    assert res.metrics[-1]["l1"] <= 0.02


def test_aggregation_weighted_pooling_limits(rng):
    envs = [
        MultisetEnv(values=(1.0, -1.0), target_size=2),
        MultisetEnv(values=(-1.0, 1.0), target_size=2),
    ]
    space = StateSpace.enumerated(envs[0])
    snaps = [
        save_snapshot(balanced_tabular_policy(StateSpace.enumerated(e)), e) for e in envs
    ]
    client1 = exact_pT(load_local_policies(envs[0], [snaps[0]], space)[0], space)
    cfg = AggregateConfig(epochs=2500, batch=128, seed=5, eval_every=500)
    res = aggregate_ab(envs[0], snaps, cfg, eval_target=client1, weights=(1.0, 1e-6))
    assert res.metrics[-1]["l1"] <= 0.05


def test_aggregation_requires_snapshots_and_matching_weights(grid3, grid3_space, rng):
    cfg = AggregateConfig(epochs=10, batch=16, seed=1)
    with pytest.raises(SnapshotError):
        aggregate_ab(grid3, [], cfg)
    snap = save_snapshot(random_tabular(grid3_space, rng), grid3)
    with pytest.raises(ValueError):
        aggregate_ab(grid3, [snap], cfg, weights=(1.0, 2.0))


def test_aggregation_eval_every_zero_never_probes(grid3, grid3_space, rng, monkeypatch):
    import gfnpool.evaluation as evaluation_module

    calls = []
    real = evaluation_module.exact_pT
    monkeypatch.setattr(evaluation_module, "exact_pT", lambda *a, **k: calls.append(1) or real(*a, **k))
    snap = save_snapshot(random_tabular(grid3_space, rng), grid3)
    target = reward_table([grid3], grid3_space)
    cfg = AggregateConfig(epochs=5, batch=16, seed=1, eval_every=0)
    res = aggregate_ab(grid3, [snap], cfg, eval_target=target, space=grid3_space)
    assert calls == []
    assert all(np.isnan(r["l1"]) for r in res.metrics)


@pytest.mark.parametrize("backend", ["tabular", "mlp"])
def test_aggregation_replays_only_the_global_policy(grid3, grid3_space, rng, monkeypatch, backend):
    # AB reads the locals off the pooled table and the global policy off the
    # sampler's step record, so no epoch replays any policy, whatever the
    # number of locals
    replayed = count_replays(monkeypatch)
    for n in (2, 6):
        if backend == "tabular":
            pols = [random_tabular(grid3_space, rng) for _ in range(n)]
        else:
            pols = [MlpPolicy.create(grid3, (8, 8), rng) for _ in range(n)]
        snaps = [save_snapshot(p, grid3) for p in pols]
        cfg = AggregateConfig(epochs=5, batch=16, seed=1, backend=backend, hidden=(8, 8), eval_every=0)
        aggregate_ab(grid3, snaps, cfg, space=grid3_space)
    assert replayed == []


def test_mlp_aggregation_on_a_lazily_grown_space(rng):
    env = SequenceEnv(pos_scores=(0.4, -0.2, 0.3, 0.1, -0.5, 0.2), token_scores=(0.5, -0.3, 0.2, 0.1))
    guard = 3000
    assert env.n_states_estimate() > guard
    pols = [MlpPolicy.create(env, (8, 8), rng) for _ in range(2)]
    cfg = AggregateConfig(epochs=4, batch=16, seed=3, backend="mlp", hidden=(8, 8), eval_every=0, state_guard=guard)
    res = aggregate_ab(env, [save_snapshot(p, env) for p in pols], cfg)
    assert not res.space.complete
    assert np.isfinite(res.metrics[-1]["loss"])
    pooled = PooledLocals(res.space, pols)
    sizes = []
    for _ in range(3):  # later batches register states the pool has not seen
        tb = sample_batch(res.policy, res.space, 32, 1.0, rng)
        ref = sum(replay_log_pf(pol, res.space, tb) for pol in pols)
        assert np.max(np.abs(pooled.log_pf(tb) - ref)) <= 1e-12
        sizes.append(res.space.n_states)
    assert sizes[0] < sizes[-1] <= guard


# -- FedAvg -------------------------------------------------------------------


def test_fedavg_identity_and_sign_cancellation(grid3, grid3_space, rng):
    pol = random_tabular(grid3_space, rng)
    snap = save_snapshot(pol, grid3)
    avg = fedavg_average([snap, snap])
    pol_avg, meta = load_snapshot(avg, grid3, grid3_space)
    assert np.array_equal(pol_avg.table, pol.table)
    assert meta["baseline"] == "fedavg"
    neg = TabularPolicy(grid3_space, -pol.table)
    zero, _ = load_snapshot(
        fedavg_average([snap, save_snapshot(neg, grid3)]), grid3, grid3_space
    )
    assert np.all(zero.table == 0.0)


@pytest.mark.parametrize("backend", ["tabular", "mlp"])
def test_fedavg_writes_the_snapshot_format(grid3, grid3_space, rng, backend):
    # averaging one policy with itself gives the bytes save_snapshot writes
    if backend == "tabular":
        pol = random_tabular(grid3_space, rng)
    else:
        pol = MlpPolicy.create(grid3, (8, 8), rng)
    snap = save_snapshot(pol, grid3)
    meta = {"baseline": "fedavg", "n_locals": 2}
    assert fedavg_average([snap, snap]) == save_snapshot(pol, grid3, meta=meta)


def test_fedavg_architecture_mismatch(grid3, grid3_space, rng):
    small = GridEnv(side=4, beacons=((0, 0),))
    sspace = StateSpace.enumerated(small)
    with pytest.raises(SnapshotError):
        fedavg_average(
            [
                save_snapshot(random_tabular(grid3_space, rng), grid3),
                save_snapshot(random_tabular(sspace, rng), small),
            ]
        )


@pytest.mark.parametrize(
    "blob",
    [b"[1]", b'{"version":1}', b'{"version":2}', b"\xff", b"not json", b'{"version":3}', b'{"version":3}\n\x00'],
)
def test_fedavg_rejects_malformed_snapshots(grid3, grid3_space, rng, blob):
    good = save_snapshot(random_tabular(grid3_space, rng), grid3)
    for blobs in ([blob], [good, blob], [blob, good]):
        with pytest.raises(SnapshotError):
            fedavg_average(blobs)


# -- naive policy product --------------------------------------------------------


# sha256 of the exact terminal distributions the three baselines give for
# three fixed random tabular locals; pinned while the tables were dense, so
# that holding them on legal edges is seen to change no output
BASELINE_SHA256 = {
    "grid3": {
        "naive": "dfd04a316008b3c19cf2327725dcc9e5127c7aa8dc715894d65b820a8ab4b978",
        "fedavg": "0bb3aa4e85c45071e5166e77e00ac83ebe0cd32b78b45c83a5802f57129aa2bc",
        "pcvi": "7135045498ca8092be542431b4a272717466a263c7bfae0054a5a0db7646bbef",
    },
    "mset33": {
        "naive": "5578a0069c14b1213ea8432d2295005355ee413fdf7166bc84a699654df1aee9",
        "fedavg": "ca5453cc8562282c537051b16f41b00cf4ea3d4743d04d61e3c7707f1f23dfab",
        "pcvi": "31769e190a00aa4852bd8ccbc0e0b8be5696f5312cecee48b11ee432d7e81aec",
    },
}


@pytest.mark.parametrize("name", sorted(BASELINE_SHA256))
def test_baselines_keep_their_outputs(name, request):
    env, space = request.getfixturevalue(name), request.getfixturevalue(f"{name}_space")
    gen = np.random.default_rng(17)
    pols = [TabularPolicy(space, gen.normal(0, 1, (space.n_states, space.arity))) for _ in range(3)]
    fedavg = load_snapshot(fedavg_average([save_snapshot(p, env) for p in pols]), env, space)[0]
    fits = [pcvi_fit(p, space, 2000, np.random.default_rng(3 + k)) for k, p in enumerate(pols)]
    out = {
        "naive": exact_pT(naive_policy_product(pols, space), space).p,
        "fedavg": exact_pT(fedavg, space).p,
        "pcvi": pcvi_distribution(pcvi_pool(fits), space).p,
    }
    assert {k: hashlib.sha256(v.tobytes()).hexdigest() for k, v in out.items()} == BASELINE_SHA256[name]


def test_naive_product_is_per_state_renormalized_product(grid3, grid3_space, rng):
    pols = [random_tabular(grid3_space, rng) for _ in range(2)]
    prod = naive_policy_product(pols, grid3_space)
    for key in [(0, 0), (1, 1), (2, 0)]:
        p = action_distribution(prod, grid3_space, key)
        q = action_distribution(pols[0], grid3_space, key) * action_distribution(
            pols[1], grid3_space, key
        )
        q = q / q.sum()
        assert np.allclose(p, q, atol=1e-12)


# -- PCVI ----------------------------------------------------------------------


def test_pcvi_point_mass_snapshot_smoothed_onehots(rng):
    env = GridEnv(side=4, beacons=((2, 1),))
    space = StateSpace.enumerated(env)
    table = np.zeros((space.n_states, space.arity))
    table[:, 2] = 500.0  # stop immediately: point mass at (0, 0)
    params = pcvi_fit(TabularPolicy(space, table), space, 2000, rng)
    assert params.blocks["x"][0] > 0.99
    assert np.all(params.blocks["x"][1:] > 0)  # Laplace smoothing
    assert params.blocks["x"].sum() == pytest.approx(1.0)


def test_pcvi_uniform_sampler_near_uniform_blocks(rng):
    env = SequenceEnv(pos_scores=(0.0, 0.0), token_scores=(0.0, 0.0))
    space = StateSpace.enumerated(env)
    params = pcvi_fit(TabularPolicy(space), space, 30_000, rng)
    # uniform over three root actions: length 0 w.p. 1/3, etc.
    assert params.blocks["length"][0] == pytest.approx(1 / 3, abs=0.02)
    assert np.allclose(params.blocks["tokens_2"], 0.5, atol=0.03)


def test_pcvi_fit_is_local_ml_optimum(rng, monkeypatch):
    env = MultisetEnv(values=(0.8, 0.2, -0.1), target_size=3)
    space = StateSpace.enumerated(env)
    pol = random_tabular(space, rng)
    n = 8000  # single sampling chunk, reproducible below
    monkeypatch.setattr(agg_module, "PCVI_ALPHA", 1e-9)  # near-raw ML
    params = pcvi_fit(pol, space, n, np.random.default_rng(55))
    tb = sample_batch(pol, space, n, 0.0, np.random.default_rng(55))
    samples = [space.keys[i] for i in tb.terminal_idx()]

    def loglik(par):
        table = pcvi_distribution(par, space)
        return sum(np.log(table.probs[s]) for s in samples)

    base = loglik(params)
    for _ in range(100):
        noise = params.blocks["items"] * np.exp(rng.normal(0, 0.05, 3))
        perturbed = PcviParams("multiset", {"items": noise / noise.sum()})
        assert loglik(perturbed) <= base + 1e-9


def test_pcvi_pool_identity_and_uniform_neutrality(rng):
    a = PcviParams("multiset", {"items": np.array([0.5, 0.3, 0.2])})
    u = PcviParams("multiset", {"items": np.full(3, 1 / 3)})
    assert np.allclose(pcvi_pool([a]).blocks["items"], a.blocks["items"])
    assert np.allclose(pcvi_pool([a, u]).blocks["items"], a.blocks["items"])


def test_pcvi_distribution_normalizes(rng):
    env = MultisetEnv(values=(0.8, 0.2, -0.1), target_size=3)
    space = StateSpace.enumerated(env)
    params = PcviParams("multiset", {"items": np.array([0.5, 0.25, 0.25])})
    table = pcvi_distribution(params, space)
    assert table.total() == pytest.approx(1.0, abs=1e-12)
    env2 = SequenceEnv(pos_scores=(0.0, 0.0), token_scores=(0.0, 0.0))
    space2 = StateSpace.enumerated(env2)
    params2 = PcviParams(
        "sequence",
        {
            "length": np.array([0.2, 0.3, 0.5]),
            "tokens_1": np.array([[0.6, 0.4]]),
            "tokens_2": np.array([[0.5, 0.5], [0.1, 0.9]]),
        },
    )
    assert pcvi_distribution(params2, space2).total() == pytest.approx(1.0, abs=1e-12)


def test_pcvi_unsupported_for_phylo(phylo4, phylo4_space, rng):
    pol = random_tabular(phylo4_space, rng)
    with pytest.raises(UnsupportedLossError):
        pcvi_fit(pol, phylo4_space, 100, rng)


def test_pcvi_text_roundtrip(tmp_path, rng):
    params = PcviParams(
        "sequence",
        {
            "length": rng.dirichlet(np.ones(3)),
            "tokens_1": rng.dirichlet(np.ones(2), size=1),
            "tokens_2": rng.dirichlet(np.ones(2), size=2),
        },
    )
    path = tmp_path / "pcvi.params"
    pcvi_write(params, path)
    back = pcvi_read(path)
    assert back.kind == "sequence"
    for name in params.blocks:
        assert np.array_equal(back.blocks[name], params.blocks[name])


def test_pcvi_pool_shape_mismatch():
    a = PcviParams("multiset", {"items": np.array([0.5, 0.5])})
    b = PcviParams("multiset", {"items": np.array([0.4, 0.3, 0.3])})
    with pytest.raises(ValueError):
        pcvi_pool([a, b])
