"""The batch reward entry point `Environment.log_rewards` and the state
space's lazy buffers."""

import gc

import numpy as np
import pytest

from gfnpool.envs import (
    GridEnv,
    MultisetEnv,
    PhyloEnv,
    SequenceEnv,
    StateSpace,
    random_topology,
    simulate_sites,
    split_sites,
)
from gfnpool.aggregate import AggregateConfig, aggregate_ab
from gfnpool.errors import MalformedStateError, NotTerminalError, UnsupportedFeaturizationError
from gfnpool.evaluation import reward_table, terminal_log_rewards
from gfnpool.losses import LossSpec
from gfnpool.train import TrainConfig, train_local


def _multiset(items, size):
    return MultisetEnv(values=tuple(np.random.default_rng(items).normal(0, 1, items)), target_size=size)


def _sequence(length, tokens):
    gen = np.random.default_rng(length * tokens)
    return SequenceEnv(pos_scores=tuple(gen.normal(0, 1, length)), token_scores=tuple(gen.normal(0, 1, tokens)))


def _phylo_clients(n_clients=10):
    gen = np.random.default_rng(11)
    sites = simulate_sites(random_topology(5, gen), 5, 60, mu=1.0, b=0.1, rng=gen)
    return split_sites(PhyloEnv(n_leaves=5, sites=sites, gamma=2.0), n_clients)


def _terminal_keys(space):
    return [space.keys[i] for i in space.terminal_indices()]


@pytest.mark.parametrize(
    "make",
    [
        lambda: [_multiset(4, 8)],
        lambda: [_multiset(10, 8)],
        lambda: [_sequence(4, 4)],
        lambda: [_sequence(6, 6)],
        _phylo_clients,
        lambda: [GridEnv(side=5, beacons=((1, 3), (4, 0)))],
    ],
    ids=["multiset4x8", "multiset10x8", "sequence4x4", "sequence6x6", "phylo5x10", "grid5"],
)
def test_batch_equals_scalar_bit_for_bit(make):
    envs = make()
    space = StateSpace.enumerated(envs[0])
    keys = _terminal_keys(space)
    for env in envs:
        got = env.log_rewards(keys)
        assert got.dtype == np.float64 and got.shape == (len(keys),)
        assert np.array_equal(got, [env.log_reward(k) for k in keys])
        assert np.array_equal(terminal_log_rewards(env, space), got)
        view = space.for_env(env)
        assert np.array_equal(view.log_rewards(space.terminal_indices()), got)


def test_empty_batch_is_an_empty_float_array():
    for env in (_multiset(4, 8), _sequence(4, 4), _phylo_clients(1)[0], GridEnv(side=3, beacons=((1, 1),))):
        got = env.log_rewards([])
        assert got.dtype == np.float64 and got.shape == (0,)


@pytest.mark.parametrize(
    "env, bad, error",
    [
        (_multiset(4, 8), (1, 2, 3), MalformedStateError),
        (_multiset(4, 8), (2, 2, 2, -1), MalformedStateError),
        (_multiset(4, 8), (2.0, 2, 2, 2), MalformedStateError),
        (_multiset(4, 8), [2, 2, 2, 2], MalformedStateError),
        (_multiset(4, 8), (2, 2, 2, 3), MalformedStateError),
        (_multiset(4, 8), (2, 2, 2, 1), NotTerminalError),
        (_sequence(4, 4), (0, 4), MalformedStateError),
        (_sequence(4, 4), (0, 1, 2, 3, 0), MalformedStateError),
        (_sequence(4, 4), (0, -1), MalformedStateError),
        (_phylo_clients(1)[0], ("((0,1),(2,3))", "4"), NotTerminalError),
        (_phylo_clients(1)[0], ("((1,0),((2,3),4))",), MalformedStateError),
        (_phylo_clients(1)[0], ("((0,1),(2,3))",), MalformedStateError),
    ],
)
def test_batch_raises_the_scalar_error(env, bad, error):
    space = StateSpace.enumerated(env)
    good = _terminal_keys(space)[:3]
    with pytest.raises(error):
        env.log_reward(bad)
    with pytest.raises(error):
        env.log_rewards(good + [bad] + good)


def test_every_override_of_log_reward_is_counted(monkeypatch):
    env = _multiset(4, 8)
    keys = _terminal_keys(StateSpace.enumerated(env))
    calls = [0]

    class Counted(MultisetEnv):
        def log_reward(self, s):
            calls[0] += 1
            return super().log_reward(s)

    counted = Counted(values=env.values, target_size=env.target_size)
    assert np.array_equal(counted.log_rewards(keys), env.log_rewards(keys))
    assert calls[0] == len(keys)

    scalar = MultisetEnv.log_reward

    def patched(self, s):
        calls[0] += 1
        return scalar(self, s)

    calls[0] = 0
    monkeypatch.setattr(MultisetEnv, "log_reward", patched)
    assert np.array_equal(env.log_rewards(keys), [scalar(env, k) for k in keys])
    assert calls[0] == len(keys)
    monkeypatch.undo()
    calls[0] = 0
    env.log_rewards(keys)
    assert calls[0] == 0


def test_noisy_batch_keeps_its_offsets():
    env = _multiset(4, 8)
    space = StateSpace.enumerated(env)
    term = space.terminal_indices()
    table = np.full(space.n_states, np.nan)
    table[term] = space.log_rewards(term) + np.random.default_rng(0).normal(0.0, 0.1, term.size)
    want = table[term].copy()
    noisy = space.with_log_rewards(table)
    table[term] = 0.0  # the view holds a copy
    got = noisy.log_rewards(term[::-1])[::-1]
    assert np.array_equal(got, want) and np.array_equal(noisy.log_rewards(term), want)
    assert not np.array_equal(got, space.log_rewards(term))
    assert noisy.for_env(env) is noisy and space.for_env(env) is space


def test_phylo_batch_leaves_no_reference_cycle():
    env = _phylo_clients(1)[0]
    keys = _terminal_keys(StateSpace.enumerated(env))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        env.log_rewards(keys)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_feature_buffer_is_allocated_on_first_use():
    env = _sequence(3, 3)
    space = StateSpace.enumerated(env)
    assert space._feats is None
    space.log_rewards(space.terminal_indices())
    assert space._feats is None
    # a view asking first fills the one buffer its base reads too
    view = space.for_env(SequenceEnv(pos_scores=(1.0, 2.0, 3.0), token_scores=env.token_scores))
    idx = np.array([0, 5, 7])
    rows = view.features(idx)
    assert np.array_equal(rows, [env.featurize(space.keys[i]) for i in idx])
    assert space._feats is not None
    assert np.array_equal(space.features(idx), rows)
    every = np.arange(space.n_states)
    assert np.array_equal(space.features(every), [env.featurize(k) for k in space.keys])
    lazy = StateSpace(env)
    lazy.children_rows(np.array([0]))
    assert np.array_equal(lazy.features(np.arange(lazy.n_states)), [env.featurize(k) for k in lazy.keys])


# -- the key matrix of a level-walked space -------------------------------------

LEVEL_WALKED = {"multiset4x8": lambda: _multiset(4, 8), "sequence4x4": lambda: _sequence(4, 4)}


def _other(env):
    """The same DAG as `env` with other rewards."""
    if isinstance(env, MultisetEnv):
        return MultisetEnv(values=tuple(v + 0.5 for v in env.values), target_size=env.target_size)
    return SequenceEnv(pos_scores=env.pos_scores[::-1], token_scores=env.token_scores)


def _bytes_of_scalars(env, keys):
    return np.array([env.log_reward(k) for k in keys], dtype=np.float64).tobytes()


@pytest.mark.parametrize("name", sorted(LEVEL_WALKED))
def test_level_walked_rewards_read_rows_bit_for_bit(name):
    env = LEVEL_WALKED[name]()
    space = StateSpace.enumerated(env)
    other = _other(env)
    view = space.for_env(other)
    term = space.terminal_indices()
    got = {
        "space": space.log_rewards(term),
        "terminal_log_rewards": terminal_log_rewards(env, space),
        "view": view.log_rewards(term),
        "view terminal_log_rewards": terminal_log_rewards(other, space),
    }
    assert "keys" not in space._shared  # every batch above read the key matrix
    keys = _terminal_keys(space)
    for what, vals in got.items():
        want = _bytes_of_scalars(other if what.startswith("view") else env, keys)
        assert vals.dtype == np.float64 and vals.tobytes() == want, what


def test_level_walked_rows_raise_the_scalar_error_off_the_terminals():
    space = StateSpace.enumerated(_multiset(4, 8))
    inner = np.flatnonzero(~space.terminal_mask(np.arange(space.n_states)))[:3]
    with pytest.raises(NotTerminalError):
        space.log_rewards(np.concatenate([space.terminal_indices()[:2], inner]))


def _counting_env(env):
    """A subclass of `env`'s class whose `log_reward` counts its calls."""
    calls = [0]
    cls = type(env)

    def log_reward(self, s):
        calls[0] += 1
        return cls.log_reward(self, s)

    counted = type(f"Counted{cls.__name__}", (cls,), {"log_reward": log_reward})
    return counted(*(getattr(env, f) for f in env.__dataclass_fields__)), calls


@pytest.mark.parametrize("name", sorted(LEVEL_WALKED))
def test_every_override_sees_every_key_of_a_level_walked_space(name, monkeypatch):
    env = LEVEL_WALKED[name]()
    space = StateSpace.enumerated(env)
    term = space.terminal_indices()
    keys = _terminal_keys(space)
    # a subclass that overrides log_reward counts every terminal
    counted, calls = _counting_env(env)
    assert terminal_log_rewards(counted, space).tobytes() == _bytes_of_scalars(env, keys)
    assert calls[0] == len(keys)
    view = space.for_env(counted)
    assert view.log_rewards(term).tobytes() == _bytes_of_scalars(env, keys)
    assert calls[0] == 2 * len(keys)
    # a view given its table reads no key
    table = np.zeros(space.n_states)
    assert not view.with_log_rewards(table).log_rewards(term).any()
    assert calls[0] == 2 * len(keys)
    # and so does a patched class attribute, as the bench tracer sets one
    scalar, seen = type(env).log_reward, [0]

    def patched(self, s):
        seen[0] += 1
        return scalar(self, s)

    monkeypatch.setattr(type(env), "log_reward", patched)
    fresh = StateSpace.enumerated(env)
    assert fresh.log_rewards(term).tobytes() == _bytes_of_scalars(env, keys)
    assert seen[0] == 2 * len(keys)  # the batch, then the reference loop


@pytest.mark.parametrize("draw", range(3))
def test_multiset_row_rewards_are_the_per_row_dot(draw):
    gen = np.random.default_rng(draw)
    env = MultisetEnv(values=tuple(gen.normal(0, 1 + draw, 10)), target_size=8)
    space = StateSpace.enumerated(env)
    term = space.terminal_indices()
    v = env._values
    want = np.array([v.dot(row) for row in space._rows[term].astype(np.float64)])
    assert term.size == 24_310
    assert terminal_log_rewards(env, space).tobytes() == want.tobytes()
    assert env.log_rewards(_terminal_keys(space)).tobytes() == want.tobytes()


class FeaturelessMultiset(MultisetEnv):
    _featurize_rows = None

    @property
    def feature_dim(self):
        return None


@pytest.mark.parametrize(
    "env, backend",
    [(_multiset(4, 4), "tabular"), (_sequence(3, 3), "mlp")],
    ids=["multiset4x4-tabular", "sequence3x3-mlp"],
)
def test_commands_on_a_level_walked_space_build_no_tuple_keys(env, backend, monkeypatch):
    def no_keys(self):
        raise AssertionError("the tuple keys were built")

    space = StateSpace.enumerated(env)
    monkeypatch.setattr(StateSpace, "keys", property(no_keys))
    other = _other(env)
    common = dict(batch=16, backend=backend, hidden=(8,), eval_every=2)
    snaps = [
        train_local(e, TrainConfig(loss=LossSpec("CB"), epochs=4, seed=k, **common), space).snapshot
        for k, e in enumerate((env, other))
    ]
    target = reward_table([env, other], space)
    res = aggregate_ab(env, snaps, AggregateConfig(epochs=4, seed=9, **common), eval_target=target, space=space)
    assert np.isfinite(res.metrics[-1]["l1"])
    terminal_log_rewards(env, space)
    assert "keys" not in space._shared
    featureless = StateSpace.enumerated(FeaturelessMultiset(values=(0.1, 0.2), target_size=2))
    with pytest.raises(UnsupportedFeaturizationError):
        featureless.features(np.array([0]))
    assert "keys" not in featureless._shared
