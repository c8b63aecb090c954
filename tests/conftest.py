import numpy as np
import pytest

from gfnpool.envs import GridEnv, MultisetEnv, SequenceEnv, PhyloEnv, StateSpace
from gfnpool.envs import random_topology, simulate_sites


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


@pytest.fixture(scope="session")
def grid3():
    return GridEnv(side=3, beacons=((1, 1),))


@pytest.fixture(scope="session")
def grid3_space(grid3):
    return StateSpace.enumerated(grid3)


@pytest.fixture(scope="session")
def grid2():
    return GridEnv(side=2, beacons=((1, 1),))


@pytest.fixture(scope="session")
def grid2_space(grid2):
    return StateSpace.enumerated(grid2)


@pytest.fixture(scope="session")
def mset33():
    gen = np.random.default_rng(5)
    return MultisetEnv(values=tuple(gen.uniform(0, 1, 3)), target_size=3)


@pytest.fixture(scope="session")
def mset33_space(mset33):
    return StateSpace.enumerated(mset33)


@pytest.fixture(scope="session")
def seq22():
    return SequenceEnv(pos_scores=(1.0, 2.0), token_scores=(0.5, -0.25))


@pytest.fixture(scope="session")
def seq22_space(seq22):
    return StateSpace.enumerated(seq22)


@pytest.fixture(scope="session")
def phylo4():
    gen = np.random.default_rng(11)
    truth = random_topology(4, gen)
    sites = simulate_sites(truth, 4, 30, mu=1.0, b=0.1, rng=gen)
    return PhyloEnv(n_leaves=4, sites=sites, branch_length=0.1, mu=1.0, gamma=1.0, n_clients=1)


@pytest.fixture(scope="session")
def phylo4_space(phylo4):
    return StateSpace.enumerated(phylo4)


def random_tabular(space, gen, scale=1.0):
    from gfnpool.policy import TabularPolicy

    return TabularPolicy(space, gen.normal(0.0, scale, (space.n_states, space.arity)))


def paths(space, tb):
    """Each row of a batch as (state keys, actions), stop action last."""
    return [
        ([space.keys[i] for i in tb.states[k, :n]], list(tb.actions[k, :n]))
        for k, n in enumerate(tb.lengths)
    ]


def one_row_batch(space, keys, actions):
    """The one-trajectory batch through `keys` taking `actions` (stop last),
    with its terminal reward."""
    from gfnpool.policy import TrajectoryBatch

    h = space.env.max_traj_len
    states = np.full((1, h), -1, dtype=np.int64)
    states[0, : len(keys)] = [space.lookup(k) for k in keys]
    acts = np.full((1, h), -1, dtype=np.int64)
    acts[0, : len(actions)] = actions
    tb = TrajectoryBatch(states, acts, np.array([len(actions)]), np.zeros((1, h)), np.zeros((1, h)), None)
    tb.log_reward = space.log_rewards(tb.terminal_idx())
    return tb
