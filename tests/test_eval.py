import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gfnpool

from gfnpool.envs import GridEnv, MultisetEnv, SequenceEnv, StateSpace
from gfnpool.errors import EnumerationGuardError, FingerprintMismatchError
from gfnpool.evaluation import (
    DEFAULT_TRAJ_GUARD,
    DistributionTable,
    cb_kl_gradient_identity_check,
    count_trajectories,
    effective_target,
    enumerate_trajectory_batches,
    exact_pT,
    jeffrey,
    kl,
    l1,
    noisy_reward_wrap,
    product_log_rewards,
    reward_table,
    robustness_bound_check,
    sampled_pT,
    topk_avg_log_reward,
)
from gfnpool.losses import PooledLocals
from gfnpool.policy import (
    TabularPolicy,
    action_distribution,
    balanced_tabular_policy,
    replay_log_pb,
    replay_log_pf,
)
from tests.conftest import random_tabular


def brute_force_pT(policy, space, env):
    """Explicit sum over all trajectories of the product of step probabilities."""
    totals: dict = {}

    def rec(s, prob):
        dist = action_distribution(policy, space, s)
        for a, child, stop in env.children(s):
            p = prob * dist[a]
            if stop:
                totals[s] = totals.get(s, 0.0) + p
            else:
                rec(child, p)

    rec(env.initial_key(), 1.0)
    return totals


# -- metrics -------------------------------------------------------------------


def _table(space, terminal_probs):
    """A table over `space` with the given probabilities on its terminals."""
    p = np.zeros(space.n_states)
    p[space.terminal_indices()] = terminal_probs
    return DistributionTable(p, space, "test")


def _one_item_space(n_items):
    """A multiset space with a non-terminal root and n one-item terminals."""
    return StateSpace.enumerated(MultisetEnv(values=(0.0,) * n_items, target_size=1))


def test_metrics_on_equal_and_disjoint():
    space = _one_item_space(3)
    p = _table(space, [0.5, 0.5, 0.0])
    assert l1(p, p) == 0.0 and kl(p, p) == 0.0 and jeffrey(p, p) == 0.0
    q = _table(space, [0.0, 0.0, 1.0])
    assert l1(p, q) == pytest.approx(2.0)


def test_kl_support_violation_warns_inf():
    space = _one_item_space(2)
    p = _table(space, [1.0, 0.0])
    q = _table(space, [0.0, 1.0])
    with pytest.warns(UserWarning):
        assert kl(p, q) == float("inf")


def test_metrics_match_hand_computation(rng):
    space = _one_item_space(5)
    a = rng.dirichlet(np.ones(5))
    b = rng.dirichlet(np.ones(5))
    p, q = _table(space, a), _table(space, b)
    assert l1(p, q) == pytest.approx(float(np.abs(a - b).sum()), abs=1e-12)
    assert kl(p, q) == pytest.approx(float((a * np.log(a / b)).sum()), abs=1e-12)
    assert jeffrey(p, q) == pytest.approx(
        float((a * np.log(a / b)).sum() + (b * np.log(b / a)).sum()), abs=1e-12
    )


def test_metrics_reject_tables_from_different_dags():
    mset = _one_item_space(3)
    seq = StateSpace.enumerated(SequenceEnv(pos_scores=(0.0,), token_scores=(0.0, 0.0, 0.0)))
    assert seq.n_states == mset.n_states  # only the fingerprint tells them apart
    p = _table(mset, [0.5, 0.5, 0.0])
    for other in (_table(seq, np.full(4, 0.25)), _table(_one_item_space(4), np.full(4, 0.25))):
        for metric in (l1, kl):
            with pytest.raises(FingerprintMismatchError):
                metric(p, other)
    # views of one enumeration index the same DAG
    view = mset.for_env(MultisetEnv(values=(1.0, 2.0, 3.0), target_size=1))
    assert l1(p, _table(view, [0.5, 0.5, 0.0])) == 0.0


# -- exact and sampled terminal distributions ------------------------------------


def test_exact_pt_point_mass(grid3, grid3_space):
    table = np.zeros((grid3_space.n_states, 3))
    table[:, 0] = 200.0
    table[:, 2] = 100.0
    pt = exact_pT(TabularPolicy(grid3_space, table), grid3_space)
    assert pt.probs[(2, 0)] == pytest.approx(1.0, abs=1e-12)


def test_exact_pt_uniform_sequence_thirds():
    env = SequenceEnv(pos_scores=(0.0,), token_scores=(0.0, 0.0))
    space = StateSpace.enumerated(env)
    pt = exact_pT(TabularPolicy(space), space)
    assert pt.probs[()] == pytest.approx(1 / 3, abs=1e-12)
    assert pt.probs[(0,)] == pytest.approx(1 / 3, abs=1e-12)
    assert pt.probs[(1,)] == pytest.approx(1 / 3, abs=1e-12)


@pytest.mark.parametrize("fixture", ["grid3", "mset33"])
def test_exact_pt_equals_bruteforce_trajectory_sum(fixture, rng, request):
    env = request.getfixturevalue(fixture)
    space = StateSpace.enumerated(env)
    pol = random_tabular(space, rng)
    dp = exact_pT(pol, space)
    brute = brute_force_pT(pol, space, env)
    assert dp.total() == pytest.approx(1.0, abs=1e-9)
    for k, v in dp.probs.items():
        assert abs(v - brute.get(k, 0.0)) <= 1e-10


@pytest.mark.parametrize("fixture", ["mset33", "phylo4"])
def test_terminal_tables_are_zero_off_the_terminals(fixture, rng, request):
    space = StateSpace.enumerated(request.getfixturevalue(fixture))
    off = ~space.terminal_mask(np.arange(space.n_states))
    assert off.any()
    pol = random_tabular(space, rng)
    for table in (exact_pT(pol, space), sampled_pT(pol, space, 2_000, rng)):
        assert table.p.shape == (space.n_states,)
        assert np.all(table.p[off] == 0.0)
        assert table.total() == pytest.approx(1.0, abs=1e-12)


def test_sampled_pt_monte_carlo_convergence(grid3, grid3_space):
    pol = random_tabular(grid3_space, np.random.default_rng(8))
    exact = exact_pT(pol, grid3_space)
    l1_small = l1(sampled_pT(pol, grid3_space, 1_000, np.random.default_rng(1)), exact)
    l1_big = l1(sampled_pT(pol, grid3_space, 100_000, np.random.default_rng(2)), exact)
    assert l1_big < l1_small / 3  # ~ n^(-1/2) scaling


# -- reward tables and top-K ------------------------------------------------------


def test_reward_table_single_and_constant_cancel(mset33, mset33_space):
    single = reward_table([mset33], mset33_space)
    term = mset33_space.terminal_indices()
    logs = mset33_space.log_rewards(term)
    probs = np.exp(logs - logs.max())
    probs /= probs.sum()
    for i, p in zip(term, probs):
        assert single.probs[mset33_space.keys[i]] == pytest.approx(float(p), rel=1e-10)
    const = MultisetEnv(values=(0.0,) * 3, target_size=3)
    both = reward_table([mset33, const], mset33_space)
    assert l1(single, both) <= 1e-10


def test_reward_table_weighted(mset33, mset33_space):
    # weight 2 equals squaring the reward
    doubled = MultisetEnv(values=tuple(2 * v for v in mset33.values), target_size=3)
    via_weight = reward_table([mset33], mset33_space, weights=(2.0,))
    via_env = reward_table([doubled], mset33_space)
    assert l1(via_weight, via_env) <= 1e-10


def test_grid_product_argmax_minimizes_summed_distance():
    c1 = GridEnv(side=9, beacons=((2, 2),))
    c2 = GridEnv(side=9, beacons=((6, 6),))
    space = StateSpace.enumerated(c1)
    table = reward_table([c1, c2], space)
    argmax = max(table.probs, key=table.probs.get)

    def dmin(env, cell):
        return min(np.hypot(cell[0] - bx, cell[1] - by) for bx, by in env.beacons)

    sums = {cell: dmin(c1, cell) + dmin(c2, cell) for cell in table.probs}
    best = min(sums.values())
    minimizers = {cell for cell, v in sums.items() if v <= best + 1e-9}
    assert argmax in minimizers


def test_topk_point_mass_and_samples(grid3, grid3_space):
    log_r = product_log_rewards([grid3], grid3_space)
    i = grid3_space.index[(1, 1)]
    samples = np.full(100, i)
    got = topk_avg_log_reward(samples, grid3_space, log_r, 10)
    assert got == pytest.approx(grid3.log_reward((1, 1)), abs=1e-12)
    with pytest.raises(ValueError):
        topk_avg_log_reward(samples, grid3_space, log_r, 101)


def test_topk_table_concentrates_with_budget(grid3, grid3_space):
    log_r = product_log_rewards([grid3], grid3_space)
    table = reward_table([grid3], grid3_space)
    best = max(log_r[grid3_space.terminal_indices()])
    # infinite budget: the top-K samples are all copies of the argmax
    huge = topk_avg_log_reward(table, grid3_space, log_r, 10, sample_budget=10**12)
    assert huge == pytest.approx(float(best), rel=1e-9)
    # budget == K: expected counts fill the slots in reward order, covering
    # the whole distribution: the statistic equals the table mean
    even = topk_avg_log_reward(table, grid3_space, log_r, 10, sample_budget=10)
    mean = sum(table.probs[k] * grid3.log_reward(k) for k in table.probs)
    assert even == pytest.approx(float(mean), rel=1e-9)


# -- trajectory enumeration -------------------------------------------------------


def test_count_trajectories_closed_forms():
    env = SequenceEnv(pos_scores=(0.0,) * 3, token_scores=(0.0, 0.0))
    space = StateSpace.enumerated(env)
    # sequences have unique construction paths: one trajectory per terminal
    assert count_trajectories(space) == space.n_states
    g = GridEnv(side=3, beacons=((0, 0),))
    gs = StateSpace.enumerated(g)
    from math import comb

    expected = sum(comb(x + y, x) for x in range(3) for y in range(3))
    assert count_trajectories(gs) == expected


def test_enumerate_trajectories_complete_and_guarded(grid3, grid3_space):
    total = count_trajectories(grid3_space)
    seen = 0
    for tb in enumerate_trajectory_batches(grid3_space, chunk=7):
        seen += tb.batch_size
    assert seen == total
    with pytest.raises(EnumerationGuardError):
        list(enumerate_trajectory_batches(grid3_space, guard=total - 1))


def test_effective_target_balanced_equals_product(rng):
    envs = [
        MultisetEnv(values=tuple(rng.uniform(0, 1, 3)), target_size=2),
        MultisetEnv(values=tuple(rng.uniform(0, 1, 3)), target_size=2),
    ]
    space = StateSpace.enumerated(envs[0])
    pols = [
        TabularPolicy(space, balanced_tabular_policy(StateSpace.enumerated(e)).table)
        for e in envs
    ]
    for weights in (None, (0.5, 2.0)):
        eff = effective_target(pols, space, weights)
        assert l1(eff, reward_table(envs, space, weights)) <= 1e-10


def _brute_effective_target(pols, envs, space, weights):
    """Weighted effective target and per-client ratio extrema (lo, hi), by
    summing over every enumerated trajectory."""
    log_mass = np.full(space.n_states, -np.inf)
    lo, hi = np.full(len(pols), np.inf), np.full(len(pols), -np.inf)
    log_pi = [product_log_rewards([e], space) for e in envs]
    for tb in enumerate_trajectory_batches(space, chunk=50):
        pb = replay_log_pb(space, tb)
        lfs = [replay_log_pf(p, space, tb) for p in pols]
        np.logaddexp.at(log_mass, tb.terminal_idx(), pb + sum(w * (lf - pb) for w, lf in zip(weights, lfs)))
        for k, lf in enumerate(lfs):
            pi = log_pi[k][tb.terminal_idx()] - np.logaddexp.reduce(log_pi[k][space.terminal_indices()])
            lo[k] = min(lo[k], np.min(lf - pb - pi))
            hi[k] = max(hi[k], np.max(lf - pb - pi))
    return np.exp(log_mass - np.logaddexp.reduce(log_mass)), lo, hi


@pytest.mark.parametrize(
    "env",
    [
        GridEnv(side=3, beacons=((1, 1),)),
        MultisetEnv(values=(0.2, -0.4, 0.9, 0.1), target_size=4),
        SequenceEnv(pos_scores=(1.0, 0.5, -0.5), token_scores=(0.3, -0.2, 0.1)),
    ],
    ids=["grid3x3", "multiset4x4", "sequence3x3"],
)
def test_dag_passes_match_trajectory_enumeration(env, rng):
    space = StateSpace.enumerated(env)
    pols = [random_tabular(space, rng) for _ in range(3)]
    envs = [noisy_reward_wrap(env, 0.5, rng, space=space) for _ in pols]  # same DAG, new rewards
    omega = (0.5, 1.0, 2.0)
    brute, lo, hi = _brute_effective_target(pols, envs, space, omega)
    assert np.max(np.abs(effective_target(pols, space, omega).p - brute)) <= 1e-12
    chk = robustness_bound_check(pols, envs, space)
    assert np.max(np.abs(chk.alphas - (1.0 - np.exp(lo)))) <= 1e-12
    assert np.max(np.abs(chk.betas - (np.exp(hi) - 1.0))) <= 1e-12


def test_effective_target_runs_where_enumeration_cannot(rng):
    env = MultisetEnv(values=tuple(rng.uniform(-1, 1, 10)), target_size=8)
    space = StateSpace.enumerated(env)
    assert count_trajectories(space) > DEFAULT_TRAJ_GUARD
    pols = [random_tabular(space, rng) for _ in range(2)]
    eff = effective_target(pols, space, (0.5, 2.0))
    assert eff.total() == pytest.approx(1.0, abs=1e-12)
    assert np.all(eff.p[space.terminal_indices()] > 0)


def test_effective_target_single_imperfect_equals_exact_pt(grid3, grid3_space, rng):
    pol = random_tabular(grid3_space, rng)
    eff = effective_target([pol], grid3_space)
    own = exact_pT(pol, grid3_space)
    for k in own.probs:
        assert abs(eff.probs.get(k, 0.0) - own.probs[k]) <= 1e-10


def test_effective_target_corrupted_client_diverges(rng):
    # one good client, one trained on the inverted reward: the pooled model
    # samples something far from the true product target
    good = MultisetEnv(values=(1.5, 0.2, -0.8), target_size=2)
    bad_truth = MultisetEnv(values=(1.5, 0.2, -0.8), target_size=2)
    corrupted = MultisetEnv(values=(-1.5, -0.2, 0.8), target_size=2)
    space = StateSpace.enumerated(good)
    pol_good = TabularPolicy(space, balanced_tabular_policy(StateSpace.enumerated(good)).table)
    pol_bad = TabularPolicy(space, balanced_tabular_policy(StateSpace.enumerated(corrupted)).table)
    target = reward_table([good, bad_truth], space)
    eff = effective_target([pol_good, pol_bad], space)
    assert l1(eff, target) > 0.2


# -- theorem checkers --------------------------------------------------------------


def test_bound_check_balanced_clients_all_zero(rng):
    envs = [MultisetEnv(values=tuple(rng.uniform(0, 1, 3)), target_size=2) for _ in range(2)]
    space = StateSpace.enumerated(envs[0])
    pols = [
        TabularPolicy(space, balanced_tabular_policy(StateSpace.enumerated(e)).table)
        for e in envs
    ]
    chk = robustness_bound_check(pols, envs, space)
    assert chk.holds and not chk.degenerate
    assert np.max(np.abs(chk.alphas)) <= 1e-9
    assert np.max(np.abs(chk.betas)) <= 1e-9
    assert chk.bound <= 1e-8 and chk.jeffrey <= 1e-12


def test_bound_check_hundred_randomized_instances():
    violations = 0
    for trial in range(100):
        gen = np.random.default_rng(3000 + trial)
        envs = [
            MultisetEnv(values=tuple(gen.uniform(0, 1, 3)), target_size=2)
            for _ in range(2)
        ]
        space = StateSpace.enumerated(envs[0])
        pols = []
        for e in envs:
            base = balanced_tabular_policy(StateSpace.enumerated(e))
            pols.append(TabularPolicy(space, base.table + gen.normal(0, 0.5, base.table.shape)))
        if not robustness_bound_check(pols, envs, space).holds:
            violations += 1
    assert violations == 0


def test_bound_check_constructed_extrema():
    # two terminals; policy mass (1/3, 2/3) against target (2/3, 1/3):
    # ratio extrema exactly (1/2, 2), so the bound is log 4
    env = MultisetEnv(values=(float(np.log(2.0)), 0.0), target_size=1)
    space = StateSpace.enumerated(env)
    logits = np.zeros((space.n_states, space.arity))
    logits[space.root, 0] = np.log(1 / 3)
    logits[space.root, 1] = np.log(2 / 3)
    chk = robustness_bound_check([TabularPolicy(space, logits)], [env], space)
    assert chk.alphas[0] == pytest.approx(0.5, rel=1e-9)
    assert chk.betas[0] == pytest.approx(1.0, rel=1e-9)
    assert chk.bound == pytest.approx(float(np.log(4.0)), rel=1e-9)
    assert chk.jeffrey <= chk.bound and chk.holds


def test_bound_check_degenerate_unreachable_support():
    env = MultisetEnv(values=(0.5, 0.5), target_size=1)
    space = StateSpace.enumerated(env)
    logits = np.zeros((space.n_states, space.arity))
    logits[space.root, 0] = 2000.0  # second terminal underflows to probability 0
    with pytest.warns(UserWarning, match="KL support violation"):
        chk = robustness_bound_check([TabularPolicy(space, logits)], [env], space)
    assert chk.degenerate and chk.bound == float("inf") and chk.holds


def test_cb_kl_identity_random_and_balanced(grid2, grid2_space, rng):
    pol = random_tabular(grid2_space, rng)
    assert cb_kl_gradient_identity_check(pol, grid2_space) <= 1e-8
    bal = balanced_tabular_policy(grid2_space)
    assert cb_kl_gradient_identity_check(bal, grid2_space) <= 1e-10
    env = MultisetEnv(values=(0.4, -0.2), target_size=2)
    space = StateSpace.enumerated(env)
    pol2 = random_tabular(space, rng)
    assert cb_kl_gradient_identity_check(pol2, space) <= 1e-8


def test_ab_kl_identity_with_weighted_pool(grid2_space, rng):
    # AB is CB with log R replaced by the pooled ratios
    for space in (grid2_space, StateSpace.enumerated(MultisetEnv(values=(0.4, -0.2), target_size=2))):
        pooled = PooledLocals(space, [random_tabular(space, rng) for _ in range(2)], (0.5, 2.0))
        assert cb_kl_gradient_identity_check(random_tabular(space, rng), space, pooled) <= 1e-10


# -- noisy rewards ------------------------------------------------------------------


def test_noisy_wrap_zero_variance_identity(mset33, mset33_space, rng):
    noisy = noisy_reward_wrap(mset33, 0.0, rng)
    for i in mset33_space.terminal_indices()[:20]:
        k = mset33_space.keys[i]
        assert noisy.log_reward(k) == mset33.log_reward(k)
    assert noisy.fingerprint() == mset33.fingerprint()


def test_noisy_wrap_gaussian_sanity():
    env = MultisetEnv(values=tuple(np.linspace(0, 1, 9)), target_size=8)
    space = StateSpace.enumerated(env)
    n_term = space.terminal_indices().size
    assert n_term >= 10_000
    sigma2 = 0.01
    noisy = noisy_reward_wrap(env, sigma2, np.random.default_rng(17))
    deltas = np.array(
        [noisy.log_reward(space.keys[i]) - env.log_reward(space.keys[i]) for i in space.terminal_indices()]
    )
    sd = np.sqrt(sigma2)
    assert np.max(np.abs(deltas)) <= 5 * sd
    assert abs(deltas.mean()) <= 5 * sd / np.sqrt(n_term)
    assert deltas.var() == pytest.approx(sigma2, rel=0.1)
    # offsets are frozen: second read is identical
    k = space.keys[space.terminal_indices()[0]]
    assert noisy.log_reward(k) == noisy.log_reward(k)


def test_noisy_wrap_offsets_reach_the_space(mset33, mset33_space):
    noisy = noisy_reward_wrap(mset33, 0.01, np.random.default_rng(3))
    term = mset33_space.terminal_indices()
    offsets = np.array([noisy.offsets[mset33_space.keys[i]] for i in term])
    assert np.all(offsets != 0.0)
    # training reads rewards through the space, so the offsets must show there
    got = mset33_space.for_env(noisy).log_rewards(term)
    assert np.array_equal(got, mset33_space.log_rewards(term) + offsets)
    clone = pickle.loads(pickle.dumps(noisy))
    assert clone.fingerprint() == mset33.fingerprint()
    assert [clone.log_reward(mset33_space.keys[i]) for i in term] == list(got)


@pytest.mark.parametrize("sigma2", [-0.01, float("nan"), float("inf")])
def test_noisy_wrap_rejects_bad_variance(mset33, sigma2):
    with pytest.raises(ValueError, match="variance"):
        noisy_reward_wrap(mset33, sigma2, np.random.default_rng(0))


def test_noisy_wrap_trains_like_an_env(rng):
    env = MultisetEnv(values=(0.3, 0.7), target_size=2)
    noisy = noisy_reward_wrap(env, 0.005, rng)
    space = StateSpace.enumerated(noisy)
    pol = balanced_tabular_policy(space)
    assert l1(exact_pT(pol, space), reward_table([noisy], space)) <= 1e-10


L1_PHYLO_SCRIPT = """
import numpy as np
from gfnpool.envs import PhyloEnv, StateSpace, random_topology, simulate_sites
from gfnpool.evaluation import exact_pT, l1, reward_table
from gfnpool.policy import TabularPolicy
gen = np.random.default_rng(11)
sites = simulate_sites(random_topology(5, gen), 5, 30, mu=1.0, b=0.1, rng=gen)
env = PhyloEnv(n_leaves=5, sites=sites, branch_length=0.1, mu=1.0, gamma=1.0, n_clients=1)
space = StateSpace.enumerated(env)
pol = TabularPolicy(space, np.random.default_rng(0).normal(0, 1, (space.n_states, space.arity)))
print(repr(l1(exact_pT(pol, space), reward_table([env], space))))
"""


def test_l1_does_not_depend_on_string_hashing():
    # phylo keys are strings, whose hashes Python salts per process
    src = str(Path(gfnpool.__file__).resolve().parents[1])
    outs = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        cmd = [sys.executable, "-c", L1_PHYLO_SCRIPT]
        run = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
        outs.add(run.stdout.strip())
    assert len(outs) == 1
