import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gfnpool

from gfnpool.cli import _check_sweep_values
from gfnpool.envs import GridEnv, MultisetEnv, SequenceEnv, StateSpace
from gfnpool.errors import ConfigError, EnumerationGuardError, FingerprintMismatchError, NotTerminalError
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
    product_log_rewards,
    reward_table,
    robustness_bound_check,
    sample_terminals,
    topk_avg_log_reward,
)
from gfnpool.losses import LossSpec, PooledLocals
from gfnpool.policy import (
    FORWARD_CHUNK,
    MlpPolicy,
    TabularPolicy,
    balanced_tabular_policy,
    policy_rows,
    replay_log_pb,
    replay_log_pf,
)
from gfnpool.train import TrainConfig, train_local
from tests.conftest import (
    action_distribution,
    noise_cell_views,
    random_tabular,
    reference_effective_target,
    reference_exact_pT,
    reference_pooled_table,
)


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
    table = exact_pT(pol, space)
    assert table.p.shape == (space.n_states,)
    assert np.all(table.p[off] == 0.0)
    assert table.total() == pytest.approx(1.0, abs=1e-12)
    drawn = np.bincount(sample_terminals(pol, space, 2_000, rng), minlength=space.n_states)
    assert np.all(drawn[off] == 0) and drawn.sum() == 2_000


def test_sampled_pt_monte_carlo_convergence(grid3, grid3_space):
    pol = random_tabular(grid3_space, np.random.default_rng(8))
    exact = exact_pT(pol, grid3_space).p

    def sampled_l1(n, seed):
        drawn = sample_terminals(pol, grid3_space, n, np.random.default_rng(seed))
        return np.abs(np.bincount(drawn, minlength=grid3_space.n_states) / n - exact).sum()

    assert sampled_l1(100_000, 2) < sampled_l1(1_000, 1) / 3  # ~ n^(-1/2) scaling


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


def test_topk_point_mass_table(grid3, grid3_space):
    log_r = product_log_rewards([grid3], grid3_space)
    p = np.zeros(grid3_space.n_states)
    p[grid3_space.index[(1, 1)]] = 1.0
    point = DistributionTable(p, grid3_space, provenance="point")
    for budget in (10, 100, 10**6):
        got = topk_avg_log_reward(point, grid3_space, log_r, 10, sample_budget=budget)
        assert got == pytest.approx(grid3.log_reward((1, 1)), abs=1e-12)


def test_topk_rejects_a_budget_below_k(grid3, grid3_space):
    # one draw cannot fill ten slots: dividing its reward by ten read above
    # the largest log-reward
    log_r = product_log_rewards([grid3], grid3_space)
    table = reward_table([grid3], grid3_space)
    with pytest.raises(ValueError, match="sample budget"):
        topk_avg_log_reward(table, grid3_space, log_r, 10, sample_budget=1)
    with pytest.raises(ValueError, match="sample budget"):
        topk_avg_log_reward(table, grid3_space, log_r, 10, sample_budget=9)


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
    "make",
    [
        lambda g: GridEnv(side=3, beacons=(tuple(g.integers(0, 3, 2).tolist()),), kappa=g.uniform(0.5, 2.0)),
        lambda g: MultisetEnv(values=tuple(g.normal(0, 1, 4)), target_size=4),
        lambda g: SequenceEnv(pos_scores=tuple(g.normal(0, 1, 3)), token_scores=tuple(g.normal(0, 1, 3))),
    ],
    ids=["grid3x3", "multiset4x4", "sequence3x3"],
)
def test_dag_passes_match_trajectory_enumeration(make, rng):
    envs = [make(rng) for _ in range(3)]  # same DAG, each client its own reward parameters
    space = StateSpace.enumerated(envs[0])
    pols = [random_tabular(space, rng) for _ in envs]
    omega = (0.5, 1.0, 2.0)
    brute, lo, hi = _brute_effective_target(pols, envs, space, omega)
    assert np.max(np.abs(effective_target(pols, space, omega).p - brute)) <= 1e-12
    chk = robustness_bound_check(pols, envs, space)
    assert np.max(np.abs(chk.alphas - (1.0 - np.exp(lo)))) <= 1e-12
    # beta = exp(hi) - 1 reaches thousands here, so it is compared as its log
    assert np.max(np.abs(np.log1p(chk.betas) - hi)) <= 1e-12


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


# sha256 of (alphas, betas, Jeffrey value, bound) as float64 bytes, as the
# check gave them when it read each local three times
BOUND_CHECK_MLP_SHA256 = "90a078dd21476c6485bfecaf82f30b96236ab5f41574b16c2573ee63e43d84e3"


def test_bound_check_reads_each_mlp_local_once(monkeypatch):
    import gfnpool.policy
    from gfnpool.nn import mlp_forward

    gen = np.random.default_rng(29)
    envs = [
        SequenceEnv(pos_scores=tuple(gen.normal(0, 1, 4)), token_scores=tuple(gen.normal(0, 1, 3)))
        for _ in range(2)
    ]
    space = StateSpace.enumerated(envs[0])
    pols = []
    for env in envs:
        pol = MlpPolicy.create(env, (8, 8), gen)
        pol.params = gen.normal(0.0, 0.5, pol.n_params)
        pols.append(pol)
    rows = {id(pol.params): 0 for pol in pols}

    def counted(spec, params, x):
        rows[id(params)] += x.shape[0]
        return mlp_forward(spec, params, x)

    monkeypatch.setattr(gfnpool.policy, "mlp_forward", counted)
    chk = robustness_bound_check(pols, envs, space)
    assert list(rows.values()) == [space.n_states] * len(pols)
    got = b"".join(np.float64(v).tobytes() for v in (chk.alphas, chk.betas, chk.jeffrey, chk.bound))
    assert hashlib.sha256(got).hexdigest() == BOUND_CHECK_MLP_SHA256


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


# -- noisy rewards: a client view's own table -------------------------------------

NOISE_DOC = {
    "name": "noise",
    "seed": 5,
    "env": {"kind": "multiset", "multiset": {"dict_size": 3, "target_size": 2, "values_seed": 7}},
    "clients": {"n": 2},
}


def _offset_view(space, sd, gen):
    """A view of `space` whose terminal log-rewards carry Gaussian offsets,
    and the offsets, in `terminal_indices` order."""
    term = space.terminal_indices()
    offsets = gen.normal(0.0, sd, term.size)
    table = np.full(space.n_states, np.nan)
    table[term] = space.log_rewards(term) + offsets
    return space.with_log_rewards(table), offsets


def test_noisy_wrap_zero_variance_identity(tmp_path, monkeypatch):
    (views,) = noise_cell_views(tmp_path, monkeypatch, NOISE_DOC, [0.0])
    term = views[0].terminal_indices()
    tables = [v.log_rewards(term).tobytes() for v in views]
    assert tables == [StateSpace.enumerated(v.env).log_rewards(term).tobytes() for v in views]
    assert tables[0] != tables[1]  # each client keeps its own rewards


def test_noisy_wrap_gaussian_sanity(tmp_path, monkeypatch):
    env = {"kind": "multiset", "multiset": {"dict_size": 9, "target_size": 8, "values_seed": 7}}
    doc = {**NOISE_DOC, "env": env, "clients": {"n": 1}}
    sigma2 = 0.01
    ((view,),) = noise_cell_views(tmp_path, monkeypatch, doc, [sigma2], seed=17)
    term = view.terminal_indices()
    assert term.size >= 10_000
    deltas = view.log_rewards(term) - StateSpace.enumerated(view.env).log_rewards(term)
    sd = np.sqrt(sigma2)
    assert np.max(np.abs(deltas)) <= 5 * sd
    assert abs(deltas.mean()) <= 5 * sd / np.sqrt(term.size)
    assert deltas.var() == pytest.approx(sigma2, rel=0.1)
    # offsets are frozen: a second read is identical
    assert np.array_equal(view.log_rewards(term[::-1])[::-1], view.log_rewards(term))


def test_noisy_wrap_offsets_reach_the_space(mset33, mset33_space):
    term = mset33_space.terminal_indices()
    base = mset33_space.log_rewards(term).copy()
    noisy, offsets = _offset_view(mset33_space, 0.1, np.random.default_rng(3))
    assert np.all(offsets != 0.0)
    # training reads rewards through the space, so the offsets must show there
    assert np.array_equal(noisy.log_rewards(term), base + offsets)
    assert noisy.for_env(mset33) is noisy and noisy.env is mset33
    assert np.array_equal(mset33_space.log_rewards(term), base)  # the base keeps its own
    # the view shares the enumeration, not the rewards
    assert noisy._children is mset33_space._children and noisy._shared is mset33_space._shared
    inner = np.flatnonzero(~mset33_space.terminal_mask(np.arange(mset33_space.n_states)))
    with pytest.raises(NotTerminalError):
        noisy.log_rewards(inner[:1])
    for bad in (np.full(mset33_space.n_states, np.nan), np.zeros(mset33_space.n_states + 1)):
        with pytest.raises(ValueError, match="log-reward at each terminal"):
            mset33_space.with_log_rewards(bad)


@pytest.mark.parametrize("sigma2", [-0.01, float("nan"), float("inf")])
def test_noisy_wrap_rejects_bad_variance(sigma2):
    # the sweep checks each variance before any cell draws an offset
    with pytest.raises(ConfigError, match="noise"):
        _check_sweep_values("noise", [0.0, sigma2])


def test_noisy_wrap_trains_like_an_env(rng):
    env = MultisetEnv(values=(0.3, 0.7), target_size=2)
    space = StateSpace.enumerated(env)
    noisy, _ = _offset_view(space, np.sqrt(0.005), rng)
    pol = balanced_tabular_policy(noisy)
    assert l1(exact_pT(pol, noisy), reward_table([env], noisy)) <= 1e-10
    assert l1(exact_pT(pol, noisy), reward_table([env], space)) > 1e-3
    # a client trains on its view's table, and probes against it
    cfg = TrainConfig(loss=LossSpec("CB"), epochs=30, batch=16, seed=2, eval_every=10)
    res = train_local(env, cfg, noisy)
    assert res.space is noisy
    assert res.metrics[-1]["l1"] == l1(exact_pT(res.policy, noisy), reward_table([env], noisy))


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


# -- cache-free reads in row chunks ---------------------------------------------


@pytest.fixture(scope="module")
def seq66_mlps():
    """Sequence 6x6 (levels of 1, 6, 36, 216, 1296, 7776 and 46656 states)
    and two MLP locals of the shipped widths [64, 64]."""
    gen = np.random.default_rng(66)
    env = SequenceEnv(pos_scores=tuple(gen.normal(0, 1, 6)), token_scores=tuple(gen.normal(0, 1, 6)))
    space = StateSpace.enumerated(env)
    pols = []
    for _ in range(2):
        pol = MlpPolicy.create(env, (64, 64), gen)
        pol.params = gen.normal(0.0, 0.3, pol.n_params)
        pols.append(pol)
    space.features(np.arange(space.n_states))
    return space, pols


# levels below the chunk in every case, then: the shipped chunk, of which no
# level is a multiple or a divisor; a chunk equal to a level, whose larger
# levels are multiples of it; a chunk between two levels; and one just below
# a level, where full parts and a remainder would leave a part of 4 rows
@pytest.mark.parametrize("chunk", [FORWARD_CHUNK, 1296, 3000, 1292])
def test_chunked_reads_equal_the_whole_level_call_byte_for_byte(chunk, seq66_mlps, monkeypatch):
    import gfnpool.policy

    space, pols = seq66_mlps
    sizes = [lv.size for lv in space.levels()]
    assert min(sizes) < chunk < max(sizes)
    monkeypatch.setattr(gfnpool.policy, "FORWARD_CHUNK", chunk)
    weights = (0.5, 2.0)
    for pol in pols:
        assert exact_pT(pol, space).p.tobytes() == reference_exact_pT(pol, space).tobytes()
    want = reference_effective_target(space, pols, weights)
    assert effective_target(pols, space, weights).p.tobytes() == want.tobytes()
    table = reference_pooled_table(space, pols, weights)
    pooled = PooledLocals(space, pols, weights)
    for lv in space.levels():
        assert pooled.rows(lv).tobytes() == table[lv].tobytes()
    # a sampled batch's states, unsorted and repeated, as AB reads them
    idx = np.random.default_rng(chunk).integers(0, space.n_states, 5000)
    uniq = np.unique(idx)
    assert uniq.size > chunk
    ref = sum(w * policy_rows(pol, space, uniq)[1] for pol, w in zip(pols, weights))
    got = PooledLocals(space, pols, weights).rows(idx)
    assert got.tobytes() == ref[np.searchsorted(uniq, idx)].tobytes()


def test_exact_pT_peak_memory_is_bounded_by_the_chunk(seq66_mlps):
    space, (pol, _) = seq66_mlps

    def peak(read) -> int:
        tracemalloc.start()
        try:
            read(pol, space)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    kept = peak(reference_exact_pT)  # every level's forward cache, 46,656 rows at the last
    free = peak(exact_pT)
    assert free < kept / 4
