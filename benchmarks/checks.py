"""Correctness checks made on every run. Each returns a list of failures
(empty when the check passes); the run reports `correct` false if any
check fails."""

from __future__ import annotations

import dataclasses

import numpy as np

import oracle
from gfnpool import aggregate, evaluation
from gfnpool.envs.space import CHILD_ILLEGAL
from gfnpool.policy import TrajectoryBatch, balanced_tabular_policy, load_snapshot, replay_log_pf

TOL = 1e-9


def _max_dev(p: dict, q: dict) -> float:
    return max(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))


class References:
    """The oracle's targets and uniform-policy laws for one run's envs."""

    def __init__(self, envs):
        self.own = [oracle.log_rewards(e) for e in envs]
        self.own_targets = [oracle.normalize(t) for t in self.own]
        self.product = oracle.normalize({k: sum(t[k] for t in self.own) for k in self.own[0]})
        self.uniform = oracle.uniform_terminal(envs[0])
        self.uniform_l1 = oracle.l1(self.uniform, self.product)
        self.uniform_own_l1 = [oracle.l1(self.uniform, t) for t in self.own_targets]
        self.n_terminals = oracle.terminal_count(envs[0])


def check_target(su, ref: References) -> list[str]:
    """The program's product target against the oracle's, and the terminal
    count against its closed form."""
    got = su.target.probs
    fails = []
    if len(ref.product) != ref.n_terminals:
        fails.append(f"oracle found {len(ref.product)} terminals, closed form {ref.n_terminals}")
    if set(got) != set(ref.product):
        fails.append(f"target has {len(got)} terminals, expected {ref.n_terminals}")
    elif _max_dev(got, ref.product) > TOL:
        fails.append(f"product target deviates by {_max_dev(got, ref.product):.3g}")
    return fails


def check_models(su, ref: References, clients: list[bytes], global_: bytes, report: dict) -> list[str]:
    """Every exact distribution sums to 1; the report's L1 figures match the
    oracle's targets; every model beats the uniform policy."""
    fails = []
    rows = report["models"]
    for name, blob in [("global", global_)] + [(f"client{k}", b) for k, b in enumerate(clients)]:
        policy = load_snapshot(blob, su.envs[0], su.space)[0]
        pT = evaluation.exact_pT(policy, su.space).probs
        total = sum(pT.values())
        if abs(total - 1.0) > TOL:
            fails.append(f"{name}: exact distribution sums to {total!r}")
        l1 = oracle.l1(pT, ref.product)
        if abs(l1 - rows[name]["l1"]) > TOL:
            fails.append(f"{name}: report L1 {rows[name]['l1']!r}, oracle {l1!r}")
        if name == "global" and not l1 < ref.uniform_l1:
            fails.append(f"global L1 {l1:.4f} is not below the uniform policy's {ref.uniform_l1:.4f}")
        if name.startswith("client"):
            k = int(name[6:])
            own = oracle.l1(pT, ref.own_targets[k])
            if abs(own - rows[name]["l1_local"]) > TOL:
                fails.append(f"{name}: report local L1 {rows[name]['l1_local']!r}, oracle {own!r}")
            if not own < ref.uniform_own_l1[k]:
                fails.append(f"{name}: local L1 {own:.4f} is not below the uniform policy's {ref.uniform_own_l1[k]:.4f}")
    return fails


def counting_env(env):
    """A copy of `env` whose log_reward calls are counted."""
    calls = [0]
    cls = type(env)

    def log_reward(self, s):
        calls[0] += 1
        return cls.log_reward(self, s)

    counted = type(f"Counted{cls.__name__}", (cls,), {"log_reward": log_reward})
    fields = {f.name: getattr(env, f.name) for f in dataclasses.fields(env) if f.init}
    return counted(**fields), calls


def check_reward_free_aggregation(su, clients: list[bytes]) -> list[str]:
    """aggregate_ab on the round's snapshots, given an env that counts its
    reward calls, must make none. Two epochs keep the check cheap; the traced
    run counts the calls over a whole aggregation."""
    env, calls = counting_env(su.envs[0])
    cfg = dataclasses.replace(su.run.aggregate_config(), epochs=2, eval_every=0)
    aggregate.aggregate_ab(env, clients, cfg)
    return [f"aggregate_ab evaluated log_reward {calls[0]} times"] if calls[0] else []


# ---------------------------------------------------------------------------
# phylogenetics only: the DAG is small enough to enumerate every trajectory


def _trajectory_batch(su):
    trajs = oracle.phylo_trajectories(su.envs[0].n_leaves)
    horizon = su.envs[0].max_traj_len
    b = len(trajs)
    states = np.full((b, horizon), -1, dtype=np.int64)
    actions = np.full((b, horizon), -1, dtype=np.int64)
    lengths = np.zeros(b, dtype=np.int64)
    for r, (ss, aa) in enumerate(trajs):
        states[r, : len(ss)] = [su.space.index[s] for s in ss]
        actions[r, : len(aa)] = aa
        lengths[r] = len(aa)
    tb = TrajectoryBatch(states, actions, lengths, np.zeros((b, horizon)), np.zeros((b, horizon)), None)
    return tb, [ss[-1] for ss, _ in trajs]


def _table_log_pf(policy, su, tb) -> np.ndarray:
    """Trajectory log-probabilities read straight off the logit table."""
    out = np.zeros(tb.batch_size)
    legal = su.space.children_rows(np.arange(su.space.n_states)) != CHILD_ILLEGAL
    for r in range(tb.batch_size):
        for t in range(tb.lengths[r]):
            s, a = tb.states[r, t], tb.actions[r, t]
            row = policy.table[s][legal[s]]
            m = row.max()
            out[r] += policy.table[s, a] - (m + np.log(np.exp(row - m).sum()))
    return out


def check_phylo(su, ref: References, clients: list[bytes], global_: bytes) -> list[str]:
    fails = []
    tb, trees = _trajectory_batch(su)
    if tb.batch_size != 180 or len(set(trees)) != ref.n_terminals:
        fails.append(f"{tb.batch_size} trajectories over {len(set(trees))} trees")
    locals_ = []
    for name, blob in [("global", global_)] + [(f"client{k}", b) for k, b in enumerate(clients)]:
        policy = load_snapshot(blob, su.envs[0], su.space)[0]
        if name != "global":
            locals_.append(policy)
        pf = replay_log_pf(policy, su.space, tb)
        if np.max(np.abs(pf - _table_log_pf(policy, su, tb))) > TOL:
            fails.append(f"{name}: replay_log_pf disagrees with the logit table")
        brute: dict = {}
        for tree, p in zip(trees, np.exp(pf)):
            brute[tree] = brute.get(tree, 0.0) + p
        dev = _max_dev(evaluation.exact_pT(policy, su.space).probs, brute)
        if dev > TOL:
            fails.append(f"{name}: exact_pT deviates from the trajectory sum by {dev:.3g}")
    bound = evaluation.robustness_bound_check(locals_, su.envs, su.space)
    if not bound.holds:
        fails.append(f"Jeffrey bound fails: {bound.jeffrey:.4g} > {bound.bound:.4g}")
    balanced = []
    term = su.space.terminal_indices()
    for own in ref.own:
        log_r = np.full(su.space.n_states, -np.inf)
        log_r[term] = [own[su.space.keys[i]] for i in term]
        balanced.append(balanced_tabular_policy(su.space, log_r))
    dev = _max_dev(evaluation.effective_target(balanced, su.space).probs, ref.product)
    if dev > TOL:
        fails.append(f"effective target of balanced clients deviates from the product by {dev:.3g}")
    return fails
