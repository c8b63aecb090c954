"""Exact evaluation of terminal-state distributions.

A terminal distribution is a `DistributionTable`: an array `p` over the
state indices of one enumerated `StateSpace`, exactly 0 off the terminals,
with that space and a provenance tag. Every producer here (`exact_pT`,
`target_table`, `effective_target`) fills it directly, and
every metric (L1, KL, Jeffrey, top-K) is a vector operation on it. Two
tables are comparable when they index the same DAG: views from
`StateSpace.for_env` of one enumeration are, and a metric on tables from
different DAGs raises `FingerprintMismatchError`.

Also here: the normalized (product-of-)reward targets, the effective target
an aggregated sampler actually draws from when its inputs are imperfect,
the Jeffrey-divergence bound checker for that gap, and the exact
KL-gradient identity check for the contrastive criterion. Every exact
figure (the marginal, the trajectory count, the effective target and the
bound's extrema) is one `StateSpace.forward` pass over the DAG; trajectory
enumeration stays as their brute-force oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .envs.base import Environment, StateKey
from .envs.space import CHILD_ILLEGAL, CHILD_STOP, StateSpace
from .errors import EnumerationGuardError, FingerprintMismatchError, NumericError, RewardSupportError
from .losses import PooledLocals, ab_loss_batch, cb_loss_batch, pooling_weights
from .policy import (
    ForwardPolicy,
    TrajectoryBatch,
    apply_log_pf_grad,
    policy_probs,
    replay_log_pb,
    replay_steps,
    sample_batch,
    step_log_pf,
)

DEFAULT_TRAJ_GUARD = 1_000_000
SAMPLE_CHUNK = 8192  # trajectories per sampled batch when drawing many terminals


@dataclass
class DistributionTable:
    """Terminal-state probabilities `p[i]` by state index of `space`
    (exactly 0 off the terminals), with a provenance tag."""

    p: np.ndarray
    space: StateSpace
    provenance: str

    @property
    def probs(self) -> dict[StateKey, float]:
        """The same probabilities keyed by terminal state, in index order."""
        return {self.space.keys[i]: float(self.p[i]) for i in self.space.terminal_indices()}

    def total(self) -> float:
        return float(self.p.sum())


def _aligned(p: DistributionTable, q: DistributionTable) -> tuple[np.ndarray, np.ndarray]:
    """The two probability arrays, which must index the same DAG."""
    fp, fq = p.space.env.fingerprint(), q.space.env.fingerprint()
    if fp != fq or p.p.size != q.p.size:
        raise FingerprintMismatchError(
            f"cannot compare a table over {fp!r} ({p.p.size} states) with one over {fq!r} ({q.p.size} states)"
        )
    return p.p, q.p


def l1(p: DistributionTable, q: DistributionTable) -> float:
    a, b = _aligned(p, q)
    return float(np.abs(a - b).sum())


def kl(p: DistributionTable, q: DistributionTable) -> float:
    a, b = _aligned(p, q)
    on = a > 0.0
    bad = np.flatnonzero(on & (b <= 0.0))
    if bad.size:
        warnings.warn(f"KL support violation at {p.space.keys[bad[0]]!r}; returning inf", stacklevel=2)
        return float("inf")
    return float(np.sum(a[on] * np.log(a[on] / b[on])))


def jeffrey(p: DistributionTable, q: DistributionTable) -> float:
    return kl(p, q) + kl(q, p)


def _logsumexp(a: np.ndarray) -> float:
    m = np.max(a)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.exp(a - m).sum()))


# ---------------------------------------------------------------------------
# terminal distributions


def exact_pT(policy: ForwardPolicy, space: StateSpace) -> DistributionTable:
    """Exact terminal marginal of the policy, by pushing unit mass through the
    DAG level by level (equals the sum over all trajectories). Each level is
    one cache-free `policy_probs` read."""

    def step(lv, mass, rows):
        return mass[:, None] * policy_probs(policy, space, lv)[2]

    return DistributionTable(space.forward(step, np.add), space, provenance="exact-dp")


def sample_terminals(policy: ForwardPolicy, space: StateSpace, n: int, rng: np.random.Generator) -> np.ndarray:
    """Terminal state indices of n on-policy draws, sampled in batches of
    `SAMPLE_CHUNK`."""
    out = []
    for lo in range(0, n, SAMPLE_CHUNK):
        b = min(SAMPLE_CHUNK, n - lo)
        out.append(sample_batch(policy, space, b, epsilon=0.0, rng=rng).terminal_idx())
    return np.concatenate(out)


def terminal_log_rewards(env: Environment, space: StateSpace) -> np.ndarray:
    """log R(x) of one env at every enumerated terminal, in `terminal_indices`
    order, read through the env's view of `space` (the space itself if it
    belongs to `env`), so its cache serves every later read."""
    return space.for_env(env).log_rewards(space.terminal_indices())


def pooled_log_rewards(space: StateSpace, per_client: list[np.ndarray], weights=None) -> np.ndarray:
    """Unnormalized sum_n w_n log R_n(x) per state index (nan off-support),
    from each client's `terminal_log_rewards`, summed in client order."""
    w = pooling_weights(weights, len(per_client))
    term = space.terminal_indices()
    out = np.full(space.n_states, np.nan)
    out[term] = 0.0
    for wn, vals in zip(w, per_client, strict=True):
        out[term] += wn * vals
    return out


def product_log_rewards(
    envs: list[Environment], space: StateSpace, weights=None
) -> np.ndarray:
    """Unnormalized sum_n w_n log R_n(x) per state index (nan off-support)."""
    return pooled_log_rewards(space, [terminal_log_rewards(e, space) for e in envs], weights)


def target_table(space: StateSpace, log_r: np.ndarray) -> DistributionTable:
    """Normalize per-state log-rewards over the enumerated terminals."""
    term = space.terminal_indices()
    vals = log_r[term]
    z = _logsumexp(vals)
    if z == -np.inf:
        raise RewardSupportError("product reward vanishes on every terminal state")
    if not np.isfinite(z):
        raise NumericError("product reward overflows; rewards are not normalizable")
    p = np.zeros(space.n_states)
    p[term] = np.exp(vals - z)
    return DistributionTable(p, space, provenance="reward-normalized")


def reward_table(envs: list[Environment], space: StateSpace, weights=None) -> DistributionTable:
    """Normalized (weighted) product of rewards over enumerated terminals -
    the ground-truth target for every L1 figure."""
    return target_table(space, product_log_rewards(envs, space, weights))


def topk_avg_log_reward(
    table: DistributionTable, space: StateSpace, log_r: np.ndarray, k: int, sample_budget: int = 1_000_000
) -> float:
    """Mean log-reward of the K best-scoring of `sample_budget` draws from
    `table`, multiplicity counted, in the infinite-sample limit: the K slots
    are filled by expected counts in decreasing reward order. A budget below
    K cannot fill them and raises."""
    if sample_budget < k:
        raise ValueError(f"top-{k} needs a sample budget of at least {k}, got {sample_budget}")
    term = space.terminal_indices()
    expect = table.p[term] * sample_budget
    order = np.argsort(log_r[term])[::-1]
    take = np.minimum(expect[order], np.maximum(0.0, k - np.concatenate([[0.0], np.cumsum(expect[order])[:-1]])))
    return float(np.sum(take * log_r[term][order]) / k)


# ---------------------------------------------------------------------------
# trajectory enumeration


def count_trajectories(space: StateSpace) -> int:
    """Number of complete trajectories, by path-count dynamic programming."""
    paths = space.forward(lambda lv, held, rows: np.broadcast_to(held[:, None], rows.shape), np.add)
    return int(round(paths[space.terminal_indices()].sum()))


def enumerate_trajectory_batches(
    space: StateSpace, chunk: int = 4096, guard: int = DEFAULT_TRAJ_GUARD
):
    """Yield every complete trajectory, packed into TrajectoryBatch chunks.

    Depth-first over the enumerated DAG; raises `EnumerationGuardError` if
    the trajectory count exceeds the guard. No exact figure needs it: it is
    their brute-force oracle, and the gradient check's pair expectation.
    """
    space.require_complete()
    total = count_trajectories(space)
    if total > guard:
        raise EnumerationGuardError(f"{total} trajectories exceed the guard of {guard}")
    horizon = space.env.max_traj_len
    buf_states, buf_actions = [], []

    def flush():
        b = len(buf_actions)
        states = np.full((b, horizon), -1, dtype=np.int64)
        actions = np.full((b, horizon), -1, dtype=np.int64)
        lengths = np.zeros(b, dtype=np.int64)
        for r, (ss, aa) in enumerate(zip(buf_states, buf_actions)):
            lengths[r] = len(aa)
            states[r, : len(ss)] = ss
            actions[r, : len(aa)] = aa
        tb = TrajectoryBatch(states, actions, lengths)
        buf_states.clear()
        buf_actions.clear()
        return tb

    def rec(i: int, states: list, actions: list):
        rows = space.children_rows(np.array([i]))[0]
        for a in range(space.arity):
            code = rows[a]
            if code == CHILD_ILLEGAL:
                continue
            if code == CHILD_STOP:
                buf_states.append(states[:])
                buf_actions.append(actions + [a])
            else:
                yield from rec(int(code), states + [int(code)], actions + [a])
            if len(buf_actions) >= chunk:
                yield flush()

    yield from rec(space.root, [space.root], [])
    if buf_actions:
        yield flush()


def _log_path_step(space: StateSpace, edge_rows, parents_coef: float):
    """A `StateSpace.forward` step that sums edge values along each path:
    the edge s -> s' by action a is worth edge_rows(lv)[s, a] +
    parents_coef * log|parents(s')|, and the stop edge of s is worth
    edge_rows(lv)[s, stop]."""

    def step(lv, held, rows):
        vals = held[:, None] + edge_rows(lv)
        interior = rows >= 0
        vals[interior] += parents_coef * np.log(space.nparents(rows[interior]))
        return vals

    return step


def effective_target(local_policies: list[ForwardPolicy], space: StateSpace, weights=None) -> DistributionTable:
    """Distribution the aggregation-balanced global model actually samples:
    pi_hat(x) proportional to sum over trajectories tau into x of
    prod_n p_F^n(tau)^w_n * p_B(tau|x)^(1 - sum w), one forward
    log-sum-exp pass over the pooled local log-policy L, with edge weight
    L[s, a] + (sum w - 1) log|parents(s')| (a stop edge takes L[s, stop])."""
    pooled = PooledLocals(space, local_policies, weights)
    return _effective_table(space, pooled.rows, pooled.total_weight)


def _effective_table(space: StateSpace, pooled_rows, total_weight: float) -> DistributionTable:
    """`effective_target` over the pooled rows `pooled_rows(lv)`."""
    log_mass = space.forward(_log_path_step(space, pooled_rows, total_weight - 1.0), np.logaddexp)
    z = _logsumexp(log_mass[space.terminal_indices()])
    return DistributionTable(np.exp(log_mass - z), space, provenance="effective-target")


# ---------------------------------------------------------------------------
# theorem checkers


@dataclass
class BoundCheckResult:
    alphas: np.ndarray
    betas: np.ndarray
    jeffrey: float
    bound: float
    holds: bool
    degenerate: bool


def robustness_bound_check(
    local_policies: list[ForwardPolicy],
    client_envs: list[Environment],
    space: StateSpace,
) -> BoundCheckResult:
    """Check the Jeffrey-divergence bound between the product target and the
    effective aggregated target against per-client trajectory-ratio extrema.
    Each local is read once, into a one-local `PooledLocals` whose rows give
    its min and max passes, then go into a running sum in client order: the
    bits of one unit-weight pool, for which the bound is stated. At most two
    full tables are held at a time, the sum and the current local's."""
    if len(local_policies) != len(client_envs):
        raise ValueError("need one environment per local policy")
    own = [terminal_log_rewards(env, space) for env in client_envs]
    term = space.terminal_indices()
    pooled = np.zeros((space.n_states, space.arity))
    lo, hi = np.empty((2, len(local_policies)))
    for k, (policy, vals) in enumerate(zip(local_policies, own)):
        # log p_F(tau) - log p_B(tau|x), summed edge by edge over the client's
        # own masked log-softmax rows, less log pi_k(x)
        pool = PooledLocals(space, [policy])
        step = _log_path_step(space, pool.rows, 1.0)
        log_pi = vals - _logsumexp(vals)
        lo[k] = np.min(space.forward(step, np.minimum)[term] - log_pi)
        hi[k] = np.max(space.forward(step, np.maximum)[term] - log_pi)
        pooled += pool.rows(np.arange(space.n_states))
    alphas = 1.0 - np.exp(lo)
    betas = np.exp(hi) - 1.0
    degenerate = bool(np.any(~np.isfinite(lo)) or np.any(np.exp(lo) <= 0.0))
    bound = float("inf") if degenerate else float(np.sum(hi - lo))
    pi = target_table(space, pooled_log_rewards(space, own))
    dj = jeffrey(pi, _effective_table(space, lambda lv: pooled[lv], float(len(local_policies))))
    return BoundCheckResult(alphas, betas, dj, bound, holds=dj <= bound + 1e-9, degenerate=degenerate)


def cb_kl_gradient_identity_check(
    policy: ForwardPolicy,
    space: StateSpace,
    pooled: PooledLocals | None = None,
    max_trajectories: int = 300,
) -> float:
    """Max elementwise gap between the exact gradient of KL(p_F || q) and one
    quarter of the exact pair-expected contrastive gradient, both computed by
    full enumeration. q(tau) is proportional to p_B(tau|x) exp(t(tau)), with
    the per-trajectory log-target t = log R(x) for CB. Given a pool of frozen
    locals, t is the pooled ratio sum_n w_n (log p_F^n(tau) - log p_B(tau|x))
    and the pair gradient is AB's, which never reads a reward."""
    total = count_trajectories(space)
    if total > max_trajectories:
        raise EnumerationGuardError(
            f"{total} trajectories is too many for the exact pair expectation"
        )
    (tb,) = enumerate_trajectory_batches(space, chunk=total)
    steps = replay_steps(policy, space, tb)
    pf = step_log_pf(steps)
    pb = replay_log_pb(space, tb)
    if pooled is None:
        log_target = space.log_rewards(tb.terminal_idx())
        pair_loss = cb_loss_batch
    else:
        log_target = pooled.log_pf(tb) - pooled.total_weight * pb
        pair_loss = partial(ab_loss_batch, pooled=pooled)
    p_tau = np.exp(pf)
    ell = pf - pb - log_target
    lhs = apply_log_pf_grad(policy, space, steps, p_tau * ell)
    # every ordered pair (i, j): trajectory i in the first half, j in the second
    rep = np.repeat(np.arange(tb.batch_size), tb.batch_size)
    til = np.tile(np.arange(tb.batch_size), tb.batch_size)
    pairs = replay_steps(policy, space, tb.subset(np.concatenate([rep, til])))
    _, grads = pair_loss(policy, space, pairs, pair_weights=p_tau[rep] * p_tau[til])
    rhs = grads["policy"] / 4.0
    return float(np.max(np.abs(lhs - rhs)))
