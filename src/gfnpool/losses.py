"""Balance criteria as differentiable scalar losses over trajectory batches.

Every loss takes one step record, `policy.Steps`: a `TrajectoryBatch` (a
single trajectory is a one-row batch) with the trained policy's rows at
each of its steps. It returns the batch loss value and one analytic
gradient per parameter block the criterion trains, the flat array each
block's `logits_grad` returns. `fit` passes the record of the sampling
pass it just made, so nothing is computed twice; a caller with a batch
that was not just sampled passes `replay_steps(policy, space, tb)`.

Local losses read log R through the space's cache, `StateSpace.log_rewards`
(TB, CB, VL and DB at the terminals, DBC at every state); AB reads none.

  TB   squared trajectory-balance violation; trains policy + log Z
  DB   edgewise detailed balance with boundary terms; trains policy + the
       state flow log F(s), a one-column block of the policy's backend
  DBC  DB specialized to graphs where every state is terminal; policy only
  CB   squared contrast between two trajectories' violations; policy only
  VL   squared deviation of the violation from the batch mean; policy only
  AB   squared mismatch between the global and the pooled local trajectory
       ratios; trains the global policy only and never touches any reward.
       Only `aggregate_ab` trains with it, so it is not in `LOSS_KINDS`.

The frozen local policies enter AB through one object, `PooledLocals`: the
pooled local log-policy L(s -> s') = sum_n w_n log p_F^n(s'|s), a table of
weighted masked log-softmax rows. AB reads it with one gather per batch,
and the theorem checks in `evaluation` run their DAG passes over it.
`pooling_weights` is the one check of the weights w_n.

The pair losses CB and AB pair trajectory k of a batch of B with
trajectory k + B//2, and share one tail: one gradient pass over the record
with coefficients (2wa, -2wa). With an odd B, the last trajectory is in no
pair and gets coefficient 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envs.space import StateSpace
from .errors import RewardSupportError, UnsupportedLossError
from .policy import (
    ForwardPolicy,
    Steps,
    TrajectoryBatch,
    apply_log_pf_grad,
    cache_rows,
    policy_probs,
    replay_log_pb,
    step_log_pf,
    step_sums,
)

LOSS_KINDS = ("TB", "DB", "DBC", "CB", "VL")


@dataclass(frozen=True)
class LossSpec:
    """Which local balance criterion to train with, and its hyperparameters."""

    kind: str
    logz_lr: float = 1e-1  # learning rate override for log Z (TB only)
    weights: tuple[float, ...] | None = None  # pooling weights (AB only)

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}; expected one of {LOSS_KINDS}")
        if not (math.isfinite(self.logz_lr) and self.logz_lr > 0):
            raise ValueError(f"logz_lr must be a finite number > 0, got {self.logz_lr!r}")
        if self.weights is not None:
            pooling_weights(self.weights)


# ---------------------------------------------------------------------------
# helpers


def _require_rewards(space: StateSpace, tb: TrajectoryBatch) -> np.ndarray:
    """log R at the terminals of `tb`, through the space's cache; a zero R raises."""
    log_r = space.log_rewards(tb.terminal_idx())
    if not np.all(np.isfinite(log_r)):
        raise RewardSupportError("zero or non-finite reward at a terminal state")
    return log_r


def tb_violations(space: StateSpace, steps: Steps, logz: float = 0.0) -> np.ndarray:
    """Signed trajectory-balance violations log p_F + log Z - log p_B - log R
    of the batch `steps` records, read off its rows."""
    log_r = _require_rewards(space, steps.tb)
    return logz + step_log_pf(steps) - replay_log_pb(space, steps.tb) - log_r


def _pair_diff(x: np.ndarray) -> np.ndarray:
    """x[k] - x[k + B//2] over the pairs of a batch of B per-trajectory
    values; an odd batch's last value is in no pair."""
    if x.size < 2:
        raise ValueError("pair losses need a batch of at least 2 trajectories")
    n = x.size // 2
    return x[:n] - x[n : 2 * n]


def _pair_loss(policy, space, steps: Steps, a: np.ndarray, pair_weights):
    """The value sum_k w_k a_k^2 of the pair contrasts `a`, with w_k = 1/n
    for n pairs unless given, and its policy gradient: every a_k moves
    with log p_F of trajectory k minus that of trajectory k + n."""
    n = a.size
    if pair_weights is None:
        w = np.full(n, 1.0 / n)
    else:
        w = np.asarray(pair_weights, dtype=np.float64)
        if w.shape != (n,):
            raise ValueError("pair weights must match the pair count")
    g = 2.0 * w * a
    coeffs = np.zeros(steps.tb.batch_size)
    coeffs[:n], coeffs[n : 2 * n] = g, -g
    return float(np.sum(w * a**2)), {"policy": apply_log_pf_grad(policy, space, steps, coeffs)}


# ---------------------------------------------------------------------------
# frozen local policies


def pooling_weights(weights, n: int | None = None) -> np.ndarray:
    """The pooling weights as a float array: one positive, finite number per
    local policy (and `n` of them, when given), or `n` ones for None.
    Raises ValueError otherwise."""
    if weights is None:
        return np.ones(n)
    w = np.asarray(weights)
    if w.ndim != 1 or w.dtype.kind not in "iuf" or not np.all(np.isfinite(w) & (w > 0)):
        raise ValueError(f"pooling weights must be a list of positive, finite numbers, got {weights!r}")
    if n is not None and w.size != n:
        raise ValueError(f"need one pooling weight per local policy: expected {n}, got {w.size}")
    return w.astype(np.float64)


FILL_CHUNK = 8192  # rows per masked log-softmax when a tabular local is added


class PooledLocals:
    """The pooled local log-policy L = sum_n w_n * masked-log-softmax(local_n),
    one (n_states, arity) table keyed by state index (-inf on illegal
    slots), and the total weight sum_n w_n.

    A tabular local is summed into L when it is added and is not kept. An
    MLP local is kept, and its rows are summed in the first time `rows` or
    `log_pf` meets their state, so L grows with a lazily expanded space;
    every MLP local must therefore be added before the first read.
    Locals of one backend are summed in the order they were added.
    """

    def __init__(self, space: StateSpace, policies=(), weights=None):
        policies = list(policies)
        self.space = space
        self.total_weight = 0.0
        self._n = 0
        self._table = np.zeros((space.n_states, space.arity))
        self._lazy: list[tuple[ForwardPolicy, float]] = []  # MLP locals and their weights
        self._filled = np.zeros(space.n_states, dtype=bool)  # rows the MLP locals are summed into
        for policy, w in zip(policies, pooling_weights(weights, len(policies))):
            self.add(policy, w)

    def __len__(self) -> int:
        return self._n

    def add(self, policy: ForwardPolicy, weight: float = 1.0) -> None:
        (w,) = pooling_weights([weight])
        if policy.backend == "tabular":
            n = self.space.n_states
            for lo in range(0, n, FILL_CHUNK):
                idx = np.arange(lo, min(lo + FILL_CHUNK, n))
                self._table[idx] += w * policy_probs(policy, self.space, idx)[1]
        else:
            if self._filled.any():
                raise ValueError("add every MLP local before the first read of the pool")
            self._lazy.append((policy, w))
        self._n += 1
        self.total_weight += w

    def _fill(self, idx: np.ndarray) -> np.ndarray:
        """L, with the rows of `idx` summed in."""
        n = self.space.n_states
        if self._filled.size < n:  # the space registered states since the last fill
            cap = max(n, 2 * self._filled.size)
            self._table = np.concatenate([self._table, np.zeros((cap - self._filled.size, self.space.arity))])
            self._filled = np.concatenate([self._filled, np.zeros(cap - self._filled.size, dtype=bool)])
        if self._lazy:
            missing = np.unique(idx[~self._filled[idx]])
            if missing.size:
                for policy, w in self._lazy:
                    self._table[missing] += w * policy_probs(policy, self.space, missing)[1]
                self._filled[missing] = True
        return self._table

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """L at the state indices `idx`."""
        return self._fill(idx)[idx]

    def log_pf(self, tb: TrajectoryBatch) -> np.ndarray:
        """Per-trajectory sum of L over the steps of `tb`. Steps are added by
        `step_sums`, as `replay_log_pf` adds them, so one tabular local of
        weight 1 gives its exact bits."""
        valid = tb.valid()
        s, a = tb.states[valid], tb.actions[valid]
        return step_sums(valid, self._fill(s)[s, a])


# ---------------------------------------------------------------------------
# batch losses (training path)


def tb_loss_batch(policy, space, steps: Steps, logz: float):
    """Mean squared TB violation; gradients for the policy and log Z."""
    v = tb_violations(space, steps, logz)
    grad = apply_log_pf_grad(policy, space, steps, 2.0 * v / steps.tb.batch_size)
    return float(np.mean(v**2)), {"policy": grad, "logz": float(np.mean(2.0 * v))}


def cb_loss_batch(policy, space, steps: Steps, pair_weights=None):
    """Weighted squared contrast of TB violations between paired trajectories
    (log Z cancels, so none is needed)."""
    return _pair_loss(policy, space, steps, _pair_diff(tb_violations(space, steps)), pair_weights)


def vl_loss_batch(policy, space, steps: Steps):
    """Mean squared deviation of the TB violation from the batch mean (the
    batch mean estimates the inner expectation)."""
    n = steps.tb.batch_size
    if n < 2:
        raise ValueError("variance loss needs a batch of at least 2 trajectories")
    v = tb_violations(space, steps)
    d = v - v.mean()
    # d(mean d^2)/dtheta = (2/n) sum_k d_k dV_k since the deviations sum to 0
    return float(np.mean(d**2)), {"policy": apply_log_pf_grad(policy, space, steps, 2.0 * d / n)}


def db_loss_batch(policy, flow, space, steps: Steps):
    """Mean squared detailed-balance violation over every transition in the
    batch, boundary terms included. `flow` is a one-column block of the
    policy's backend, whose column 0 is log F. A step's successor s' is the
    next row of the step record, so one flow forward over the steps gives
    log F(s) and log F(s'). The flow gradient is one pass over the successor
    terms concatenated with the own-state terms: the order a loop over t
    meets them in."""
    tb = steps.tb
    log_r = _require_rewards(space, tb)
    s, a, logp, p = steps.states, steps.actions, steps.logp, steps.p
    total = s.size
    lp_a = logp[np.arange(total), a]
    lf, fc = flow.logits_rows(space, s)
    lf_s = lf[:, 0]
    stop = np.cumsum(tb.lengths) - 1  # each trajectory's last step, in row order
    go = np.setdiff1d(np.arange(total), stop)  # the others move to step go + 1
    nxt = s[go + 1]
    viol = np.empty(total)
    viol[go] = lp_a[go] + np.log(space.nparents(nxt)) + lf_s[go] - lf_s[go + 1]
    viol[stop] = lf_s[stop] + lp_a[stop] - log_r
    coeff = 2.0 * viol / total
    dl = -p * coeff[:, None]
    dl[np.arange(total), a] += coeff
    rows = np.concatenate([go + 1, np.arange(total)])  # successor terms, then own-state terms
    dv = np.concatenate([-coeff[go], coeff])[:, None]
    return float(np.sum(viol**2)) / total, {
        "policy": policy.logits_grad(s, dl, steps.cache),
        "flow": flow.logits_grad(s[rows], dv, cache_rows(fc, rows)),
    }


def dbc_loss_batch(policy, space, steps: Steps):
    """Flow-free detailed balance for graphs where every state is terminal:
    squared log violation of R(s') p_B(s|s') p_F(sf|s) = R(s) p_F(s'|s) p_F(sf|s'),
    averaged over the batch's interior transitions. log p_F(sf|s') is read
    off the next row of the step record; the gradient is one pass over the
    successor terms concatenated with the own-state terms, the order a loop
    over t meets them in."""
    env = space.env
    if not getattr(env, "all_states_terminal", False):
        raise UnsupportedLossError(
            f"DBC requires every state to be terminal; {env.kind} is not such an environment"
        )
    stop = env.stop_action
    lengths = steps.tb.lengths
    interior = int((lengths - 1).sum())
    if interior == 0:
        raise UnsupportedLossError("batch contains no interior transitions")
    s, a, logp, p = steps.states, steps.actions, steps.logp, steps.p
    go = np.setdiff1d(np.arange(s.size), np.cumsum(lengths) - 1)  # moves to step go + 1
    cur, nxt = s[go], s[go + 1]
    viol = (
        space.log_rewards(nxt)
        - np.log(space.nparents(nxt))
        + logp[go, stop]
        - space.log_rewards(cur)
        - logp[go, a[go]]
        - logp[go + 1, stop]
    )
    coeff = 2.0 * viol / interior
    rows = np.concatenate([go + 1, go])  # successor terms, then own-state terms
    succ, own = np.arange(interior), interior + np.arange(interior)
    dl = np.zeros((rows.size, p.shape[1]))
    # d/dlogits(s') of -logp(stop|s'); at s the softmax terms of
    # logp(stop|s) - logp(a|s) cancel
    dl[succ] = p[go + 1] * coeff[:, None]
    dl[succ, stop] -= coeff
    dl[own, stop] += coeff
    dl[own, a[go]] -= coeff
    grad = policy.logits_grad(s[rows], dl, cache_rows(steps.cache, rows))
    return float(np.sum(viol**2)) / interior, {"policy": grad}


def ab_loss_batch(policy, space, steps: Steps, pooled: PooledLocals, pair_weights=None):
    """Squared mismatch between the global trajectory-ratio contrast and the
    pooled local one: with L the pooled log-policy and W its total weight,
    a = (pf1 - pf2) - (L1 - L2) + (W - 1)(pb1 - pb2). The locals carry no
    gradient; no reward is ever evaluated."""
    if not len(pooled):
        raise ValueError("aggregation needs at least one local policy")
    pb = replay_log_pb(space, steps.tb)
    pf = step_log_pf(steps)
    lp = pooled.log_pf(steps.tb)
    a = _pair_diff(pf) - _pair_diff(lp) + (pooled.total_weight - 1.0) * _pair_diff(pb)
    return _pair_loss(policy, space, steps, a, pair_weights)
