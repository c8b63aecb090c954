"""Forward policies, trajectory sampling and replay, and the snapshot
format clients ship to the server. The backward policy is always uniform,
p_B(s' -> s) = 1 / |parents(s')|: `sample_batch` records it in `log_pb`
and `replay_log_pb` recomputes it.

Trajectories exist only as a `TrajectoryBatch`: a batch advances in
lockstep, one masked-softmax per step, so training loops spend their time
in numpy rather than Python. A single trajectory is a one-row batch.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass

import numpy as np

from .envs.base import Environment, StateKey
from .envs.space import CHILD_ILLEGAL, CHILD_STOP, StateSpace
from .errors import (
    FingerprintMismatchError,
    MalformedStateError,
    NumericError,
    SnapshotError,
)
from .nn import MlpSpec, mlp_backward, mlp_forward, mlp_init

SNAPSHOT_VERSION = 1


def masked_log_softmax(logits: np.ndarray, legal: np.ndarray):
    """Row-wise log-softmax restricted to legal slots.

    Illegal slots get probability exactly 0 and log-probability -inf; the
    -inf never propagates because callers only index realized (legal) actions.
    """
    masked = np.where(legal, logits, -np.inf)
    m = masked.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(masked - m).sum(axis=1, keepdims=True))
    logp = masked - lse
    return logp, np.exp(logp)


# ---------------------------------------------------------------------------
# policy backends


class ForwardPolicy:
    """Interface shared by the tabular and MLP backends."""

    backend: str = "abstract"
    no_decay: bool = True  # whether weight decay should skip these params

    @property
    def arity(self) -> int:
        raise NotImplementedError

    @property
    def n_params(self) -> int:
        raise NotImplementedError

    def get_params(self) -> np.ndarray:
        raise NotImplementedError

    def set_params(self, flat: np.ndarray) -> None:
        raise NotImplementedError

    def logits_rows(self, space: StateSpace, idx: np.ndarray, want_cache: bool = False):
        """(batch, arity) raw logits; with want_cache, also an opaque cache
        for the matching accumulate_dlogits call."""
        raise NotImplementedError

    def accumulate_dlogits(self, space, idx, dlogits, grad_flat, cache=None) -> None:
        """Add d(sum of weighted logits)/d(params) into grad_flat."""
        raise NotImplementedError


class TabularPolicy(ForwardPolicy):
    """One logit row per enumerated state."""

    backend = "tabular"
    no_decay = True

    def __init__(self, space: StateSpace, table: np.ndarray | None = None):
        space.require_complete()
        self.space = space
        n, a = space.n_states, space.arity
        self.table = np.zeros((n, a)) if table is None else np.asarray(table, dtype=np.float64)
        if self.table.shape != (n, a):
            raise ValueError(f"table shape {self.table.shape} != ({n}, {a})")

    @property
    def arity(self) -> int:
        return self.table.shape[1]

    @property
    def n_params(self) -> int:
        return self.table.size

    def get_params(self) -> np.ndarray:
        return self.table.ravel().copy()

    def set_params(self, flat: np.ndarray) -> None:
        self.table = flat.reshape(self.table.shape).copy()

    def logits_rows(self, space, idx, want_cache=False):
        logits = self.table[idx]
        return (logits, None) if want_cache else logits

    def accumulate_dlogits(self, space, idx, dlogits, grad_flat, cache=None) -> None:
        np.add.at(grad_flat.reshape(self.table.shape), idx, dlogits)

    def arch_descriptor(self) -> dict:
        return {"n_states": self.table.shape[0], "arity": self.table.shape[1]}


class MlpPolicy(ForwardPolicy):
    """Max-arity head over the environment's feature encoding."""

    backend = "mlp"
    no_decay = False

    def __init__(self, spec: MlpSpec, params: np.ndarray):
        self.spec = spec
        self.params = np.asarray(params, dtype=np.float64)
        if self.params.shape != (spec.n_params,):
            raise ValueError("parameter vector does not match the MLP spec")

    @classmethod
    def create(cls, env: Environment, hidden: tuple[int, ...], rng: np.random.Generator) -> "MlpPolicy":
        spec = MlpSpec((env.feature_dim, *hidden, env.max_arity))
        return cls(spec, mlp_init(spec, rng))

    @property
    def arity(self) -> int:
        return self.spec.widths[-1]

    @property
    def n_params(self) -> int:
        return self.spec.n_params

    def get_params(self) -> np.ndarray:
        return self.params.copy()

    def set_params(self, flat: np.ndarray) -> None:
        self.params = flat.copy()

    def logits_rows(self, space, idx, want_cache=False):
        out, cache = mlp_forward(self.spec, self.params, space.features(idx))
        return (out, cache) if want_cache else out

    def accumulate_dlogits(self, space, idx, dlogits, grad_flat, cache=None) -> None:
        if cache is None:
            _, cache = mlp_forward(self.spec, self.params, space.features(idx))
        grad, _ = mlp_backward(self.spec, self.params, cache, dlogits)
        grad_flat += grad

    def arch_descriptor(self) -> dict:
        return {
            "widths": list(self.spec.widths),
            "negative_slope": self.spec.negative_slope,
        }


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class TrajectoryBatch:
    states: np.ndarray  # (B, T) state indices, -1 beyond the path
    actions: np.ndarray  # (B, T) action ids, -1 beyond the path
    lengths: np.ndarray  # (B,) transition counts, stop included
    log_pf: np.ndarray  # (B, T) on-policy log-probs recorded at sampling
    log_pb: np.ndarray  # (B, T) uniform-backward log-probs (stop step: 0)
    log_reward: np.ndarray | None
    explored: bool = False

    @property
    def batch_size(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        return self.states.shape[1]

    def terminal_idx(self) -> np.ndarray:
        return self.states[np.arange(self.batch_size), self.lengths - 1]

    def subset(self, idx) -> "TrajectoryBatch":
        return TrajectoryBatch(
            self.states[idx],
            self.actions[idx],
            self.lengths[idx],
            self.log_pf[idx],
            self.log_pb[idx],
            None if self.log_reward is None else self.log_reward[idx],
            self.explored,
        )


def _sample_rows(dist: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    c = np.cumsum(dist, axis=1)
    r = (1.0 - rng.random((dist.shape[0], 1))) * c[:, -1:]
    return np.minimum((c < r).sum(axis=1), dist.shape[1] - 1)


def sample_batch(
    policy: ForwardPolicy,
    space: StateSpace,
    batch: int,
    epsilon: float,
    rng: np.random.Generator,
    compute_rewards: bool = True,
) -> TrajectoryBatch:
    """Sample `batch` trajectories from the epsilon-mixture of the policy and
    the uniform forward policy. Recorded log p_F is always the on-policy
    value - the mixture is only a proposal."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    horizon = space.env.max_traj_len
    states = np.full((batch, horizon), -1, dtype=np.int64)
    actions = np.full((batch, horizon), -1, dtype=np.int64)
    log_pf = np.zeros((batch, horizon))
    log_pb = np.zeros((batch, horizon))
    lengths = np.zeros(batch, dtype=np.int64)
    states[:, 0] = space.root
    cur = np.full(batch, space.root, dtype=np.int64)
    alive = np.arange(batch)
    t = 0
    while alive.size:
        if t >= horizon:
            raise NumericError("trajectory step budget exceeded; DAG integrity suspect")
        rows = space.children_rows(cur[alive])
        legal = rows != CHILD_ILLEGAL
        if not legal.any(axis=1).all():
            raise MalformedStateError("reached a state with no legal transitions")
        logp, p = masked_log_softmax(policy.logits_rows(space, cur[alive]), legal)
        if epsilon > 0:
            uniform = legal / legal.sum(axis=1, keepdims=True)
            mix = rng.random(alive.size) < epsilon
            dist = np.where(mix[:, None], uniform, p)
        else:
            dist = p
        a = _sample_rows(dist, rng)
        rr = np.arange(alive.size)
        log_pf[alive, t] = logp[rr, a]
        actions[alive, t] = a
        code = rows[rr, a]
        stop = code == CHILD_STOP
        lengths[alive[stop]] = t + 1
        go, nxt = alive[~stop], code[~stop]
        if go.size:
            if t + 1 >= horizon:
                raise NumericError("non-stop transition at the step budget boundary")
            states[go, t + 1] = nxt
            log_pb[go, t] = -np.log(space.nparents(nxt))
            cur[go] = nxt
        alive = go
        t += 1
    tb = TrajectoryBatch(states, actions, lengths, log_pf, log_pb, None, explored=epsilon > 0)
    if compute_rewards:
        tb.log_reward = space.log_rewards(tb.terminal_idx())
    return tb


# ---------------------------------------------------------------------------
# log-probability replay (recompute under current parameters)


def replay_log_pf(policy: ForwardPolicy, space: StateSpace, tb: TrajectoryBatch, want_cache: bool = False):
    """Per-trajectory sum of log p_F under the policy's current parameters.

    With want_cache, also returns the per-step selections and softmax rows
    needed to push gradients back without a second forward pass.
    """
    sums = np.zeros(tb.batch_size)
    cache = [] if want_cache else None
    for t in range(tb.horizon):
        sel = np.flatnonzero(t < tb.lengths)
        if sel.size == 0:
            break
        s = tb.states[sel, t]
        a = tb.actions[sel, t]
        rows = space.children_rows(s)
        legal = rows != CHILD_ILLEGAL
        if want_cache:
            logits, bc = policy.logits_rows(space, s, want_cache=True)
        else:
            logits, bc = policy.logits_rows(space, s), None
        logp, p = masked_log_softmax(logits, legal)
        sums[sel] += logp[np.arange(sel.size), a]
        if want_cache:
            cache.append((sel, s, a, p, bc))
    return (sums, cache) if want_cache else sums


def apply_log_pf_grad(policy: ForwardPolicy, space: StateSpace, cache, coeffs: np.ndarray, grad_flat: np.ndarray) -> None:
    """Accumulate sum_k coeffs[k] * d log p_F(tau_k) / d params into grad_flat,
    using the cache from replay_log_pf(want_cache=True)."""
    for sel, s, a, p, bc in cache:
        c = coeffs[sel]
        dl = -p * c[:, None]
        dl[np.arange(sel.size), a] += c
        policy.accumulate_dlogits(space, s, dl, grad_flat, cache=bc)


def replay_log_pb(space: StateSpace, tb: TrajectoryBatch) -> np.ndarray:
    """Uniform-backward log-prob sums recomputed from parent counts."""
    if tb.horizon <= 1:
        return np.zeros(tb.batch_size)
    cols = np.arange(1, tb.horizon)[None, :]
    mask = cols < tb.lengths[:, None]  # non-stop transitions enter states[:, 1:]
    nxt = np.where(mask, tb.states[:, 1:], 0)
    npar = np.where(mask, space.nparents(nxt), 1)
    return -np.log(npar).sum(axis=1)


def action_distribution(policy: ForwardPolicy, space: StateSpace, s: StateKey) -> np.ndarray:
    """Masked-softmax action probabilities at one state (full arity vector,
    exactly 0 on illegal slots)."""
    idx = np.array([space.lookup(s)])
    rows = space.children_rows(idx)
    legal = rows != CHILD_ILLEGAL
    if not legal.any():
        raise MalformedStateError(f"state has no legal transitions: {s!r}")
    _, p = masked_log_softmax(policy.logits_rows(space, idx), legal)
    return p[0]


# ---------------------------------------------------------------------------
# exactly balanced policies from dynamic programming


def balanced_tabular_policy(space: StateSpace, log_r: np.ndarray | None = None) -> TabularPolicy:
    """Tabular policy satisfying trajectory balance exactly under the uniform
    backward policy, built from exact backward-reachability flows.

    With G(s) = [s terminal] R(s) + sum_children G(c) / |parents(c)|, setting
    p_F(c|s) = G(c) / (|parents(c)| G(s)) and p_F(stop|s) = R(s)/G(s) gives
    p_F(tau) = R(x) p_B(tau|x) / G(s0) for every complete trajectory.
    """
    space.require_complete()
    n, arity = space.n_states, space.arity
    if log_r is None:
        log_r = np.full(n, -np.inf)
        term = space.terminal_indices()
        log_r[term] = space.log_rewards(term)
    log_g = np.full(n, -np.inf)
    logits = np.zeros((n, arity))
    for lv in reversed(space.levels()):
        rows = space.children_rows(lv)
        vals = np.full(rows.shape, -np.inf)
        interior = rows >= 0
        stop = rows == CHILD_STOP
        codes = rows[interior]
        vals[interior] = log_g[codes] - np.log(space.nparents(codes))
        vals[stop] = np.broadcast_to(log_r[lv][:, None], rows.shape)[stop]
        m = vals.max(axis=1, keepdims=True)
        log_g[lv] = (m + np.log(np.exp(vals - m).sum(axis=1, keepdims=True)))[:, 0]
        logits[lv] = np.where(vals > -np.inf, vals, 0.0)
    return TabularPolicy(space, logits)


# ---------------------------------------------------------------------------
# snapshot io


def save_snapshot(policy: ForwardPolicy, env: Environment, meta: dict | None = None) -> bytes:
    """Serialize a policy to the text envelope exchanged with the server."""
    doc = {
        "version": SNAPSHOT_VERSION,
        "env_fingerprint": env.fingerprint(),
        "backend": policy.backend,
        "arch": policy.arch_descriptor(),
        "params_b64": base64.b64encode(policy.get_params().astype("<f8").tobytes()).decode(),
        "backward": {"mode": "uniform"},
        "meta": meta or {},
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def load_snapshot(blob: bytes, env: Environment, space: StateSpace | None = None):
    """Deserialize a snapshot against `env`; returns (policy, meta). Only the
    uniform backward policy is supported.

    Pass the environment's enumerated StateSpace to avoid re-enumerating for
    tabular policies.
    """
    try:
        doc = json.loads(blob.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"undecodable snapshot: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(f"unknown snapshot version: {doc.get('version')!r}")
    if doc.get("env_fingerprint") != env.fingerprint():
        raise FingerprintMismatchError(
            f"snapshot fingerprint {doc.get('env_fingerprint')!r} != environment {env.fingerprint()!r}"
        )
    if doc.get("backward", {}).get("mode") != "uniform":
        raise SnapshotError("unsupported backward-policy mode")
    try:
        params = np.frombuffer(base64.b64decode(doc["params_b64"]), dtype="<f8").astype(np.float64)
    except (KeyError, ValueError) as exc:
        raise SnapshotError(f"bad parameter payload: {exc}") from exc
    arch = doc.get("arch", {})
    if doc.get("backend") == "tabular":
        if space is None:
            space = StateSpace.enumerated(env)
        space.require_complete()
        n, a = arch.get("n_states"), arch.get("arity")
        if (n, a) != (space.n_states, space.arity):
            raise SnapshotError(
                f"tabular arch ({n}, {a}) does not match enumeration ({space.n_states}, {space.arity})"
            )
        if params.size != n * a:
            raise SnapshotError("truncated tabular parameter payload")
        policy: ForwardPolicy = TabularPolicy(space, params.reshape(n, a))
    elif doc.get("backend") == "mlp":
        widths = tuple(arch.get("widths", ()))
        spec = MlpSpec(widths, arch.get("negative_slope", 0.01))
        if widths[0] != env.feature_dim or widths[-1] != env.max_arity:
            raise SnapshotError("MLP spec does not fit the environment")
        if params.size != spec.n_params:
            raise SnapshotError("truncated MLP parameter payload")
        policy = MlpPolicy(spec, params)
    else:
        raise SnapshotError(f"unknown backend {doc.get('backend')!r}")
    return policy, doc.get("meta", {})
