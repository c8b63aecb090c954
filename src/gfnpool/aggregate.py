"""Server side: train a global sampler from frozen client snapshots via the
aggregating-balance criterion on the clients' `fit` loop and `FitConfig`
settings, plus the parameter-averaging and factorized categorical baselines.

`aggregate_ab` receives snapshots, their pooling weights and (optionally) a
precomputed evaluation target. It reads no reward: the AB loss reads the
pooled local log-policy where a client's loss reads log R from the space's
cache. That is the single-communication-round contract: the bytes
exchanged are exactly the snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma

import numpy as np

from . import evaluation
from .envs.base import Environment
from .envs.space import CHILD_ILLEGAL, StateSpace
from .errors import SnapshotError, UnsupportedLossError
from .losses import PooledLocals, ab_loss_batch, pooling_weights
from .policy import (
    ForwardPolicy,
    TabularPolicy,
    load_snapshot,
    read_snapshot,
    save_snapshot,
    snapshot_bytes,
)
from .train import FitConfig, FitResult, build_space, fit


@dataclass(frozen=True)
class AggregateConfig(FitConfig):
    """The server's settings: the loop's, with its own default ε."""

    epsilon: float = 0.5  # half on-policy, half uniform while pairing


def load_local_policies(env: Environment, snapshots: list[bytes], space: StateSpace) -> list[ForwardPolicy]:
    if not snapshots:
        raise SnapshotError("aggregation needs at least one client snapshot")
    return [load_snapshot(blob, env, space)[0] for blob in snapshots]


def aggregate_ab(
    env: Environment,
    snapshots: list[bytes],
    cfg: AggregateConfig,
    eval_target: evaluation.DistributionTable | None = None,
    space: StateSpace | None = None,
    *,
    weights=None,
) -> FitResult:
    """Train a fresh global policy by minimizing the aggregating-balance loss
    over trajectory pairs from the exploration mixture, delegating the loop
    to `fit`. Local rewards are never evaluated: AB asks for none, and
    `eval_target`, if given, only feeds the L1 probes. `space`, if given, is
    the env's state space (or a complete one of the same DAG) and is used
    instead of enumerating again.

    The snapshots are loaded one at a time into one `PooledLocals` table
    with `weights` (one per snapshot, 1 for None), so every epoch reads the
    pooled local log-policy off it instead of replaying each local."""
    space = build_space(env, cfg) if space is None else space.for_env(env)
    if not snapshots:
        raise SnapshotError("aggregation needs at least one client snapshot")
    weights = pooling_weights(weights, len(snapshots))
    pooled = PooledLocals(space)
    for blob, w in zip(snapshots, weights):
        pooled.add(load_snapshot(blob, env, space)[0], w)

    def ab_loss_fn(model, steps):
        return ab_loss_batch(model.policy, space, steps, pooled)

    model, metrics = fit(env, space, cfg, ab_loss_fn, target=eval_target)
    meta = {
        "role": "global",
        "n_locals": len(pooled),
        "weights": weights.tolist(),
        "epochs": cfg.epochs,
        "seed": cfg.seed,
    }
    return FitResult(save_snapshot(model.policy, env, meta=meta), metrics, model.policy, space)


# ---------------------------------------------------------------------------
# single-round parameter averaging baseline


def fedavg_average(snapshots: list[bytes]) -> bytes:
    """Element-wise mean of snapshot parameters (identical architectures
    required). A correctness-free baseline; metadata marks its provenance."""
    if not snapshots:
        raise SnapshotError("nothing to average")
    docs, stacks = zip(*map(read_snapshot, snapshots))
    head = docs[0]
    for d in docs[1:]:
        for key in ("version", "env_fingerprint", "backend", "arch", "backward"):
            if d.get(key) != head.get(key):
                raise SnapshotError(f"snapshot mismatch on {key!r}; cannot average")
    if len({s.size for s in stacks}) != 1:
        raise SnapshotError("parameter payload sizes differ")
    meta = {"baseline": "fedavg", "n_locals": len(docs)}
    return snapshot_bytes({**head, "meta": meta}, np.mean(np.stack(stacks), axis=0))


def naive_policy_product(local_policies: list[ForwardPolicy], space: StateSpace) -> TabularPolicy:
    """Per-state renormalized product of the local action distributions - the
    diagnostic negative control (it does not sample the product target). Its
    logits are the sum of the locals' masked log-softmaxes (the `PooledLocals`
    table with unit weights), 0 on illegal slots."""
    if not local_policies:
        raise ValueError("need at least one policy")
    idx = np.arange(space.n_states)
    legal = space.children_rows(idx) != CHILD_ILLEGAL
    return TabularPolicy(space, np.where(legal, PooledLocals(space, local_policies).rows(idx), 0.0))


# ---------------------------------------------------------------------------
# factorized categorical variational baseline


@dataclass
class PcviParams:
    """Named simplex blocks of a factorized categorical fit."""

    kind: str
    blocks: dict[str, np.ndarray]


def _normalize_block(arr: np.ndarray) -> np.ndarray:
    if arr.ndim == 1:
        return arr / arr.sum()
    return arr / arr.sum(axis=1, keepdims=True)


PCVI_ALPHA = 1.0  # Laplace smoothing count added to every category


def pcvi_fit(policy: ForwardPolicy, space: StateSpace, n_samples: int, rng: np.random.Generator) -> PcviParams:
    """Closed-form fit of the per-environment categorical family to on-policy
    samples (empirical frequencies with Laplace smoothing)."""
    env = space.env
    keys = [space.keys[i] for i in evaluation.sample_terminals(policy, space, n_samples, rng)]
    if env.kind == "grid":
        side = env.side
        cx, cy = np.full(side, PCVI_ALPHA), np.full(side, PCVI_ALPHA)
        for x, y in keys:
            cx[x] += 1
            cy[y] += 1
        return PcviParams("grid", {"x": _normalize_block(cx), "y": _normalize_block(cy)})
    if env.kind == "multiset":
        counts = np.full(env.dict_size, PCVI_ALPHA)
        for c in keys:
            counts += np.asarray(c, dtype=np.float64)
        return PcviParams("multiset", {"items": _normalize_block(counts)})
    if env.kind == "sequence":
        s_max, n_tok = env.max_len, env.num_tokens
        length = np.full(s_max + 1, PCVI_ALPHA)
        toks = {f"tokens_{L}": np.full((L, n_tok), PCVI_ALPHA) for L in range(1, s_max + 1)}
        for seq in keys:
            length[len(seq)] += 1
            if seq:
                block = toks[f"tokens_{len(seq)}"]
                for i, u in enumerate(seq):
                    block[i, u] += 1
        blocks = {"length": _normalize_block(length)}
        blocks.update({name: _normalize_block(b) for name, b in toks.items()})
        return PcviParams("sequence", blocks)
    raise UnsupportedLossError(
        f"no factorized categorical family for {env.kind}; its support is not a product space"
    )


def pcvi_pool(params: list[PcviParams]) -> PcviParams:
    """Element-wise product of matching blocks, renormalized per simplex."""
    if not params:
        raise ValueError("nothing to pool")
    head = params[0]
    for p in params[1:]:
        if p.kind != head.kind or set(p.blocks) != set(head.blocks):
            raise ValueError("PCVI parameter families do not match")
        for name, block in p.blocks.items():
            if block.shape != head.blocks[name].shape:
                raise ValueError(f"block {name!r} shape mismatch")
    out = {}
    for name in head.blocks:
        prod = np.ones_like(head.blocks[name])
        for p in params:
            prod = prod * p.blocks[name]
        out[name] = _normalize_block(prod)
    return PcviParams(head.kind, out)


def pcvi_distribution(params: PcviParams, space: StateSpace) -> evaluation.DistributionTable:
    """Terminal distribution implied by the factorized parameters."""
    env = space.env
    if params.kind != env.kind:
        raise ValueError(f"parameters for {params.kind!r} applied to {env.kind!r}")
    probs = np.zeros(space.n_states)
    term = space.terminal_indices()
    if env.kind == "grid":
        px, py = params.blocks["x"], params.blocks["y"]
        for i in term:
            x, y = space.keys[i]
            probs[i] = px[x] * py[y]
    elif env.kind == "multiset":
        phi = np.log(params.blocks["items"])
        s = env.target_size
        for i in term:
            c = np.asarray(space.keys[i], dtype=np.float64)
            log_coef = lgamma(s + 1) - sum(lgamma(v + 1) for v in c)
            probs[i] = np.exp(log_coef + float(c @ phi))
    else:  # sequence
        theta = params.blocks["length"]
        for i in term:
            seq = space.keys[i]
            q = theta[len(seq)]
            if seq:
                block = params.blocks[f"tokens_{len(seq)}"]
                for pos, u in enumerate(seq):
                    q *= block[pos, u]
            probs[i] = q
    return evaluation.DistributionTable(probs, space, provenance="pcvi")


def pcvi_write(params: PcviParams, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"kind {params.kind}\n")
        for name, block in params.blocks.items():
            shape = "x".join(str(d) for d in block.shape)
            fh.write(f"block {name} {shape}\n")
            fh.write(" ".join(repr(float(v)) for v in block.ravel()) + "\n")
