"""Local-client training: batched sampling, loss gradients, AdamW updates,
metric logging, and the embarrassingly parallel fan-out over clients."""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import evaluation
from .envs.base import Environment
from .envs.space import DEFAULT_STATE_GUARD, StateSpace
from .errors import EnumerationGuardError, NumericError
from .losses import (
    LossSpec,
    MlpFlow,
    TabularFlow,
    cb_loss_batch,
    db_loss_batch,
    dbc_loss_batch,
    tb_loss_batch,
    vl_loss_batch,
)
from .nn import AdamWState, ParamGroup, adamw_step
from .policy import MlpPolicy, TabularPolicy, sample_batch, save_snapshot

LOCAL_LOSS_KINDS = ("TB", "DB", "DBC", "CB", "VL")


@dataclass(frozen=True)
class TrainConfig:
    loss: LossSpec
    epochs: int
    batch: int
    seed: int
    lr: float = 3e-3
    weight_decay: float = 1e-4  # decaying groups only (MLP backends)
    backend: str = "tabular"
    hidden: tuple[int, ...] = (64, 64)
    eval_every: int = 100  # 0 disables periodic probes
    eval_mode: str = "auto"  # auto | exact | sampled | off
    eval_samples: int = 100_000
    clip_norm: float | None = None
    state_guard: int = DEFAULT_STATE_GUARD

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch < 2:
            raise ValueError("batch must be >= 2 (pair losses halve it)")
        if self.backend not in ("tabular", "mlp"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.eval_mode not in ("auto", "exact", "sampled", "off"):
            raise ValueError(f"unknown eval mode {self.eval_mode!r}")
        if self.loss.kind not in LOCAL_LOSS_KINDS:
            raise ValueError(f"local training supports {LOCAL_LOSS_KINDS}, not {self.loss.kind}")


@dataclass
class TrainResult:
    snapshot: bytes
    metrics: list[dict]
    policy: object
    space: StateSpace
    logz: float


@dataclass
class ClientResult:
    ok: bool
    snapshot: bytes | None
    metrics: list[dict] | None
    error: str | None = None


def derive_seed(master_seed: int, k: int) -> int:
    """Deterministic per-client seed, decorrelated from the master seed."""
    return int(np.random.SeedSequence([int(master_seed), int(k)]).generate_state(1)[0])


def build_space(env: Environment, cfg) -> StateSpace:
    """Enumerate when feasible; the tabular backend requires it. `cfg` is a
    TrainConfig or an AggregateConfig."""
    try:
        return StateSpace.enumerated(env, cfg.state_guard)
    except EnumerationGuardError:
        if cfg.backend == "tabular":
            raise
        return StateSpace(env, guard=cfg.state_guard)


def _make_policy(env, space, cfg: TrainConfig, rng: np.random.Generator):
    if cfg.backend == "tabular":
        return TabularPolicy(space)
    return MlpPolicy.create(env, cfg.hidden, rng)


def _make_flow(env, space, cfg: TrainConfig, rng: np.random.Generator):
    if cfg.backend == "tabular":
        return TabularFlow(space)
    return MlpFlow.create(env, cfg.hidden, rng)


class _Optimizer:
    """Flat-vector AdamW over the trainable blocks of one model."""

    def __init__(self, policy, logz_used: bool, flow, cfg: TrainConfig):
        self.policy = policy
        self.flow = flow
        self.logz_used = logz_used
        groups = [
            ParamGroup(
                "policy",
                policy.n_params,
                weight_decay=0.0 if policy.no_decay else cfg.weight_decay,
            )
        ]
        if logz_used:
            groups.append(ParamGroup("logz", 1, lr=cfg.loss.logz_lr, weight_decay=0.0))
        if flow is not None:
            groups.append(
                ParamGroup(
                    "flow",
                    flow.n_params,
                    weight_decay=0.0 if flow.no_decay else cfg.weight_decay,
                )
            )
        self.state = AdamWState(groups, lr=cfg.lr, weight_decay=cfg.weight_decay, clip_norm=cfg.clip_norm)

    def pack(self, logz: float) -> np.ndarray:
        parts = [self.policy.get_params()]
        if self.logz_used:
            parts.append(np.array([logz]))
        if self.flow is not None:
            parts.append(self.flow.get_params())
        return np.concatenate(parts)

    def pack_grads(self, grads: dict) -> np.ndarray:
        parts = [grads["policy"]]
        if self.logz_used:
            parts.append(np.array([grads.get("logz", 0.0)]))
        if self.flow is not None:
            parts.append(grads["flow"])
        return np.concatenate(parts)

    def step(self, logz: float, grads: dict) -> float:
        flat = adamw_step(self.state, self.pack(logz), self.pack_grads(grads))
        n = self.policy.n_params
        self.policy.set_params(flat[:n])
        if self.logz_used:
            logz = float(flat[n])
            n += 1
        if self.flow is not None:
            self.flow.set_params(flat[n:])
        return logz


def _probe_l1(policy, space, target, mode, samples, rng) -> float:
    if target is None or mode == "off":
        return float("nan")
    if mode == "sampled" or (mode == "auto" and not space.complete):
        if not space.complete:
            return float("nan")
        approx = evaluation.sampled_pT(policy, space, samples, rng)
    else:
        approx = evaluation.exact_pT(policy, space)
    return evaluation.l1(approx, target)


def train_local(env: Environment, cfg: TrainConfig, space: StateSpace | None = None) -> TrainResult:
    """Run the stated number of epochs of sample -> loss -> AdamW on one
    client's reward, probing L1 against the normalized reward on the
    configured cadence, and freeze the resulting policy into a snapshot.

    `space`, if given, is the env's state space or a complete one built for
    another env of the same DAG; training uses its view for `env`.
    """
    train_ss, eval_ss, init_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    rng = np.random.default_rng(train_ss)
    eval_rng = np.random.default_rng(eval_ss)
    space = build_space(env, cfg) if space is None else space.for_env(env)
    policy = _make_policy(env, space, cfg, np.random.default_rng(init_ss))
    flow = _make_flow(env, space, cfg, np.random.default_rng(init_ss)) if cfg.loss.kind == "DB" else None
    logz = 0.0
    opt = _Optimizer(policy, cfg.loss.kind == "TB", flow, cfg)
    probed = cfg.eval_every > 0 and cfg.eval_mode != "off" and space.complete
    target = evaluation.reward_table([env], space) if probed else None
    half = cfg.batch // 2
    metrics: list[dict] = []
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        tb = sample_batch(policy, space, cfg.batch, cfg.loss.epsilon, rng)
        kind = cfg.loss.kind
        if kind == "TB":
            loss, grads = tb_loss_batch(policy, space, tb, logz)
        elif kind == "CB":
            loss, grads = cb_loss_batch(
                policy, space, tb.subset(slice(0, half)), tb.subset(slice(half, 2 * half))
            )
        elif kind == "VL":
            loss, grads = vl_loss_batch(policy, space, tb)
        elif kind == "DB":
            loss, grads = db_loss_batch(policy, flow, space, tb)
        else:  # DBC
            loss, grads = dbc_loss_batch(policy, space, tb)
        if not np.isfinite(loss):
            raise NumericError(
                f"non-finite {kind} loss at epoch {epoch} (seed {cfg.seed}, env {env.fingerprint()})"
            )
        logz = opt.step(logz, grads)
        l1_val = float("nan")
        if cfg.eval_every and (epoch % cfg.eval_every == 0 or epoch == cfg.epochs):
            l1_val = _probe_l1(policy, space, target, cfg.eval_mode, cfg.eval_samples, eval_rng)
        metrics.append(
            {
                "epoch": epoch,
                "loss": float(loss),
                "l1": l1_val,
                "wall_ms": (time.perf_counter() - t0) * 1e3,
            }
        )
    meta = {"loss": cfg.loss.kind, "epochs": cfg.epochs, "seed": cfg.seed, "role": "client"}
    snapshot = save_snapshot(policy, env, meta=meta)
    return TrainResult(snapshot, metrics, policy, space, logz)


def _client_worker(job) -> ClientResult:
    env, cfg, space = job
    try:
        res = train_local(env, cfg, space)
        return ClientResult(True, res.snapshot, res.metrics)
    except Exception as exc:  # report per-client, never abort siblings
        return ClientResult(False, None, None, f"{type(exc).__name__}: {exc}")


def _enumerate_or_none(env: Environment, guard: int) -> StateSpace | None:
    """The complete space, or None past the guard; each client then builds
    its own (lazily for MLP) or reports the guard error."""
    try:
        return StateSpace.enumerated(env, guard)
    except EnumerationGuardError:
        return None


def train_clients(jobs: list[tuple[Environment, TrainConfig]], parallelism: int = 1) -> list[ClientResult]:
    """Train every client, fanning out across processes; output order matches
    input order and is byte-identical at any parallelism level.

    In process, the state space is enumerated once per distinct (DAG, guard)
    among the jobs, and each client trains on its own view of it. Worker
    processes enumerate their own: a pickled multiset 10x8 space is ~10 MB
    and takes a third as long to ship as to build, so shipping one per job
    saves little.
    """
    if parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            return list(pool.map(_client_worker, [(env, cfg, None) for env, cfg in jobs]))
    shared: dict[tuple[str, int], StateSpace | None] = {}
    results = []
    for env, cfg in jobs:
        key = (env.fingerprint(), cfg.state_guard)
        if key not in shared:
            shared[key] = _enumerate_or_none(env, cfg.state_guard)
        space = shared[key]
        results.append(_client_worker((env, cfg, None if space is None else space.for_env(env))))
    return results


def client_configs(base: TrainConfig, master_seed: int, n: int) -> list[TrainConfig]:
    """Per-client copies of a config with deterministically derived seeds."""
    return [replace(base, seed=derive_seed(master_seed, k)) for k in range(n)]


# ---------------------------------------------------------------------------
# loss-criterion comparison harness


def epochs_to_threshold(metrics: list[dict], threshold: float) -> int | None:
    """First epoch whose probed L1 is at or below the threshold."""
    for row in metrics:
        if np.isfinite(row["l1"]) and row["l1"] <= threshold:
            return row["epoch"]
    return None


def loss_comparison(
    env: Environment,
    base: TrainConfig,
    kinds: tuple[str, ...],
    seeds: tuple[int, ...],
    threshold: float = 0.3,
) -> dict[str, list[int | None]]:
    """Train one model per (loss kind, seed) under otherwise equal settings
    and report epochs-to-threshold per seed."""
    out: dict[str, list[int | None]] = {}
    space = _enumerate_or_none(env, base.state_guard)
    for kind in kinds:
        rows = []
        for seed in seeds:
            cfg = replace(base, loss=replace(base.loss, kind=kind), seed=seed)
            res = train_local(env, cfg, space)
            rows.append(epochs_to_threshold(res.metrics, threshold))
        out[kind] = rows
    return out
