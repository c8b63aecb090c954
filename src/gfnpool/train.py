"""Training: the one `fit` loop that clients and the server share (batched
sampling, a loss closure, in-place AdamW over one flat parameter buffer,
metric logging) and its one settings class `FitConfig`, local-client
training on top of it, and the embarrassingly parallel fan-out over clients."""

from __future__ import annotations

import math
import numbers
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import evaluation
from .envs.base import Environment
from .envs.space import DEFAULT_STATE_GUARD, StateSpace
from .errors import EnumerationGuardError, NumericError
from .losses import (
    LossSpec,
    cb_loss_batch,
    db_loss_batch,
    dbc_loss_batch,
    tb_loss_batch,
    vl_loss_batch,
)
from .nn import AdamWState, MlpSpec, ParamGroup, adamw_step, mlp_init
from .policy import ForwardPolicy, MlpPolicy, Steps, TabularPolicy, sample_batch, save_snapshot


def _whole(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


@dataclass(frozen=True)
class FitConfig:
    """Every setting `fit` reads, checked once on construction. A client's
    `TrainConfig` adds its local loss, the server's `AggregateConfig` its
    pooling weights."""

    epochs: int
    batch: int
    seed: int
    epsilon: float = 0.1  # exploration-mixture weight while sampling
    lr: float = 3e-3
    weight_decay: float = 1e-4  # decaying groups only (MLP backends)
    backend: str = "tabular"
    hidden: tuple[int, ...] = (64, 64)
    eval_every: int = 100  # 0 turns the L1 probes off
    eval_mode: str = "exact"  # exact | sampled
    eval_samples: int = 100_000
    state_guard: int = DEFAULT_STATE_GUARD

    def __post_init__(self):
        def need(ok: bool, name: str, what: str) -> None:
            if not ok:
                raise ValueError(f"{name} must be {what}, got {getattr(self, name)!r}")

        need(_whole(self.epochs) and self.epochs >= 1, "epochs", "an integer >= 1")
        need(_whole(self.batch) and self.batch >= 2, "batch", "an integer >= 2 (pair losses halve it)")
        need(_real(self.epsilon) and 0 <= self.epsilon <= 1, "epsilon", "a number in [0, 1]")
        need(_real(self.lr) and self.lr > 0, "lr", "a finite number > 0")
        need(_real(self.weight_decay) and self.weight_decay >= 0, "weight_decay", "a finite number >= 0")
        need(self.backend in ("tabular", "mlp"), "backend", "tabular or mlp")
        sizes = isinstance(self.hidden, tuple) and self.hidden != () and all(_whole(h) and h >= 1 for h in self.hidden)
        need(sizes, "hidden", "a non-empty tuple of integers >= 1")
        need(_whole(self.eval_every) and self.eval_every >= 0, "eval_every", "an integer >= 0 (0 turns the probes off)")
        need(self.eval_mode in ("exact", "sampled"), "eval_mode", "one of the eval modes exact and sampled")
        need(_whole(self.eval_samples) and self.eval_samples >= 1, "eval_samples", "an integer >= 1")
        need(_whole(self.state_guard) and self.state_guard >= 1, "state_guard", "an integer >= 1")


@dataclass(frozen=True)
class TrainConfig(FitConfig):
    """A client's settings: the loop's, and the local balance loss."""

    loss: LossSpec = field(kw_only=True)


@dataclass
class FitResult:
    """A trained policy, frozen into its snapshot, with its metrics rows."""

    snapshot: bytes
    metrics: list[dict]
    policy: ForwardPolicy
    space: StateSpace


@dataclass
class ClientResult:
    ok: bool
    snapshot: bytes | None
    metrics: list[dict] | None
    error: str | None = None


def derive_seed(master_seed: int, k: int) -> int:
    """Deterministic per-client seed, decorrelated from the master seed."""
    return int(np.random.SeedSequence([int(master_seed), int(k)]).generate_state(1)[0])


def build_space(env: Environment, cfg: FitConfig) -> StateSpace:
    """Enumerate when feasible; the tabular backend requires it."""
    try:
        return StateSpace.enumerated(env, cfg.state_guard)
    except EnumerationGuardError:
        if cfg.backend == "tabular":
            raise
        return StateSpace(env, guard=cfg.state_guard)


class Model:
    """One run's trainable blocks as views into one flat parameter buffer:
    the policy, then log Z and the flow when the loss has them, with one
    AdamW group each. The flow is a one-column block of the policy's
    backend. Tabular blocks start at zero; each MLP block draws its weights
    from the start of the init stream. AdamW updates `params` in place, so
    the blocks always hold the current values."""

    def __init__(self, env, space, cfg, init_ss, logz_lr: float | None = None, flow: bool = False):
        tabular = cfg.backend == "tabular"
        decay = 0.0 if tabular else cfg.weight_decay

        def spec(k):
            return MlpSpec((env.feature_dim, *cfg.hidden, k))

        def size(k):
            return TabularPolicy.size(space, k) if tabular else spec(k).n_params

        self.groups = [ParamGroup("policy", size(env.max_arity), weight_decay=decay)]
        if logz_lr is not None:
            self.groups.append(ParamGroup("logz", 1, lr=logz_lr, weight_decay=0.0))
        if flow:
            self.groups.append(ParamGroup("flow", size(1), weight_decay=decay))
        sizes = [g.size for g in self.groups]
        self.params = np.zeros(sum(sizes))
        views = dict(zip([g.name for g in self.groups], np.split(self.params, np.cumsum(sizes)[:-1])))

        def block(view, k):
            if tabular:
                return TabularPolicy(space, k=k, params=view)
            view[:] = mlp_init(spec(k), np.random.default_rng(init_ss))
            return MlpPolicy(spec(k), view)

        self.policy = block(views["policy"], env.max_arity)
        self._logz = views.get("logz")
        self.flow = block(views["flow"], 1) if flow else None

    @property
    def logz(self) -> float:
        return 0.0 if self._logz is None else float(self._logz[0])


def fit(
    env: Environment,
    space: StateSpace,
    cfg: FitConfig,
    loss_fn: Callable[[Model, Steps], tuple[float, dict]],
    *,
    rewards: bool = True,
    target: evaluation.DistributionTable | None = None,
    logz_lr: float | None = None,
    flow: bool = False,
) -> tuple[Model, list[dict]]:
    """The training loop that clients and the server share.

    `cfg` is a client's TrainConfig or the server's AggregateConfig; its
    seed spawns the training, evaluation and initialisation streams. Each
    epoch samples `cfg.batch` trajectories from the mixture of the current
    policy and the uniform one, with weight `cfg.epsilon` on the uniform
    (and terminal rewards only if `rewards`), as one step record, takes
    `loss_fn(model, steps)` -> (loss, gradient per AdamW group name), and
    makes one AdamW step. The loss reads the policy's rows off the record
    instead of replaying the batch. Every `eval_every` epochs (never if 0)
    and at the last one it probes the L1 to `target`, exactly or from
    `eval_samples` draws as `eval_mode` says; without a target it is NaN. A
    target needs a complete space, so every probe runs on one. `logz_lr`
    adds a log Z group and `flow` a state-flow block. Returns the model and
    one metrics row per epoch: the loss, the L1, the epoch's `wall_ms`, and
    the part of it spent in each phase, `sample_ms`, `loss_ms` (loss and
    gradient), `step_ms` (AdamW) and `eval_ms`.
    """
    train_ss, eval_ss, init_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    rng = np.random.default_rng(train_ss)
    eval_rng = np.random.default_rng(eval_ss)
    model = Model(env, space, cfg, init_ss, logz_lr, flow)
    opt = AdamWState(model.groups, lr=cfg.lr, weight_decay=cfg.weight_decay)
    grad = np.empty(opt.n_params)
    probed = cfg.eval_every > 0 and target is not None
    metrics: list[dict] = []
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        steps = sample_batch(model.policy, space, cfg.batch, cfg.epsilon, rng, compute_rewards=rewards, want_steps=True)
        t_sample = time.perf_counter()
        loss, grads = loss_fn(model, steps)
        t_loss = time.perf_counter()
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss at epoch {epoch} (seed {cfg.seed}, env {env.fingerprint()})")
        t_step = time.perf_counter()
        for g, sl in opt.group_slices():
            grad[sl] = grads[g.name]
        adamw_step(opt, model.params, grad)
        t_eval = time.perf_counter()
        l1_val = float("nan")
        if probed and (epoch % cfg.eval_every == 0 or epoch == cfg.epochs):
            if cfg.eval_mode == "sampled":
                approx = evaluation.sampled_pT(model.policy, space, cfg.eval_samples, eval_rng)
            else:
                approx = evaluation.exact_pT(model.policy, space)
            l1_val = evaluation.l1(approx, target)
        t1 = time.perf_counter()
        metrics.append({
            "epoch": epoch, "loss": float(loss), "l1": l1_val, "wall_ms": (t1 - t0) * 1e3,
            "sample_ms": (t_sample - t0) * 1e3, "loss_ms": (t_loss - t_sample) * 1e3,
            "step_ms": (t_eval - t_step) * 1e3, "eval_ms": (t1 - t_eval) * 1e3,
        })
    return model, metrics


def train_local(env: Environment, cfg: TrainConfig, space: StateSpace | None = None) -> FitResult:
    """Train one client's policy on its own reward with the configured local
    loss, delegating the loop to `fit`, and freeze it into a snapshot. L1
    probes compare against the client's normalized reward.

    `space`, if given, is the env's state space or a complete one built for
    another env of the same DAG; training uses its view for `env`.
    """
    space = build_space(env, cfg) if space is None else space.for_env(env)
    target = evaluation.reward_table([env], space) if cfg.eval_every > 0 and space.complete else None
    kind = cfg.loss.kind

    def loss_fn(model, steps):
        if kind == "TB":
            return tb_loss_batch(model.policy, space, steps, model.logz)
        if kind == "CB":
            return cb_loss_batch(model.policy, space, steps)
        if kind == "VL":
            return vl_loss_batch(model.policy, space, steps)
        if kind == "DB":
            return db_loss_batch(model.policy, model.flow, space, steps)
        return dbc_loss_batch(model.policy, space, steps)

    model, metrics = fit(
        env, space, cfg, loss_fn, target=target,
        logz_lr=cfg.loss.logz_lr if kind == "TB" else None, flow=kind == "DB",
    )
    meta = {"loss": kind, "epochs": cfg.epochs, "seed": cfg.seed, "role": "client"}
    snapshot = save_snapshot(model.policy, env, meta=meta)
    return FitResult(snapshot, metrics, model.policy, space)


def _client_worker(job) -> ClientResult:
    env, cfg, space = job
    try:
        res = train_local(env, cfg, space)
        return ClientResult(True, res.snapshot, res.metrics)
    except Exception as exc:  # report per-client, never abort siblings
        return ClientResult(False, None, None, f"{type(exc).__name__}: {exc}")


def enumerate_or_none(env: Environment, guard: int) -> StateSpace | None:
    """The complete space, or None past the guard; a client or sweep cell
    given None builds its own (lazily for MLP) or reports the guard error."""
    try:
        return StateSpace.enumerated(env, guard)
    except EnumerationGuardError:
        return None


def train_clients(
    jobs: list[tuple[Environment, TrainConfig]], parallelism: int = 1, space: StateSpace | None = None
) -> list[ClientResult]:
    """Train every client, fanning out across processes; output order matches
    input order and is byte-identical at any parallelism level.

    In process, the state space is enumerated once per distinct (DAG, guard)
    among the jobs, and each client trains on its own view of it; `space`,
    if given, is a complete space the caller already enumerated, and serves
    the jobs of its DAG and guard. Worker processes enumerate their own: a
    pickled multiset 10x8 space is ~10 MB and takes a third as long to ship
    as to build, so shipping one per job saves little.
    """
    if parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            return list(pool.map(_client_worker, [(env, cfg, None) for env, cfg in jobs]))
    shared: dict[tuple[str, int], StateSpace | None] = {}
    if space is not None:
        space.require_complete()
        shared[(space.env.fingerprint(), space.guard)] = space
    results = []
    for env, cfg in jobs:
        key = (env.fingerprint(), cfg.state_guard)
        if key not in shared:
            shared[key] = enumerate_or_none(env, cfg.state_guard)
        space = shared[key]
        results.append(_client_worker((env, cfg, None if space is None else space.for_env(env))))
    return results


def client_configs(base: TrainConfig, master_seed: int, n: int) -> list[TrainConfig]:
    """Per-client copies of a config with deterministically derived seeds."""
    return [replace(base, seed=derive_seed(master_seed, k)) for k in range(n)]
