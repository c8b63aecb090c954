"""Operator surface: config-driven subcommands wiring environments,
training, aggregation, baselines, and evaluation into reproducible runs.

Exit codes: 0 ok, 2 config error, 3 numeric failure, 4 enumeration guard.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import aggregate as agg
from . import evaluation
from .config import RunConfig, apply_overrides, load_config
from .envs import GridEnv, MultisetEnv, StateSpace
from .errors import ConfigError, EnumerationGuardError, GfnError, NumericError
from .losses import LOSS_KINDS, LossSpec, PooledLocals, pooling_weights
from .policy import balanced_tabular_policy, load_snapshot, replay_log_pb, replay_log_pf
from .train import build_space, derive_seed, enumerate_or_none, train_clients, train_local


TIME_COLUMNS = ("wall_ms", "sample_ms", "loss_ms", "step_ms", "eval_ms")


def write_metrics_csv(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "loss", "l1", *TIME_COLUMNS])
        for r in rows:
            l1v = "" if not np.isfinite(r["l1"]) else f"{r['l1']:.6f}"
            w.writerow([r["epoch"], f"{r['loss']:.10g}", l1v, *(f"{r[c]:.3f}" for c in TIME_COLUMNS)])


def _snapshot_path(out: Path, k: int) -> Path:
    return out / f"client{k}.gfnpolicy"


def _read_snapshot(path: Path, source: str) -> bytes:
    """The snapshot's bytes; one that cannot be read is a config error of `source`."""
    try:
        return path.read_bytes()
    except OSError as exc:
        raise ConfigError(source, f"cannot read snapshot {path}: {exc.strerror or exc}") from exc


def _load_run(args) -> RunConfig:
    doc = load_config(args.config)
    if getattr(args, "set", None):
        apply_overrides(doc, args.set)
    return RunConfig(doc, path=args.config)


def _read_manifest(path: Path) -> tuple[list[bytes], list[float]]:
    blobs, raw = [], []
    base = path.parent
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        snap = Path(parts[0])
        if not snap.is_absolute():
            snap = base / snap
        blobs.append(_read_snapshot(snap, str(path)))
        raw.append(parts[1] if len(parts) > 1 else "1.0")
    if not blobs:
        raise ConfigError(str(path), "manifest lists no snapshots")
    return blobs, _parse_weights(str(path), raw, len(blobs))


def _parse_weights(source: str, raw: list[str], n: int) -> list[float]:
    """Pooling weights from text, one per snapshot; a bad one is a config error."""
    try:
        return pooling_weights([float(w) for w in raw], n).tolist()
    except ValueError as exc:
        raise ConfigError(source, str(exc)) from exc


def _probe_target(envs, space, cfg) -> evaluation.DistributionTable | None:
    """The product target, built only when aggregation probes will read it."""
    if cfg.eval_every == 0 or not space.complete:
        return None
    if cfg.weights is not None and len(cfg.weights) != len(envs):
        msg = f"{len(cfg.weights)} weighted snapshots for {len(envs)} clients; set aggregate.eval_every=0 to skip probes"
        raise ConfigError("clients.n", msg)
    return evaluation.reward_table(envs, space, cfg.weights)


# ---------------------------------------------------------------------------
# subcommands


def cmd_train_local(args) -> int:
    run = _load_run(args)
    envs = run.client_envs()
    cfgs = run.client_train_configs()
    k = args.client
    if not 0 <= k < len(envs):
        raise ConfigError("clients.n", f"client index {k} out of range")
    res = train_local(envs[k], cfgs[k])
    out = run.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    _snapshot_path(out, k).write_bytes(res.snapshot)
    write_metrics_csv(out / f"client{k}.metrics.csv", res.metrics)
    print(f"client {k}: snapshot and metrics written to {out}")
    return 0


def cmd_train_clients(args) -> int:
    run = _load_run(args)
    envs = run.client_envs()
    cfgs = run.client_train_configs()
    results = train_clients(list(zip(envs, cfgs, strict=True)), parallelism=args.parallelism)
    out = run.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    failed = []
    manifest_lines = []
    weights = run.loss_spec.weights or [1.0] * len(envs)
    for k, res in enumerate(results):
        if not res.ok:
            failed.append((k, res.error))
            continue
        _snapshot_path(out, k).write_bytes(res.snapshot)
        write_metrics_csv(out / f"client{k}.metrics.csv", res.metrics)
        manifest_lines.append(f"client{k}.gfnpolicy\t{weights[k]!r}")
    (out / "clients.manifest").write_text("\n".join(manifest_lines) + "\n")
    for k, err in failed:
        print(f"client {k} FAILED: {err}", file=sys.stderr)
    print(f"{len(results) - len(failed)}/{len(results)} clients trained; outputs in {out}")
    return 0 if not failed else 3


def cmd_aggregate(args) -> int:
    run = _load_run(args)
    envs = run.client_envs()
    out = run.out_dir()
    manifest = Path(args.manifest) if args.manifest else out / "clients.manifest"
    if not manifest.exists():
        raise ConfigError(str(manifest), "snapshot manifest not found; run train-clients first")
    blobs, weights = _read_manifest(manifest)
    cfg = run.aggregate_config()
    # --weights, else loss.weights, else the manifest's weight column
    if args.weights:
        weights = _parse_weights("--weights", args.weights.split(","), len(blobs))
    elif cfg.weights is not None:
        weights = _parse_weights("loss.weights", cfg.weights, len(blobs))
    # unit weights stay None: a manifest short of failed clients still probes
    # against the product of every configured client's reward
    cfg = replace(cfg, weights=None if all(w == 1.0 for w in weights) else tuple(weights))
    space = build_space(envs[0], cfg)
    target = _probe_target(envs, space, cfg)
    res = agg.aggregate_ab(envs[0], blobs, cfg, eval_target=target, space=space)
    out.mkdir(parents=True, exist_ok=True)
    (out / "global.gfnpolicy").write_bytes(res.snapshot)
    write_metrics_csv(out / "global.metrics.csv", res.metrics)
    final = [r["l1"] for r in res.metrics if np.isfinite(r["l1"])]
    msg = f" final L1 {final[-1]:.4f}" if final else ""
    print(f"global model written to {out}.{msg}")
    return 0


def cmd_evaluate(args) -> int:
    run = _load_run(args)
    envs = run.client_envs()
    out = run.out_dir()
    space = StateSpace.enumerated(envs[0], run.train_template().state_guard)
    # each client's rewards are computed once and feed every figure below
    own = [evaluation.terminal_log_rewards(e, space) for e in envs]
    log_r = evaluation.pooled_log_rewards(space, own, run.loss_spec.weights)
    target = evaluation.target_table(space, log_r)
    report: dict = {
        "experiment": run.name,
        "env_fingerprint": envs[0].fingerprint(),
        "n_clients": len(envs),
        "weights": list(run.loss_spec.weights) if run.loss_spec.weights else [1.0] * len(envs),
        "guards": {"n_states": space.n_states, "exact": space.complete},
        "models": {},
    }
    k = run.eval_topk()
    for name, path in [("global", out / "global.gfnpolicy")] + [
        (f"client{i}", _snapshot_path(out, i)) for i in range(len(envs))
    ]:
        if not path.exists():
            continue
        policy, meta = load_snapshot(path.read_bytes(), envs[0], space)
        table = evaluation.exact_pT(policy, space)
        row = {"provenance": table.provenance, "meta": meta}
        if name.startswith("client"):
            local = evaluation.pooled_log_rewards(space, [own[int(name[6:])]])
            row["l1_local"] = evaluation.l1(table, evaluation.target_table(space, local))
        row["l1"] = evaluation.l1(table, target)
        row["kl"] = evaluation.kl(target, table)
        row["jeffrey"] = evaluation.jeffrey(target, table)
        row[f"top{k}"] = evaluation.topk_avg_log_reward(
            table, space, log_r, k, run.eval_sample_budget()
        )
        report["models"][name] = row
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report["models"].get("global", {}), indent=2, sort_keys=True))
    print(f"report written to {out / 'report.json'}")
    return 0


def cmd_baselines(args) -> int:
    run = _load_run(args)
    envs = run.client_envs()
    out = run.out_dir()
    space = StateSpace.enumerated(envs[0], run.train_template().state_guard)
    target = evaluation.reward_table(envs, space, run.loss_spec.weights)
    blobs = [_read_snapshot(_snapshot_path(out, k), "clients.n") for k in range(len(envs))]
    locals_ = agg.load_local_policies(envs[0], blobs, space)
    report: dict = {"experiment": run.name, "baselines": {}}
    rng = np.random.default_rng(np.random.SeedSequence([run.seed, 424242]))
    # factorized categorical fit, pooled by elementwise product
    if envs[0].kind in ("grid", "multiset", "sequence"):
        fits = [agg.pcvi_fit(p, space, run.eval_samples(), rng) for p in locals_]
        pooled = agg.pcvi_pool(fits)
        agg.pcvi_write(pooled, out / "pcvi.params")
        table = agg.pcvi_distribution(pooled, space)
        report["baselines"]["pcvi"] = {"l1": evaluation.l1(table, target)}
    else:
        report["baselines"]["pcvi"] = {"error": "unsupported for this environment"}
    # single-round parameter averaging
    avg = agg.fedavg_average(blobs)
    (out / "fedavg.gfnpolicy").write_bytes(avg)
    avg_policy, _ = load_snapshot(avg, envs[0], space)
    report["baselines"]["fedavg"] = {
        "l1": evaluation.l1(evaluation.exact_pT(avg_policy, space), target)
    }
    # naive per-state policy product (diagnostic)
    naive = agg.naive_policy_product(locals_, space)
    report["baselines"]["naive_policy_product"] = {
        "l1": evaluation.l1(evaluation.exact_pT(naive, space), target)
    }
    gp = out / "global.gfnpolicy"
    if gp.exists():
        policy, _ = load_snapshot(gp.read_bytes(), envs[0], space)
        report["ep_l1"] = evaluation.l1(evaluation.exact_pT(policy, space), target)
    (out / "baselines.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _pipeline_final_l1(
    run: RunConfig, envs, agg_seed_salt: int = 0, space: StateSpace | None = None
) -> tuple[list[dict], float]:
    """Train clients, aggregate, return aggregation metrics and final L1.
    Both run on one enumeration: `space` if given, else one built here."""
    cfg = run.aggregate_config()
    if agg_seed_salt:
        cfg = replace(cfg, seed=derive_seed(cfg.seed, agg_seed_salt))
    if space is None:
        space = StateSpace.enumerated(envs[0], cfg.state_guard)
    cfgs = run.client_train_configs()
    results = train_clients(list(zip(envs, cfgs, strict=True)), parallelism=1, space=space)
    bad = [r for r in results if not r.ok]
    if bad:
        raise NumericError(f"client failure during sweep: {bad[0].error}")
    target = _probe_target(envs, space, cfg)
    res = agg.aggregate_ab(envs[0], [r.snapshot for r in results], cfg, eval_target=target, space=space)
    finals = [r["l1"] for r in res.metrics if np.isfinite(r["l1"])]
    return res.metrics, finals[-1] if finals else float("nan")


def _check_sweep_values(axis: str, values: list) -> None:
    """Reject a `sweep.values` entry its axis cannot run, before any cell runs."""
    for v in values:
        real = isinstance(v, (int, float)) and not isinstance(v, bool) and bool(np.isfinite(v))
        ok = {
            "clients": real and isinstance(v, int) and v >= 1,
            "logz_lr": real and v > 0,
            "noise": real and v >= 0,  # a variance
            "loss": v in LOSS_KINDS,
        }[axis]
        if not ok:
            raise ConfigError("sweep.values", f"{v!r} is not a valid {axis} value")


def cmd_sweep(args) -> int:
    run = _load_run(args)
    axis = args.axis or run.sweep_axis()
    values = run.sweep_values()
    _check_sweep_values(axis, values)
    seeds = run.sweep_seeds()
    out = run.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    rows: list[list] = []
    errors: dict[str, str] = {}
    # every cell has the same DAG, so one enumeration serves them all, each
    # cell on its own views; past the guard, or if the base run cannot build
    # its clients, each cell builds its own and records its own error
    try:
        space = enumerate_or_none(run.client_envs()[0], run.train_template().state_guard)
    except GfnError:
        space = None
    for value in values:
        for seed in seeds:
            cell = f"{axis}={value},seed={seed}"
            try:
                doc = json.loads(json.dumps(run.doc))  # deep copy
                doc["seed"] = seed
                if axis == "clients":
                    if run.env_kind == "grid":
                        raise ConfigError("sweep.axis", "client sweep needs seeded rewards, not beacon lists")
                    # set the count before RunConfig derives configs and weights from it
                    doc.setdefault("clients", {})["n"] = int(value)
                    if "clients" in doc["env"].get("phylo", {}):
                        doc["env"]["phylo"]["clients"] = int(value)
                cell_run = RunConfig(doc, path=run.path)
                if axis == "clients":
                    metrics, _ = _pipeline_final_l1(cell_run, cell_run.client_envs(), space=space)
                elif axis == "noise":
                    envs = cell_run.client_envs()
                    # the wrap would enumerate under the default guard, not the run's
                    guard = cell_run.aggregate_config().state_guard
                    noise_space = space if space is not None else StateSpace.enumerated(envs[0], guard)
                    noisy = [
                        evaluation.noisy_reward_wrap(
                            e,
                            float(value),
                            np.random.default_rng(np.random.SeedSequence([seed, 55, k])),
                            space=noise_space,
                        )
                        for k, e in enumerate(envs)
                    ]
                    metrics, _ = _pipeline_final_l1(cell_run, noisy, space=noise_space)
                elif axis == "logz_lr":
                    envs = cell_run.client_envs()
                    cfg = cell_run.client_train_configs()[0]
                    cfg = replace(cfg, loss=LossSpec("TB", logz_lr=float(value)))
                    metrics = train_local(envs[0], cfg, space=space).metrics
                else:  # loss
                    envs = cell_run.client_envs()
                    cfg = cell_run.client_train_configs()[0]
                    cfg = replace(cfg, loss=replace(cfg.loss, kind=str(value)))
                    metrics = train_local(envs[0], cfg, space=space).metrics
                for r in metrics:
                    if np.isfinite(r["l1"]):
                        rows.append([axis, value, seed, r["epoch"], f"{r['loss']:.8g}", f"{r['l1']:.6f}"])
            except GfnError as exc:
                errors[cell] = f"{type(exc).__name__}: {exc}"
    with open(out / "sweep.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["axis", "value", "seed", "epoch", "loss", "l1"])
        w.writerows(rows)
    if errors:
        (out / "sweep_errors.json").write_text(json.dumps(errors, indent=2, sort_keys=True) + "\n")
        print(f"{len(errors)} sweep cells failed; see sweep_errors.json", file=sys.stderr)
    print(f"sweep matrix written to {out / 'sweep.csv'} ({len(rows)} rows)")
    return 0


def cmd_identity_checks(args) -> int:
    """Numeric oracles for the theoretical identities, on tiny built-in
    environments; nonzero exit if any deviates."""
    rng = np.random.default_rng(20240 if args.seed is None else args.seed)
    report = {}
    grid = GridEnv(side=2, beacons=((1, 1),))
    gspace = StateSpace.enumerated(grid)
    from .policy import TabularPolicy  # local import to keep CLI deps flat

    policy = TabularPolicy(gspace, rng.normal(0, 1, (gspace.n_states, gspace.arity)))
    report["cb_kl_gradient_max_dev"] = evaluation.cb_kl_gradient_identity_check(policy, gspace)
    mset = MultisetEnv(values=(0.3, -0.2), target_size=2)
    mspace = StateSpace.enumerated(mset)
    mpolicy = TabularPolicy(mspace, rng.normal(0, 1, (mspace.n_states, mspace.arity)))
    report["cb_kl_gradient_max_dev_multiset"] = evaluation.cb_kl_gradient_identity_check(mpolicy, mspace)
    # Jeffrey bound on randomized imperfect clients
    violations = 0
    for trial in range(args.trials):
        envs = [
            MultisetEnv(values=tuple(rng.uniform(0, 1, 3)), target_size=2) for _ in range(2)
        ]
        space = StateSpace.enumerated(envs[0])
        pols = []
        for e in envs:
            base = balanced_tabular_policy(space.for_env(e))
            noisy = base.table + rng.normal(0, 0.3, base.table.shape)
            pols.append(TabularPolicy(space, noisy))
        chk = evaluation.robustness_bound_check(pols, envs, space)
        violations += 0 if chk.holds else 1
    report["jeffrey_bound_trials"] = args.trials
    report["jeffrey_bound_violations"] = violations
    # exact DP vs brute-force trajectory sum
    probe = TabularPolicy(gspace, rng.normal(0, 1, (gspace.n_states, gspace.arity)))
    dp = evaluation.exact_pT(probe, gspace)
    brute = np.zeros(gspace.n_states)
    for tb in evaluation.enumerate_trajectory_batches(gspace):
        np.add.at(brute, tb.terminal_idx(), np.exp(replay_log_pf(probe, gspace, tb)))
    report["dp_vs_bruteforce_max_dev"] = float(np.max(np.abs(dp.p - brute)))
    # weighted effective target: DAG pass vs brute-force trajectory sum
    omega = (0.5, 2.0)
    pols = [TabularPolicy(mspace, rng.normal(0, 1, (mspace.n_states, mspace.arity))) for _ in omega]
    log_mass = np.full(mspace.n_states, -np.inf)
    for tb in evaluation.enumerate_trajectory_batches(mspace):
        pb = replay_log_pb(mspace, tb)
        log_q = pb + sum(w * (replay_log_pf(p, mspace, tb) - pb) for w, p in zip(omega, pols))
        np.logaddexp.at(log_mass, tb.terminal_idx(), log_q)
    eff = evaluation.effective_target(pols, mspace, omega)
    brute_eff = np.exp(log_mass - np.logaddexp.reduce(log_mass))
    report["effective_target_dp_max_dev"] = float(np.max(np.abs(eff.p - brute_eff)))
    # AB is CB with log R replaced by the pooled local ratios
    glob = TabularPolicy(mspace, rng.normal(0, 1, (mspace.n_states, mspace.arity)))
    pooled = PooledLocals(mspace, pols, omega)
    report["ab_kl_gradient_max_dev"] = evaluation.cb_kl_gradient_identity_check(glob, mspace, pooled)
    ok = (
        report["cb_kl_gradient_max_dev"] <= 1e-8
        and report["cb_kl_gradient_max_dev_multiset"] <= 1e-8
        and violations == 0
        and report["dp_vs_bruteforce_max_dev"] <= 1e-10
        and report["effective_target_dp_max_dev"] <= 1e-10
        and report["ab_kl_gradient_max_dev"] <= 1e-8
    )
    report["ok"] = ok
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfnpool",
        description="Train local GFlowNet samplers and pool them into a product sampler in one round.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        if name != "identity-checks":
            p.add_argument("--config", required=True, help="run config YAML")
            p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override dotted config keys")
        return p

    p = add("train-local", cmd_train_local, help="train one client")
    p.add_argument("--client", type=int, required=True)
    p = add("train-clients", cmd_train_clients, help="train every client")
    p.add_argument("--parallelism", type=int, default=1)
    p = add("aggregate", cmd_aggregate, help="train the global model from client snapshots")
    p.add_argument("--manifest", default=None, help="snapshot manifest (default: out dir)")
    p.add_argument("--weights", default=None, help="comma-separated pooling weights")
    add("evaluate", cmd_evaluate, help="score saved models against the product target")
    add("baselines", cmd_baselines, help="PCVI / parameter-averaging / naive-product baselines")
    p = add("sweep", cmd_sweep, help="rerun the pipeline along one axis")
    p.add_argument("--axis", choices=["clients", "logz_lr", "noise", "loss"], default=None)
    p = add("identity-checks", cmd_identity_checks, help="numeric checks of the core identities")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except EnumerationGuardError as exc:
        print(f"enumeration guard: {exc}", file=sys.stderr)
        return 4
    except GfnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
