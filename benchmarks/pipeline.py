"""Workloads, the inputs each one generates from a seed, and one round of the
three commands a user runs: `train-clients`, `aggregate` and `evaluate`.

The commands run in this process through `gfnpool.cli.main`, exactly as the
`gfnpool` entry point runs them, on a config file this module writes.
"""

from __future__ import annotations

import io
import json
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import exp
from pathlib import Path

import numpy as np
import yaml

from gfnpool import cli, evaluation
from gfnpool.config import RunConfig, load_config
from gfnpool.envs import StateSpace


@dataclass(frozen=True)
class Workload:
    name: str
    env: dict  # the config's env section; the reward parameters are fixed per workload
    clients: int
    backend: str
    train_epochs: int
    agg_epochs: int
    lr: float
    agg_lr: float
    eval_reps: int  # evaluate calls per round, so that the phase lasts seconds
    topk: int
    batch: int = 512


WORKLOADS = {
    wl.name: wl
    for wl in [
        Workload(
            name="multiset-tab",
            env={"kind": "multiset", "multiset": {"dict_size": 10, "target_size": 8, "values_seed": 7}},
            clients=5,
            backend="tabular",
            train_epochs=30,
            agg_epochs=50,
            lr=0.1,
            agg_lr=0.05,
            eval_reps=1,
            topk=800,
        ),
        Workload(
            name="phylo-10c",
            env={
                "kind": "phylo",
                "phylo": {"leaves": 5, "branch_length": 0.1, "mu": 1.0, "gamma": 2.0, "clients": 10},
            },
            clients=10,
            backend="tabular",
            train_epochs=60,
            agg_epochs=150,
            lr=0.04,
            agg_lr=0.02,
            eval_reps=4,
            topk=50,
        ),
        Workload(
            name="sequence-mlp",
            env={"kind": "sequence", "sequence": {"max_len": 6, "num_tokens": 6, "scores_seed": 13}},
            clients=3,
            backend="mlp",
            train_epochs=40,
            agg_epochs=40,
            lr=0.005,
            agg_lr=0.005,
            eval_reps=1,
            topk=800,
        ),
    ]
}

PHYLO_SITES = 500
PHYLO_DATA_SEED = 1


def derive(seed: int, salt: int) -> int:
    """A positive config seed drawn from the workload seed."""
    return int(np.random.SeedSequence([seed, salt]).generate_state(1)[0] % (2**31 - 1)) + 1


def simulate_sites(n_leaves: int, m: int, mu: float, branch: float, rng: np.random.Generator) -> np.ndarray:
    """Jukes-Cantor site columns on a random topology (random joins). The data
    are simulated here and reach the program through `env.phylo.sites_file`,
    so they do not change when the program's own simulator does."""
    trees: list = list(range(n_leaves))
    while len(trees) > 1:
        i, j = sorted(rng.choice(len(trees), size=2, replace=False))
        b, a = trees.pop(j), trees.pop(i)
        trees.append((a, b))
    stay = exp(-mu * branch)
    out = np.zeros((n_leaves, m), dtype=np.int64)

    def down(node, bases):
        bases = np.where(rng.random(m) >= stay, rng.integers(0, 4, size=m), bases)
        if isinstance(node, int):
            out[node] = bases
        else:
            down(node[0], bases)
            down(node[1], bases)

    root = rng.integers(0, 4, size=m)
    down(trees[0][0], root)
    down(trees[0][1], root)
    return out


def write_inputs(wl: Workload, seed: int, rundir: Path) -> Path:
    """Write the run's config (and, for phylo, its site file); return the config
    path. The seed sets the run's training seeds; the rewards stay those of
    the workload, so that quality figures vary only with training noise."""
    rundir.mkdir(parents=True, exist_ok=True)
    env = yaml.safe_load(yaml.safe_dump(wl.env))
    if env["kind"] == "phylo":
        section = env["phylo"]
        rng = np.random.default_rng(np.random.SeedSequence([PHYLO_DATA_SEED]))
        sites = simulate_sites(section["leaves"], PHYLO_SITES, section["mu"], section["branch_length"], rng)
        path = rundir / "sites.txt"
        path.write_text("".join("".join("ACGT"[v] for v in row) + "\n" for row in sites))
        section["sites_file"] = str(path)
    doc = {
        "name": wl.name,
        "seed": derive(seed, 0),
        "out_dir": str(rundir / "out"),
        "env": env,
        "clients": {"n": wl.clients},
        "loss": {"kind": "CB", "epsilon": 0.1, "logz_lr": 0.1},
        "train": {
            "epochs": wl.train_epochs,
            "batch": wl.batch,
            "lr": wl.lr,
            "backend": wl.backend,
            "hidden": [64, 64],
            "eval_every": 0,
        },
        "aggregate": {"epochs": wl.agg_epochs, "batch": wl.batch, "epsilon": 0.5, "lr": wl.agg_lr, "eval_every": 0},
        "eval": {"topk": wl.topk, "samples": 100_000, "sample_budget": 1_000_000},
    }
    path = rundir / "config.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=True))
    return path


# ---------------------------------------------------------------------------
# set-up and one round


@dataclass
class Setup:
    seconds: float
    run: RunConfig
    envs: list
    space: StateSpace
    target: evaluation.DistributionTable


def setup(config: Path) -> Setup:
    """What `aggregate` and `evaluate` each do before their own work: build the
    client envs, enumerate the state space once and normalize the product."""
    t0 = time.perf_counter()
    run = RunConfig(load_config(config), path=str(config))
    envs = run.client_envs()
    space = StateSpace.enumerated(envs[0], run.train_template().state_guard)
    target = evaluation.reward_table(envs, space, run.loss_spec.weights)
    return Setup(time.perf_counter() - t0, run, envs, space, target)


def command(*argv: str) -> tuple[int, float, str]:
    """Run one gfnpool command; return its exit code, wall time and stderr."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, time.perf_counter() - t0, err.getvalue()


@dataclass
class Round:
    clients_s: float
    agg_s: float
    eval_s: list[float]
    attempted: int
    failed: int
    errors: list[str]
    snapshots: list[bytes | None]
    global_snapshot: bytes | None
    report: dict | None

    @property
    def pipeline_s(self) -> float:
        return self.clients_s + self.agg_s + float(np.median(self.eval_s))


def run_round(wl: Workload, config: Path) -> Round:
    """train-clients (serial), aggregate, then evaluate `eval_reps` times.
    Operations: each client training, the aggregation, each evaluate call."""
    out = config.parent / "out" / wl.name  # where the CLI puts this config's outputs
    shutil.rmtree(out, ignore_errors=True)
    cfg = str(config)
    code, clients_s, err = command("train-clients", "--config", cfg, "--parallelism", "1")
    errors = [err] if code else []
    snaps = [p.read_bytes() if p.exists() else None for p in (out / f"client{k}.gfnpolicy" for k in range(wl.clients))]
    failed = sum(s is None for s in snaps)
    code, agg_s, err = command("aggregate", "--config", cfg)
    if code:
        errors.append(err)
        failed += 1
    eval_s = []
    for _ in range(wl.eval_reps):
        code, t, err = command("evaluate", "--config", cfg)
        eval_s.append(t)
        if code:
            errors.append(err)
            failed += 1
    gpath, rpath = out / "global.gfnpolicy", out / "report.json"
    return Round(
        clients_s,
        agg_s,
        eval_s,
        attempted=wl.clients + 1 + wl.eval_reps,
        failed=failed,
        errors=errors,
        snapshots=snaps,
        global_snapshot=gpath.read_bytes() if gpath.exists() else None,
        report=json.loads(rpath.read_text()) if rpath.exists() else None,
    )
