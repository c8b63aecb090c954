"""Run configuration: YAML schema, validation with dotted key paths, and
construction of client environments and module configs from one file."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

from .aggregate import AggregateConfig
from .envs import (
    Environment,
    GridEnv,
    MultisetEnv,
    PhyloEnv,
    SequenceEnv,
    random_topology,
    read_sites,
    simulate_sites,
    split_sites,
)
from .errors import ConfigError
from .losses import LOSS_KINDS, LossSpec, pooling_weights
from .train import FitConfig, TrainConfig, _real, _whole, client_configs, derive_seed

OUTPUT_ROOT_VAR = "GFNPOOL_OUTPUT_ROOT"

ENV_KINDS = ("grid", "multiset", "sequence", "phylo")

# each sweep axis, and which of its values can run
SWEEP_AXES = {
    "clients": lambda v: _whole(v) and v >= 1,
    "logz_lr": lambda v: _real(v) and v > 0,
    "noise": lambda v: _real(v) and v >= 0,  # a variance
    "loss": lambda v: v in LOSS_KINDS,
}


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(str(path), "config file not found") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(str(path), f"not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(str(path), "config must be a mapping")
    return doc


def apply_overrides(doc: dict, assignments: list[str]) -> dict:
    """Apply `dotted.key=value` overrides (values parsed as YAML scalars)."""
    for item in assignments:
        if "=" not in item:
            raise ConfigError(item, "override must look like dotted.key=value")
        key, raw = item.split("=", 1)
        node = doc
        parts = key.split(".")
        for p in parts[:-1]:
            if node.get(p) is None:  # a section left null takes every default
                node[p] = {}
            node = node[p]
            if not isinstance(node, dict):
                raise ConfigError(key, f"cannot descend through non-mapping at {p!r}")
        node[parts[-1]] = yaml.safe_load(raw)
    return doc


def _get(doc: dict, path: str, default=None, required=False, kind=None):
    node = doc
    for p in path.split("."):
        if not isinstance(node, dict) or p not in node:
            if required:
                raise ConfigError(path, "required key is missing")
            return default
        node = node[p]
    if kind is not None and not isinstance(node, kind):
        raise ConfigError(path, f"expected {kind.__name__}, got {type(node).__name__}")
    return node


def _positive_int(doc, path, default=None, required=False) -> int:
    v = _get(doc, path, default=default, required=required)
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise ConfigError(path, f"expected a positive integer, got {v!r}")
    return v


def _number(doc, path, default=None, required=False) -> float:
    v = _get(doc, path, default=default, required=required)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(path, f"expected a number, got {v!r}")
    return float(v)


FIT_KEYS = frozenset(f.name for f in fields(FitConfig))
# the keys each section reads, the top level's under None; `env` holds `kind` and
# that kind's section, and `train` and `aggregate` are checked as they are read
SECTION_KEYS = {
    None: "name seed out_dir env clients loss train aggregate eval sweep",
    "clients": "n",
    "loss": "kind epsilon logz_lr weights",
    "eval": "topk samples sample_budget",
    "sweep": "axis values seeds",
    "env.grid": "size beacons kappa delta",
    "env.multiset": "dict_size target_size values_seed",
    "env.sequence": "max_len num_tokens scores_seed",
    "env.phylo": "leaves sites sites_file branch_length mu gamma clients data_seed randomized_split",
}


def _section(doc: dict, section: str | None, keys, elsewhere: dict[str, str] | None = None) -> dict:
    """The mapping at `section`, the whole document for None ({} for a missing
    or null section). Every key in it must be one of `keys` and none of
    `elsewhere`, which names the key that sets each field the section may not."""
    node = doc if section is None else _get(doc, section) or {}
    if not isinstance(node, dict):
        raise ConfigError(section, f"expected dict, got {type(node).__name__}")
    for key in node:
        path = key if section is None else f"{section}.{key}"
        if elsewhere and key in elsewhere:
            raise ConfigError(path, f"not read here; it comes from {elsewhere[key]}")
        if key not in keys:
            raise ConfigError(path, "unknown key")
    return node


@dataclass
class RunConfig:
    """Validated view over one experiment's YAML document."""

    doc: dict
    path: str = "<memory>"

    def __post_init__(self):
        for section, keys in SECTION_KEYS.items():
            _section(self.doc, section, keys.split())
        self.name = _get(self.doc, "name", required=True, kind=str)
        self.seed = _positive_int(self.doc, "seed", required=True)
        kind = _get(self.doc, "env.kind", required=True, kind=str)
        if kind not in ENV_KINDS:
            raise ConfigError("env.kind", f"expected one of {ENV_KINDS}, got {kind!r}")
        _section(self.doc, "env", ("kind", kind))  # another kind's section is unread
        self.env_kind = kind
        self.n_clients = self._resolve_n_clients()
        self.loss_spec = self._loss_spec()
        # construct eagerly so schema errors surface before any work starts
        self.train_template()
        self.aggregate_config()
        budget, k = self.eval_sample_budget(), self.eval_topk()
        if budget < k:  # the top-k statistic fills k slots from the budget's draws
            raise ConfigError("eval.sample_budget", f"must be at least eval.topk ({k}), got {budget}")

    # -- sections ----------------------------------------------------------

    def _resolve_n_clients(self) -> int:
        n = _get(self.doc, "clients.n")
        if self.env_kind == "phylo":
            pn = _get(self.doc, "env.phylo.clients")
            if n is None and pn is None:
                raise ConfigError("clients.n", "client count missing (or set env.phylo.clients)")
            if pn is not None and not (_whole(pn) and pn >= 1):
                raise ConfigError("env.phylo.clients", f"expected a positive integer, got {pn!r}")
            if n is not None and pn is not None and n != pn:
                raise ConfigError("env.phylo.clients", f"disagrees with clients.n ({pn} != {n})")
            n = n if n is not None else pn
        if self.env_kind == "grid" and n is None:
            beacons = _get(self.doc, "env.grid.beacons", kind=list)
            n = len(beacons) if beacons else None
        if not (_whole(n) and n >= 1):  # `_whole` turns away YAML's booleans
            raise ConfigError("clients.n", f"expected a positive integer, got {n!r}")
        return n

    def _loss_spec(self) -> LossSpec:
        k = _get(self.doc, "loss.kind", default="CB", kind=str)
        if k not in LOSS_KINDS:
            raise ConfigError("loss.kind", f"expected one of {LOSS_KINDS}, got {k!r}")
        weights = _get(self.doc, "loss.weights")
        if weights is not None:
            try:
                weights = tuple(pooling_weights(weights, self.n_clients).tolist())
            except ValueError as exc:
                raise ConfigError("loss.weights", str(exc)) from exc
        try:
            return LossSpec(
                kind=k,
                logz_lr=_number(self.doc, "loss.logz_lr", default=1e-1),
                weights=weights,
            )
        except ValueError as exc:
            raise ConfigError("loss", str(exc)) from exc

    def _fit_config(self, section: str, cls, fallback: dict, given: dict[str, tuple[str, object]], unread=None):
        """The `train` or `aggregate` section as a `cls`, one of the two
        FitConfigs, which checks every value. A field the section leaves out
        takes its `fallback` value, then the dataclass default. `given` maps
        each field that comes from elsewhere to the key that sets it and its
        value; the section may not set it, nor a key of `unread` (no field,
        mapped to the key that sets it). An empty section (YAML null) takes
        every default."""
        elsewhere = {k: where for k, (where, _) in given.items()} | (unread or {})
        node = _section(self.doc, section, FIT_KEYS, elsewhere)
        kw = {"epochs": 5000, "batch": 512, **fallback, **{k: v for k, (_, v) in given.items()}, **node}
        if isinstance(kw.get("hidden"), list):
            kw["hidden"] = tuple(kw["hidden"])
        try:
            return cls(**kw)
        except ValueError as exc:
            raise ConfigError(section, str(exc)) from exc

    def train_template(self) -> TrainConfig:
        """The clients' settings. Their exploration weight is `loss.epsilon`,
        checked once the `train` section has passed."""
        given = {"seed": ("seed", self.seed), "loss": ("loss", self.loss_spec), "epsilon": ("loss.epsilon", 0.1)}
        t = self._fit_config("train", TrainConfig, {}, given)
        try:
            return replace(t, epsilon=_get(self.doc, "loss.epsilon", default=0.1))
        except ValueError as exc:
            raise ConfigError("loss.epsilon", str(exc)) from exc

    def client_train_configs(self) -> list[TrainConfig]:
        return client_configs(self.train_template(), self.seed, self.n_clients)

    def aggregate_config(self) -> AggregateConfig:
        """The server's settings. Its backend and hidden sizes default to the
        clients', and it keeps their state guard. `aggregate_ab` takes ω apart."""
        t = self.train_template()
        given = {
            "seed": ("seed", derive_seed(self.seed, 1_000_003)),
            "state_guard": ("train.state_guard", t.state_guard),
        }
        fallback = {"backend": t.backend, "hidden": t.hidden}
        return self._fit_config("aggregate", AggregateConfig, fallback, given, {"weights": "loss.weights"})

    # -- environments --------------------------------------------------------

    def client_envs(self) -> list[Environment]:
        n = self.n_clients
        kind = self.env_kind
        if kind == "grid":
            return self._grid_envs(n)
        if kind == "multiset":
            return self._multiset_envs(n)
        if kind == "sequence":
            return self._sequence_envs(n)
        return self._phylo_envs(n)

    def _grid_envs(self, n: int) -> list[Environment]:
        d = self.doc
        side = _positive_int(d, "env.grid.size", required=True)
        beacons = _get(d, "env.grid.beacons", required=True, kind=list)
        if len(beacons) != n:
            raise ConfigError("env.grid.beacons", f"expected {n} per-client beacon lists, got {len(beacons)}")
        kappa = _number(d, "env.grid.kappa", default=1.0)
        delta = _number(d, "env.grid.delta", default=2.0)
        out = []
        for k, lst in enumerate(beacons):
            if not isinstance(lst, list) or not lst:
                raise ConfigError(f"env.grid.beacons[{k}]", "expected a non-empty coordinate list")
            try:
                coords = tuple((int(x), int(y)) for x, y in lst)
                out.append(GridEnv(side=side, beacons=coords, kappa=kappa, delta=delta))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"env.grid.beacons[{k}]", str(exc)) from exc
        return out

    def _multiset_envs(self, n: int) -> list[Environment]:
        d = self.doc
        size = _positive_int(d, "env.multiset.dict_size", required=True)
        target = _positive_int(d, "env.multiset.target_size", required=True)
        seed = _positive_int(d, "env.multiset.values_seed", required=True)
        out = []
        for k in range(n):
            gen = np.random.default_rng(np.random.SeedSequence([seed, k]))
            out.append(MultisetEnv(values=tuple(gen.uniform(0.0, 1.0, size)), target_size=target))
        return out

    def _sequence_envs(self, n: int) -> list[Environment]:
        d = self.doc
        max_len = _positive_int(d, "env.sequence.max_len", required=True)
        num_tokens = _positive_int(d, "env.sequence.num_tokens", required=True)
        seed = _positive_int(d, "env.sequence.scores_seed", required=True)
        out = []
        for k in range(n):
            gen = np.random.default_rng(np.random.SeedSequence([seed, k]))
            out.append(
                SequenceEnv(
                    pos_scores=tuple(gen.uniform(0.0, 1.0, max_len)),
                    token_scores=tuple(gen.uniform(-1.0, 1.0, num_tokens)),
                )
            )
        return out

    def phylo_full_env(self) -> PhyloEnv:
        d = self.doc
        leaves = _positive_int(d, "env.phylo.leaves", required=True)
        mu = _number(d, "env.phylo.mu", default=1.0)
        b = _number(d, "env.phylo.branch_length", default=0.1)
        gamma = _number(d, "env.phylo.gamma", default=2.0)
        sites_file = _get(d, "env.phylo.sites_file")
        if sites_file:
            if not isinstance(sites_file, str):
                raise ConfigError("env.phylo.sites_file", f"expected a path, got {sites_file!r}")
            try:
                sites = read_sites(sites_file)
            except (OSError, ValueError) as exc:
                raise ConfigError("env.phylo.sites_file", f"{sites_file}: {exc}") from exc
            if sites.shape[0] != leaves:
                raise ConfigError("env.phylo.sites_file", f"{sites.shape[0]} rows for {leaves} leaves")
        else:
            m = _positive_int(d, "env.phylo.sites", required=True)
            data_seed = _positive_int(d, "env.phylo.data_seed", default=1)
            gen = np.random.default_rng(np.random.SeedSequence([data_seed]))
            truth = random_topology(leaves, gen)
            sites = simulate_sites(truth, leaves, m, mu, b, gen)
        try:
            return PhyloEnv(n_leaves=leaves, sites=sites, branch_length=b, mu=mu, gamma=gamma, n_clients=1)
        except ValueError as exc:
            raise ConfigError("env.phylo", str(exc)) from exc

    def _phylo_envs(self, n: int) -> list[Environment]:
        full = self.phylo_full_env()
        randomized = bool(_get(self.doc, "env.phylo.randomized_split", default=False))
        gen = np.random.default_rng(
            np.random.SeedSequence([_positive_int(self.doc, "env.phylo.data_seed", default=1), 777])
        )
        return split_sites(full, n, randomized=randomized, rng=gen if randomized else None)

    # -- output --------------------------------------------------------------

    def out_dir(self) -> Path:
        root = _get(self.doc, "out_dir") or os.environ.get(OUTPUT_ROOT_VAR, "out")
        return Path(root) / self.name

    # -- eval section ----------------------------------------------------------

    def eval_topk(self) -> int:
        return _positive_int(self.doc, "eval.topk", default=800)

    def eval_samples(self) -> int:
        return _positive_int(self.doc, "eval.samples", default=100_000)

    def eval_sample_budget(self) -> int:
        return _positive_int(self.doc, "eval.sample_budget", default=1_000_000)

    def sweep_axis(self) -> str:
        axis = _get(self.doc, "sweep.axis", required=True, kind=str)
        if axis not in SWEEP_AXES:
            raise ConfigError("sweep.axis", f"unknown sweep axis {axis!r}")
        return axis

    def sweep_values(self) -> list:
        vals = _get(self.doc, "sweep.values", required=True, kind=list)
        if not vals:
            raise ConfigError("sweep.values", "expected a non-empty list")
        return vals

    def sweep_seeds(self) -> list[int]:
        seeds = _get(self.doc, "sweep.seeds", default=[self.seed], kind=list)
        if not all(_whole(s) and s >= 1 for s in seeds):
            raise ConfigError("sweep.seeds", "expected positive integers")
        return seeds
