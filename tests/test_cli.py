import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import gfnpool.aggregate as agg_module
import gfnpool.cli as cli_module
from gfnpool import evaluation
from gfnpool.cli import main
from gfnpool.config import RunConfig, apply_overrides, load_config
from gfnpool.envs import DEFAULT_STATE_GUARD, MultisetEnv, StateSpace
from gfnpool.errors import ConfigError

TINY_GRID = {
    "name": "tiny",
    "seed": 3,
    "env": {
        "kind": "grid",
        "grid": {"size": 3, "beacons": [[[1, 1]], [[2, 0]]]},
    },
    "clients": {"n": 2},
    "loss": {"kind": "CB", "epsilon": 0.1},
    "train": {"epochs": 200, "batch": 64, "eval_every": 100},
    "aggregate": {"epochs": 300, "batch": 64, "eval_every": 100},
    "eval": {"topk": 5, "samples": 2000, "sample_budget": 100000},
}

TINY_MULTISET = {
    "name": "tinymset",
    "seed": 5,
    "env": {
        "kind": "multiset",
        "multiset": {"dict_size": 3, "target_size": 2, "values_seed": 7},
    },
    "clients": {"n": 2},
    "loss": {"kind": "CB", "epsilon": 0.1},
    "train": {"epochs": 150, "batch": 64, "eval_every": 50},
    "aggregate": {"epochs": 150, "batch": 64, "eval_every": 50},
}


@pytest.fixture
def outroot(tmp_path, monkeypatch):
    monkeypatch.setenv("GFNPOOL_OUTPUT_ROOT", str(tmp_path / "out"))
    return tmp_path


def write_cfg(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def read_csv_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_schema_error_names_key(outroot, capsys):
    for kind in ("nonsense", "AB"):  # AB is trained by aggregate, never by a client
        doc = json.loads(json.dumps(TINY_GRID))
        doc["loss"]["kind"] = kind
        rc = main(["train-local", "--config", write_cfg(outroot, doc), "--client", "0"])
        assert rc == 2
        assert "loss.kind" in capsys.readouterr().err


def test_train_local_smoke_and_determinism(outroot):
    cfg = write_cfg(outroot, TINY_GRID)
    assert main(["train-local", "--config", cfg, "--client", "0"]) == 0
    out = outroot / "out" / "tiny"
    snap = (out / "client0.gfnpolicy").read_bytes()
    rows = read_csv_rows(out / "client0.metrics.csv")
    assert len(rows) == 200
    assert list(rows[0]) == ["epoch", "loss", "l1", "wall_ms", "sample_ms", "loss_ms", "step_ms", "eval_ms"]
    assert main(["train-local", "--config", cfg, "--client", "0"]) == 0
    assert (out / "client0.gfnpolicy").read_bytes() == snap
    rows2 = read_csv_rows(out / "client0.metrics.csv")
    # identical modulo the time columns
    strip = lambda rs: [(r["epoch"], r["loss"], r["l1"]) for r in rs]
    assert strip(rows) == strip(rows2)


def test_override_changes_epochs(outroot):
    cfg = write_cfg(outroot, TINY_GRID)
    assert main(["train-local", "--config", cfg, "--client", "1", "--set", "train.epochs=73"]) == 0
    rows = read_csv_rows(outroot / "out" / "tiny" / "client1.metrics.csv")
    assert len(rows) == 73


def test_full_pipeline_and_reports(outroot):
    cfg = write_cfg(outroot, TINY_GRID)
    assert main(["train-clients", "--config", cfg, "--parallelism", "2"]) == 0
    out = outroot / "out" / "tiny"
    manifest = (out / "clients.manifest").read_text().splitlines()
    assert len(manifest) == 2
    assert main(["aggregate", "--config", cfg]) == 0
    assert (out / "global.gfnpolicy").exists()
    assert main(["evaluate", "--config", cfg]) == 0
    report = json.loads((out / "report.json").read_text())
    assert {"global", "client0", "client1"} <= set(report["models"])
    assert 0 <= report["models"]["global"]["l1"] <= 2.0
    assert "top5" in report["models"]["global"]
    assert main(["baselines", "--config", cfg]) == 0
    base = json.loads((out / "baselines.json").read_text())
    assert {"pcvi", "fedavg", "naive_policy_product"} <= set(base["baselines"])
    assert (out / "pcvi.params").exists() and (out / "fedavg.gfnpolicy").exists()


def test_aggregate_without_manifest_is_config_error(outroot, capsys):
    cfg = write_cfg(outroot, TINY_GRID)
    assert main(["aggregate", "--config", cfg]) == 2
    assert "manifest" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad",
    [
        "--weights=1,2,3",
        "--weights=abc,1",
        "--weights=-1,1",
        "--weights=0,1",
        "--weights=nan,1",
        "--weights=inf,1",
        "--set=loss.weights=[.inf, 1.0]",
    ],
    ids=["count", "abc", "negative", "zero", "nan", "inf", "config-inf"],
)
def test_weights_flag_must_match_count(outroot, capsys, bad):
    cfg = write_cfg(outroot, TINY_GRID)
    main(["train-clients", "--config", cfg])
    capsys.readouterr()
    assert main(["aggregate", "--config", cfg, bad]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["abc", "-1", "0", "nan", "inf"])
def test_manifest_weights_must_be_positive_and_finite(outroot, capsys, bad):
    cfg = write_cfg(outroot, TINY_GRID)
    assert main(["train-clients", "--config", cfg, "--set", "train.epochs=5"]) == 0
    manifest = outroot / "out" / "tiny" / "bad.manifest"
    manifest.write_text(f"client0.gfnpolicy\t{bad}\nclient1.gfnpolicy\t1.0\n")
    capsys.readouterr()
    assert main(["aggregate", "--config", cfg, "--manifest", str(manifest)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["nosuch.gfnpolicy", "."], ids=["missing", "directory"])
def test_manifest_snapshots_must_be_readable(outroot, capsys, entry):
    cfg = write_cfg(outroot, TINY_GRID)
    assert main(["train-clients", "--config", cfg, "--set", "train.epochs=5"]) == 0
    manifest = outroot / "out" / "tiny" / "bad.manifest"
    manifest.write_text(f"client0.gfnpolicy\t1.0\n{entry}\t1.0\n")
    capsys.readouterr()
    assert main(["aggregate", "--config", cfg, "--manifest", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "bad.manifest" in err


def test_aggregate_of_a_version_1_snapshot_is_a_snapshot_error(outroot, capsys):
    cfg = write_cfg(outroot, TINY_GRID)
    assert main(["train-clients", "--config", cfg, "--set", "train.epochs=5"]) == 0
    path = outroot / "out" / "tiny" / "client1.gfnpolicy"
    path.write_bytes(path.read_bytes().replace(b'"version":2', b'"version":1'))
    capsys.readouterr()
    assert main(["aggregate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "version 1" in err and "version 2" in err


def test_baselines_with_a_missing_client_snapshot_is_config_error(outroot, capsys):
    # a partial train-clients leaves one snapshot of two
    cfg = write_cfg(outroot, TINY_GRID)
    assert main(["train-clients", "--config", cfg, "--set", "train.epochs=5"]) == 0
    (outroot / "out" / "tiny" / "client1.gfnpolicy").unlink()
    capsys.readouterr()
    assert main(["baselines", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "client1.gfnpolicy" in err


def test_config_weights_must_match_manifest(outroot, capsys):
    cfg = write_cfg(outroot, TINY_GRID)
    assert main(["train-clients", "--config", cfg, "--set", "train.epochs=5"]) == 0
    manifest = outroot / "out" / "tiny" / "one.manifest"
    manifest.write_text("client0.gfnpolicy\t1.0\n")  # as if client 1 had failed
    capsys.readouterr()
    argv = ["aggregate", "--config", cfg, "--manifest", str(manifest), "--set", "loss.weights=[1.0, 2.0]"]
    assert main(argv) == 2
    assert "loss.weights" in capsys.readouterr().err


def test_short_manifest_aggregates_with_default_weights(outroot, capsys):
    # a manifest short of a failed client still aggregates and probes
    cfg = write_cfg(outroot, TINY_GRID)
    assert main(["train-clients", "--config", cfg, "--set", "train.epochs=5"]) == 0
    manifest = outroot / "out" / "tiny" / "one.manifest"
    manifest.write_text("client0.gfnpolicy\t1.0\n")  # as if client 1 had failed
    argv = ["aggregate", "--config", cfg, "--manifest", str(manifest), "--set", "aggregate.epochs=5"]
    assert main(argv) == 0
    # a weighted probe target needs one weight per client
    manifest.write_text("client0.gfnpolicy\t2.0\n")
    capsys.readouterr()
    assert main(argv) == 2
    assert "clients.n" in capsys.readouterr().err
    assert main(argv + ["--set", "aggregate.eval_every=0"]) == 0


def test_aggregate_unknown_eval_mode_is_config_error(outroot, capsys):
    cfg = write_cfg(outroot, TINY_GRID)
    assert main(["train-clients", "--config", cfg, "--set", "train.epochs=5"]) == 0
    capsys.readouterr()
    assert main(["aggregate", "--config", cfg, "--set", "aggregate.eval_mode=bogus"]) == 2
    err = capsys.readouterr().err
    assert "aggregate" in err and "eval mode" in err


@pytest.mark.parametrize("key", ["train.eval_every", "aggregate.eval_every"])
def test_negative_eval_every_is_config_error(outroot, capsys, key):
    cfg = write_cfg(outroot, TINY_MULTISET)
    assert main(["train-clients", "--config", cfg, "--set", f"{key}=-3"]) == 2
    assert "eval_every" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override", ["train.lr=-1", "train.lr=.nan", "aggregate.lr=0", "train.weight_decay=-5", "loss.logz_lr=.nan"]
)
def test_bad_learning_rate_or_decay_is_config_error(outroot, capsys, override):
    cfg = write_cfg(outroot, TINY_MULTISET)
    assert main(["train-clients", "--config", cfg, "--set", override]) == 2
    section, field = override.split("=")[0].split(".")
    err = capsys.readouterr().err
    assert section in err and field in err


BAD_FIT_SETTINGS = [
    (["aggregate.epsilon=2"], "aggregate"),
    (["aggregate.epsilon=-0.5"], "aggregate"),
    (["train.backend=mlp", "train.hidden=[]"], "train"),
    (["train.backend=mlp", "train.hidden=[0]"], "train"),
    (["aggregate.backend=mlp", "aggregate.hidden=[]"], "aggregate"),
    (["aggregate.backend=mlp", "aggregate.hidden=[0]"], "aggregate"),
    (["aggregate.hidden=5"], "aggregate"),
    (["train.eval_every=1.7"], "train"),
    (["aggregate.eval_every=2.5"], "aggregate"),
    (["train.eval_mode=off"], "train"),  # unquoted YAML off is the boolean false
    (["loss.epsilon=2"], "loss.epsilon"),  # the clients' exploration weight
]


@pytest.mark.parametrize("overrides, section", BAD_FIT_SETTINGS, ids=[",".join(o) for o, _ in BAD_FIT_SETTINGS])
def test_bad_fit_setting_is_config_error(outroot, capsys, overrides, section):
    argv = ["train-local", "--config", write_cfg(outroot, TINY_GRID), "--client", "0"]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2
    field = overrides[-1].split("=")[0].split(".")[1]
    err = capsys.readouterr().err
    assert f"config error: {section}: " in err and field in err


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# the README's 7-leaf phylogenetics smoke test
PHYLO_7_LEAVES = [
    "env.phylo.leaves=7", "env.phylo.sites=2500", "env.phylo.clients=5", "clients.n=5",
    "train.epochs=300", "train.batch=256", "train.eval_every=150",
    "train.eval_mode=sampled", "train.eval_samples=20000",
    "aggregate.epochs=300", "aggregate.batch=256", "aggregate.eval_every=150",
    "aggregate.eval_mode=sampled", "aggregate.eval_samples=20000",
]


@pytest.mark.parametrize(
    "name, overrides",
    [("grid", []), ("multiset", []), ("phylo", []), ("sequence", []), ("phylo", PHYLO_7_LEAVES)],
    ids=["grid", "multiset", "phylo", "sequence", "phylo-7-leaves"],
)
def test_shipped_configs_parse(name, overrides):
    doc = apply_overrides(load_config(CONFIGS / f"{name}.yaml"), overrides)
    run = RunConfig(doc)
    template = run.train_template()
    clients = run.client_train_configs()
    server = run.aggregate_config()
    assert len(clients) == run.n_clients == doc["clients"]["n"]
    assert {c.epsilon for c in clients} == {template.epsilon} == {doc["loss"]["epsilon"]}
    assert server.epsilon == doc["aggregate"]["epsilon"]
    assert server.backend == template.backend and server.state_guard == template.state_guard
    mode = "sampled" if overrides else "exact"
    assert template.eval_mode == server.eval_mode == mode


@pytest.mark.parametrize("loss_eps", [0.25, None], ids=["loss-eps-set", "loss-eps-absent"])
def test_train_epsilon_is_not_a_key(loss_eps):
    # the clients' exploration weight comes from loss.epsilon only, and the
    # train section may not set it
    doc = load_config(CONFIGS / "grid.yaml")
    doc["loss"].pop("epsilon")
    if loss_eps is not None:
        doc["loss"]["epsilon"] = loss_eps
    with pytest.raises(ConfigError, match="loss.epsilon") as err:
        RunConfig(apply_overrides(doc, ["train.epsilon=0.3"]))
    assert err.value.key == "train.epsilon"


UNREAD_KEYS = [
    ("train.epoch=3", None),
    ("train.seed=7", "seed"),
    ("train.loss=TB", "loss"),
    ("train.weights=[1, 2]", None),
    ("aggregate.state_guard=10", "train.state_guard"),
    ("aggregate.seed=7", "seed"),
    ("aggregate.weights=[1, 2]", "loss.weights"),
    ("aggregate.logz_lr=0.1", None),
    ("loss.lr=0.1", None),
    ("loss.epsilonn=0.2", None),
]


@pytest.mark.parametrize("override, where", UNREAD_KEYS, ids=[o for o, _ in UNREAD_KEYS])
def test_unread_key_is_config_error(outroot, capsys, override, where):
    argv = ["train-local", "--config", write_cfg(outroot, TINY_GRID), "--client", "0", "--set", override]
    assert main(argv) == 2
    key = override.split("=")[0]
    err = capsys.readouterr().err
    assert f"config error: {key}: " in err
    assert ("unknown key" in err) if where is None else (f"comes from {where}" in err)


def test_empty_sections_take_the_defaults():
    base = RunConfig(apply_overrides(load_config(CONFIGS / "grid.yaml"), ["train={}", "aggregate={}", "loss={}"]))
    empty = RunConfig(apply_overrides(load_config(CONFIGS / "grid.yaml"), ["train=null", "aggregate=null", "loss=null"]))
    assert empty.train_template() == base.train_template()
    assert empty.aggregate_config() == base.aggregate_config()
    assert empty.loss_spec == base.loss_spec


def test_enumeration_guard_exit_code(outroot):
    cfg = write_cfg(outroot, TINY_MULTISET)
    rc = main(["train-local", "--config", cfg, "--client", "0", "--set", "train.state_guard=3"])
    assert rc == 4


def test_sweep_noise_zero_matches_direct_run(outroot):
    doc = json.loads(json.dumps(TINY_MULTISET))
    doc["sweep"] = {"axis": "noise", "values": [0.0], "seeds": [5]}
    cfg = write_cfg(outroot, doc)
    assert main(["sweep", "--config", cfg]) == 0
    rows = read_csv_rows(outroot / "out" / "tinymset" / "sweep.csv")
    assert rows and all(r["axis"] == "noise" for r in rows)
    final_sweep = float(rows[-1]["l1"])
    # direct pipeline at the same seed must agree (zero noise is a no-op)
    from gfnpool.cli import _pipeline_final_l1

    run = RunConfig(doc)
    _, final_direct = _pipeline_final_l1(run, run.client_envs())
    assert final_sweep == pytest.approx(final_direct, abs=1e-6)


def _count_enumerations(monkeypatch) -> list:
    calls = []
    enumerate_ = StateSpace.enumerated.__func__

    def counted_enumerate(cls, env, guard=DEFAULT_STATE_GUARD):
        calls.append(env)
        return enumerate_(cls, env, guard)

    monkeypatch.setattr(StateSpace, "enumerated", classmethod(counted_enumerate))
    return calls


@pytest.mark.parametrize("axis, values", [("noise", [0.0, 0.5]), ("loss", ["CB", "TB"])], ids=["noise", "loss"])
def test_sweep_enumerates_once_per_sweep(outroot, monkeypatch, axis, values):
    doc = json.loads(json.dumps(TINY_MULTISET))
    doc["train"].update(epochs=4, eval_every=2)
    doc["aggregate"].update(epochs=4, eval_every=2)
    doc["sweep"] = {"axis": axis, "values": values, "seeds": [1, 2]}
    calls = _count_enumerations(monkeypatch)
    assert main(["sweep", "--config", write_cfg(outroot, doc)]) == 0
    out = outroot / "out" / "tinymset"
    assert not (out / "sweep_errors.json").exists()
    assert {(r["value"], r["seed"]) for r in read_csv_rows(out / "sweep.csv")} == {
        (str(v), s) for v in values for s in ("1", "2")
    }
    assert len(calls) == 1  # four cells, one enumeration


@pytest.mark.parametrize("axis, values", [("noise", [0.0, 0.5]), ("loss", ["CB", "TB"])], ids=["noise", "loss"])
def test_sweep_past_the_guard_records_an_error_per_cell(outroot, monkeypatch, axis, values):
    doc = json.loads(json.dumps(TINY_MULTISET))
    doc["train"].update(epochs=4, state_guard=3)
    doc["sweep"] = {"axis": axis, "values": values, "seeds": [1, 2]}
    calls = _count_enumerations(monkeypatch)
    assert main(["sweep", "--config", write_cfg(outroot, doc)]) == 0
    errors = json.loads((outroot / "out" / "tinymset" / "sweep_errors.json").read_text())
    assert sorted(errors) == sorted(f"{axis}={v},seed={s}" for v in values for s in (1, 2))
    assert all(e.startswith("EnumerationGuardError") for e in errors.values())
    assert len(calls) == 5  # the sweep's try, then one per cell


def test_sweep_loss_axis(outroot):
    doc = json.loads(json.dumps(TINY_MULTISET))
    doc["sweep"] = {"axis": "loss", "values": ["CB", "TB"], "seeds": [2]}
    cfg = write_cfg(outroot, doc)
    assert main(["sweep", "--config", cfg]) == 0
    rows = read_csv_rows(outroot / "out" / "tinymset" / "sweep.csv")
    assert {r["value"] for r in rows} == {"CB", "TB"}


@pytest.mark.parametrize(
    "axis, good, bad",
    [
        ("loss", "CB", "XX"),
        ("loss", "CB", "AB"),
        ("logz_lr", 0.1, 0.0),
        ("logz_lr", 0.1, float("inf")),
        ("noise", 0.0, -0.01),
        ("noise", 0.0, float("nan")),
        ("clients", 2, 2.5),
    ],
)
def test_bad_sweep_value_is_config_error_before_any_cell(outroot, capsys, monkeypatch, axis, good, bad):
    def cell(*args, **kwargs):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr(cli_module, "train_local", cell)
    monkeypatch.setattr(cli_module, "_pipeline_final_l1", cell)
    doc = json.loads(json.dumps(TINY_MULTISET))
    doc["sweep"] = {"axis": axis, "values": [good, bad], "seeds": [1]}
    assert main(["sweep", "--config", write_cfg(outroot, doc)]) == 2
    assert "sweep.values" in capsys.readouterr().err


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SMALL_SWEEP = [
    "train.epochs=4",
    "train.batch=16",
    "train.eval_every=0",
    "aggregate.epochs=4",
    "aggregate.batch=16",
    "aggregate.eval_every=2",
    "sweep.axis=clients",
    "sweep.seeds=[1]",
]


@pytest.mark.parametrize(
    "config, extra, values",
    [
        ("multiset.yaml", ["env.multiset.dict_size=3", "env.multiset.target_size=2"], [2, 7]),
        ("phylo.yaml", ["env.phylo.sites=40"], [2, 4]),
    ],
)
def test_sweep_clients_trains_and_pools_value_clients(outroot, monkeypatch, config, extra, values):
    jobs_seen, snaps_seen = [], []
    train, aggregate = cli_module.train_clients, agg_module.aggregate_ab

    def counted_train(jobs, parallelism=1, **kw):
        jobs_seen.append(len(jobs))
        return train(jobs, parallelism=parallelism, **kw)

    def counted_aggregate(env, snapshots, cfg, **kw):
        snaps_seen.append(len(snapshots))
        return aggregate(env, snapshots, cfg, **kw)

    monkeypatch.setattr(cli_module, "train_clients", counted_train)
    monkeypatch.setattr(agg_module, "aggregate_ab", counted_aggregate)
    sets = SMALL_SWEEP + extra + [f"sweep.values={values}"]
    argv = ["sweep", "--config", str(CONFIGS / config)]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == 0
    assert jobs_seen == values and snaps_seen == values
    out = outroot / "out" / load_config(CONFIGS / config)["name"]
    assert not (out / "sweep_errors.json").exists()
    assert {int(r["value"]) for r in read_csv_rows(out / "sweep.csv")} == set(values)


def test_one_enumeration_and_one_reward_pass_per_command(outroot, monkeypatch):
    doc = json.loads(json.dumps(TINY_MULTISET))
    doc["train"]["eval_every"] = 0
    doc["aggregate"]["eval_every"] = 0
    cfg = write_cfg(outroot, doc)
    envs = RunConfig(doc).client_envs()
    n_terminals = StateSpace.enumerated(envs[0]).terminal_indices().size
    counts = {"enumerated": 0, "reward_table": 0, "log_reward": 0}
    enumerate_ = StateSpace.enumerated.__func__
    reward_table, log_reward = evaluation.reward_table, MultisetEnv.log_reward

    def counted_enumerate(cls, env, guard=DEFAULT_STATE_GUARD):
        counts["enumerated"] += 1
        return enumerate_(cls, env, guard)

    def counted_table(*args, **kw):
        counts["reward_table"] += 1
        return reward_table(*args, **kw)

    def counted_reward(self, s):
        counts["log_reward"] += 1
        return log_reward(self, s)

    monkeypatch.setattr(StateSpace, "enumerated", classmethod(counted_enumerate))
    monkeypatch.setattr(evaluation, "reward_table", counted_table)
    monkeypatch.setattr(MultisetEnv, "log_reward", counted_reward)
    seen = {}
    for command in ("train-clients", "aggregate", "evaluate"):
        counts.update(enumerated=0, reward_table=0, log_reward=0)
        assert main([command, "--config", cfg]) == 0
        seen[command] = dict(counts)
    assert [seen[c]["enumerated"] for c in seen] == [1, 1, 1]
    assert seen["train-clients"]["reward_table"] == 0
    assert seen["aggregate"]["reward_table"] == 0
    assert seen["aggregate"]["log_reward"] == 0
    assert seen["evaluate"]["log_reward"] == len(envs) * n_terminals


def test_batched_reward_rows_per_command(outroot, monkeypatch):
    doc = json.loads(json.dumps(TINY_MULTISET))
    doc["train"]["eval_every"] = 0
    doc["aggregate"]["eval_every"] = 0
    cfg = write_cfg(outroot, doc)
    envs = RunConfig(doc).client_envs()
    n_terminals = StateSpace.enumerated(envs[0]).terminal_indices().size
    rows = [0]
    log_rewards = MultisetEnv.log_rewards

    def counted_rows(self, keys):
        keys = list(keys)
        rows[0] += len(keys)
        return log_rewards(self, keys)

    monkeypatch.setattr(MultisetEnv, "log_rewards", counted_rows)
    seen = {}
    for command in ("train-clients", "aggregate", "evaluate"):
        rows[0] = 0
        assert main([command, "--config", cfg]) == 0
        seen[command] = rows[0]
    assert 0 < seen["train-clients"] <= len(envs) * n_terminals
    assert seen["aggregate"] == 0
    assert seen["evaluate"] == len(envs) * n_terminals


def test_identity_checks_pass(outroot, capsys):
    assert main(["identity-checks", "--trials", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["jeffrey_bound_violations"] == 0
    assert report["effective_target_dp_max_dev"] <= 1e-10
    assert report["ab_kl_gradient_max_dev"] <= 1e-8


def test_config_helpers():
    doc = json.loads(json.dumps(TINY_GRID))
    apply_overrides(doc, ["train.lr=0.01", "env.grid.size=4"])
    assert doc["train"]["lr"] == 0.01 and doc["env"]["grid"]["size"] == 4
    with pytest.raises(ConfigError):
        apply_overrides(doc, ["no-equals-sign"])
    run = RunConfig(doc)
    assert run.n_clients == 2
    envs = run.client_envs()
    assert envs[0].side == 4 and envs[0].beacons == ((1, 1),)
    with pytest.raises(ConfigError):
        RunConfig({"name": "x", "seed": 1, "env": {"kind": "warp"}})


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gfnpool.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for sub in ("train-local", "train-clients", "aggregate", "baselines", "evaluate", "sweep", "identity-checks"):
        assert sub in proc.stdout
