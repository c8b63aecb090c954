"""The names the traced benchmark reaches into, checked without running it.

`benchmarks/tracing.py` wraps gfnpool functions by attribute and
`benchmarks/checks.py` builds a `TrajectoryBatch` positionally, so a rename
in `src/` would first show up as a crash of the traced benchmark. These
tests install the tracer over a tiny client-plus-aggregation round and
rebuild the checks' batch, so such a rename fails here instead.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import pytest

from gfnpool import aggregate, evaluation, losses, policy, train
from gfnpool.aggregate import AggregateConfig, aggregate_ab
from gfnpool.envs import SequenceEnv, StateSpace
from gfnpool.losses import LossSpec
from gfnpool.policy import MlpPolicy, TrajectoryBatch, replay_log_pf, sample_batch
from gfnpool.train import TrainConfig, train_local
from tests.conftest import random_tabular

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # a dataclass looks its module up while it is built
    spec.loader.exec_module(mod)
    return mod


def _tracing():
    return _bench_module("tracing")


def test_benchmark_configs_pass_the_schema(tmp_path):
    # each workload's config as the benchmark writes it, through the
    # benchmark's own set-up: `RunConfig`, the client envs, one enumeration
    pipeline = _bench_module("pipeline")
    for name, wl in pipeline.WORKLOADS.items():
        su = pipeline.setup(pipeline.write_inputs(wl, 1, tmp_path / name))
        assert su.run.name == name and len(su.envs) == wl.clients
        assert su.space.complete and su.target.total() == pytest.approx(1.0)


def test_tracer_installs_over_a_round_and_uninstalls(grid3, grid3_space):
    tracing = _tracing()
    originals = [policy.sample_batch, losses.ab_loss_batch, train.sample_batch, aggregate.load_local_policies]
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        assert train.sample_batch is not originals[2]
        cfg = TrainConfig(loss=LossSpec("CB"), epochs=2, batch=8, seed=1, eval_every=0)
        snap = train_local(grid3, cfg, grid3_space).snapshot
        aggregate_ab(grid3, [snap, snap], AggregateConfig(epochs=3, batch=8, seed=2, eval_every=0), space=grid3_space)
        metrics = tracing.layer_metrics(tr)
    finally:
        tr.uninstall()
    assert [policy.sample_batch, losses.ab_loss_batch, train.sample_batch, aggregate.load_local_policies] == originals
    assert metrics["policy.sample_batch_calls"][0] == 5
    assert metrics["nn.adamw_step_calls"][0] == 5  # 2 client and 3 AB epochs
    assert metrics["policy.replay_log_pf_calls"][0] == 0
    assert tracing.calls_under(tr, "policy.apply_log_pf_grad", "losses.ab") == 3
    assert tracing.calls_under(tr, "policy.apply_log_pf_grad", "losses.cb") == 2


def test_a_batch_builds_from_six_positional_arrays(grid3_space, rng):
    pol = random_tabular(grid3_space, rng)
    tb = sample_batch(pol, grid3_space, 6, 0.5, rng)
    b, h = tb.batch_size, tb.horizon
    rebuilt = TrajectoryBatch(tb.states, tb.actions, tb.lengths, np.zeros((b, h)), np.zeros((b, h)), None)
    assert np.array_equal(replay_log_pf(pol, grid3_space, rebuilt), replay_log_pf(pol, grid3_space, tb))


@pytest.mark.parametrize("chunk", [policy.FORWARD_CHUNK, 7])
def test_traced_forward_rows_count_each_state_of_exact_pT_once(chunk, rng, monkeypatch):
    # the tracer counts rows per `mlp_forward` call, so a chunked read must
    # neither hide rows from it nor count any twice
    env = SequenceEnv(pos_scores=(0.4, -0.2, 0.3, 0.1), token_scores=(0.5, -0.3, 0.2))
    space = StateSpace.enumerated(env)
    pol = MlpPolicy.create(env, (8, 8), rng)
    monkeypatch.setattr(policy, "FORWARD_CHUNK", chunk)
    tracing = _tracing()
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        evaluation.exact_pT(pol, space)
        metrics = tracing.layer_metrics(tr)
    finally:
        tr.uninstall()
    assert metrics["evaluation.exact_pT_calls"][0] == 1
    assert metrics["nn.mlp_forward_rows"][0] == space.n_states
    calls = sum(acc[0] for (name, _), acc in tr.leaves.items() if name == "nn.mlp_forward")
    assert calls == sum(-(-lv.size // chunk) for lv in space.levels())
