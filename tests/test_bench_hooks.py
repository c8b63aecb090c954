"""The names the traced benchmark reaches into, checked without running it.

`benchmarks/tracing.py` wraps gfnpool functions by attribute and
`benchmarks/checks.py` builds a `TrajectoryBatch` positionally, so a rename
in `src/` would first show up as a crash of the traced benchmark. These
tests install the tracer over a tiny client-plus-aggregation round and
rebuild the checks' batch, so such a rename fails here instead.
"""

import importlib.util
from pathlib import Path

import numpy as np

from gfnpool import aggregate, losses, policy, train
from gfnpool.aggregate import AggregateConfig, aggregate_ab
from gfnpool.losses import LossSpec
from gfnpool.policy import TrajectoryBatch, replay_log_pf, sample_batch
from gfnpool.train import TrainConfig, train_local
from tests.conftest import random_tabular

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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
