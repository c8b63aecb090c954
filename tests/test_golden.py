"""Golden snapshots: sha256 of the bytes that short fixed-seed runs write.

The ROADMAP rule is that, with fixed seeds, snapshots stay byte-identical:
a change that alters any hash below must say why in CHANGES.md and update
the hash in the same change. Each run is a few AdamW steps on grid 3x3,
through `train_local` for every local loss and both backends, and through
`aggregate_ab` for both backends. Between them they cover log Z (TB), the
flow group (DB), MLP weight decay, the exploration mixture and the AB loss;
the benchmark exercises only CB and AB.
"""

import hashlib

import pytest

from gfnpool.aggregate import AggregateConfig, aggregate_ab
from gfnpool.losses import LossSpec
from gfnpool.envs import GridEnv
from gfnpool.train import TrainConfig, train_local

CLIENT_SHA256 = {
    ("TB", "tabular"): "53f03a1f61b8491f6f90004a2f9ba9430b4b066aad7f15131b56c12e2b350f12",
    ("DB", "tabular"): "a2c530110651cadffe1a62bef407a830ab596cd5066c66b7fbd078cda6d23a77",
    ("DBC", "tabular"): "e3e2916d4241f0ba1bfd182faeec8e829cb72f07436118c70d427e1365b6b56b",
    ("CB", "tabular"): "8af32c3cf3e554176e4bd061807fc906a40ce6e1eba3d4c163abbadfd5e9bbb7",
    ("VL", "tabular"): "6b89db15800eb880898df95e51b9129c6d6e294d8ff2b4488a7be93e56b234b7",
    ("TB", "mlp"): "1e469b35d895d60566ce197ed70351dae34a32cbadae8bb1f8912303d42da391",
    ("DB", "mlp"): "51f4a1cd72eaf9213874b5f0f127ad9cd27dabd1e1fb39edf3fc08f4a678852d",
    ("DBC", "mlp"): "1675f83891cd0d2f66476ec051bbac80ea589b3387d16f17792e864ba242f5aa",
    ("CB", "mlp"): "f5730e3b49d3c3d223706d82efadd9d5f0a8652f7b31a21629a9c1eddef46dd1",
    ("VL", "mlp"): "d9c2c99776a09a23b5f7a6f14dd4948b1573d4758fbe0ea5b39aee9ab52e936e",
}

GLOBAL_SHA256 = {
    "tabular": "79b0a96ea523a08eabbbcde8c0775bc4311218855c15967bfffdab9501b4d232",
    "mlp": "144bf3d29bfd7781ab263030288d30879b90322a8fbe5d148e3fb975ae34c223",
}


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _client_cfg(kind, backend, seed, eval_every):
    return TrainConfig(
        loss=LossSpec(kind),
        epochs=8,
        batch=16,
        seed=seed,
        backend=backend,
        hidden=(8, 8),
        eval_every=eval_every,
    )


@pytest.mark.parametrize("kind, backend", sorted(CLIENT_SHA256))
def test_client_snapshot_bytes_are_pinned(grid3, grid3_space, kind, backend):
    res = train_local(grid3, _client_cfg(kind, backend, seed=7, eval_every=2), grid3_space)
    assert _sha(res.snapshot) == CLIENT_SHA256[(kind, backend)]


@pytest.mark.parametrize("backend", sorted(GLOBAL_SHA256))
def test_global_snapshot_bytes_are_pinned(grid3_space, backend):
    envs = [GridEnv(side=3, beacons=((1, 1),)), GridEnv(side=3, beacons=((2, 0),))]
    snaps = [
        train_local(env, _client_cfg("CB", backend, seed=11 + k, eval_every=0), grid3_space).snapshot
        for k, env in enumerate(envs)
    ]
    cfg = AggregateConfig(epochs=8, batch=16, seed=13, backend=backend, hidden=(8, 8), eval_every=2)
    res = aggregate_ab(envs[0], snaps, cfg, space=grid3_space)
    assert _sha(res.snapshot) == GLOBAL_SHA256[backend]
