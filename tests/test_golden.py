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
    ("TB", "mlp"): "948a1dbf68449e2a69828bfa8a141eac4fe8c8409a666b98e30d61ee6c91582a",
    ("DB", "mlp"): "ec3d6ee842c62ee2ef69c3eb4fa1a82e3525ce4d94a900a98d3298c383575c5f",
    ("DBC", "mlp"): "66c38555f618a5907eb62056b359a3c2a83a1ed57ee80f402d27a3941d52df70",
    ("CB", "mlp"): "7cc0ee0fd3d631628fd71ca56dde7592594315897fba29e91b89344a645a270e",
    ("VL", "mlp"): "332dc2e5934a90bf0566d444fd4465881de7a0363a245243fee0fb677d477c1f",
}

GLOBAL_SHA256 = {
    "tabular": "5c45dd611ccb2e52bbeaa86942826062990d5315909f795fd31d24d3bfc6587a",
    "mlp": "eeb3bbebc45996d3d17b71c8fd7f9c88350165c63cf67f1e2cef85ae0c185664",
}


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _client_cfg(kind, backend, seed, eval_every):
    return TrainConfig(
        loss=LossSpec(kind, epsilon=0.1),
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
