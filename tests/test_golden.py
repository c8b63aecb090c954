"""Golden snapshots: sha256 of the bytes that short fixed-seed runs write.

The ROADMAP rule is that, with fixed seeds, snapshots stay byte-identical:
a change that alters any hash below must say why in CHANGES.md and update
the hash in the same change. The version 3 hashes pin the bytes written
today. Each snapshot is also rewritten in the text layouts of versions 2
and 1 (sorted, compact JSON with the base64 payload in `params_b64`;
version 1 with a dense tabular payload), whose hashes are the ones pinned
before each later format: a format change that moves no trained value
keeps them. Each run is a few AdamW steps on grid 3x3,
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
from gfnpool.policy import load_snapshot, read_snapshot
from gfnpool.train import TrainConfig, train_local
from tests.conftest import text_snapshot

CLIENT_SHA256_V3 = {
    ("TB", "tabular"): "0efe0bf5dec6bc5f9cc1d89337aeed7646798e2dbc48d4fa254206e3f7c03a1f",
    ("DB", "tabular"): "41af3b974e956b2ccd6657c26a9d4576b5e26792c9e8aff7d56d954b17c49cce",
    ("DBC", "tabular"): "fb180b20494d297bdf052045899b7c21d21d85e9bd7f424b63053ac9ce15397f",
    ("CB", "tabular"): "6bae5182821c39923d7a1bbeb7d98705fd527fefb4c8f037d7991c5bf82b32a1",
    ("VL", "tabular"): "9a7dce2983e2142cdaf81ef45cc2fbc3f0081d953d07f88e9cbf05515a8d85ad",
    ("TB", "mlp"): "7a95edf8d77f4338c293300f9d88fdf7d32662d4a94552352ab9277dc32daa0b",
    ("DB", "mlp"): "df9fc8eecdd7f21511a88a5f0cac72ac01508eb3036872053c3727460556b81c",
    ("DBC", "mlp"): "08c73d80501f30a84c522a88f78f4c48f963ea13ac0bb0e3a6342ab37f0c022f",
    ("CB", "mlp"): "4ac4507f861f9708b54757bedce0bc4cd321783aed9c95cbe3c420d1c50106aa",
    ("VL", "mlp"): "11d96b66deceaa8e11683d822b385530a3afc8640f9265a29e1f81a52214aedd",
}

GLOBAL_SHA256_V3 = {
    "tabular": "6bf8b3a9a74f37ce22d412cb86f748c37be51d46c068593f7f88241f35ad0f15",
    "mlp": "a8d5eb1f782923288ed1ad6a0d6d86f1334d43c62d9ab03b52755c547f7acbb8",
}

# the same runs as version 2 wrote them
CLIENT_SHA256 = {
    ("TB", "tabular"): "c5281e01369ed3398a870e6c08c789a03deefc458b72f0f08c628980449eb684",
    ("DB", "tabular"): "8731112d80380b231b8b530054dbf4f23e511b1eb6425e3c19bd1a11ad3b96df",
    ("DBC", "tabular"): "a8d43e17fdaaef110fd7f44e6a9153a7ce82cd6536d6418107d588d473ea8db2",
    ("CB", "tabular"): "dbdab1f3a58e25818c7d256a0b20065b1d8b5d26eb526635d820c1abb05df98e",
    ("VL", "tabular"): "ae88560a4d6d353111f03f9b6dc04abe2a245814176971ae5dae1430ead83c98",
    ("TB", "mlp"): "fe9bd4b61971224359cf1016cf06662f210b51a8642ab386c154c1726bd645d3",
    ("DB", "mlp"): "3a13582fe51cc749c18c4664b703dab1f03b65826680a85459687a4e601d2a8c",
    ("DBC", "mlp"): "af89f8184ba0c2e8ef016cd3f570eac763188f9d53a5926e7af6e56e6473e9c7",
    ("CB", "mlp"): "6942719852e3d902093fafc723f3bb3f96bfd9da1608c69c321dd2998158aa40",
    ("VL", "mlp"): "ac0828c6e83a7aad443749945023c6e01d48cd8f4b5a143ea9a248fc2e3b4244",
}

GLOBAL_SHA256 = {
    "tabular": "13fb051e154701d94f04952dbd7da13229af24486d62d1cb4553a4b90e8bd8a9",
    "mlp": "20f61b3fca29582ae0824894ae5f1a82a4f6728ce420cd86c0ee23d386b91424",
}

# the same runs as version 1 wrote them
CLIENT_SHA256_V1 = {
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

GLOBAL_SHA256_V1 = {
    "tabular": "79b0a96ea523a08eabbbcde8c0775bc4311218855c15967bfffdab9501b4d232",
    "mlp": "144bf3d29bfd7781ab263030288d30879b90322a8fbe5d148e3fb975ae34c223",
}


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _v2_layout(blob: bytes) -> bytes:
    """A snapshot rewritten as version 2 wrote it."""
    doc, params = read_snapshot(blob)
    return text_snapshot({**doc, "version": 2}, params)


def _v1_layout(blob: bytes, env, space) -> bytes:
    """A snapshot rewritten as version 1 wrote it: a tabular payload is the
    dense `.table`, and its arch has no edge count; an MLP payload is
    unchanged."""
    doc, params = read_snapshot(blob)
    if doc["backend"] == "tabular":
        params = load_snapshot(blob, env, space)[0].table
        del doc["arch"]["n_edges"]
    return text_snapshot({**doc, "version": 1}, params)


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
    assert _sha(res.snapshot) == CLIENT_SHA256_V3[(kind, backend)]
    assert _sha(_v2_layout(res.snapshot)) == CLIENT_SHA256[(kind, backend)]
    assert _sha(_v1_layout(res.snapshot, grid3, grid3_space)) == CLIENT_SHA256_V1[(kind, backend)]


@pytest.mark.parametrize("backend", sorted(GLOBAL_SHA256))
def test_global_snapshot_bytes_are_pinned(grid3_space, backend):
    envs = [GridEnv(side=3, beacons=((1, 1),)), GridEnv(side=3, beacons=((2, 0),))]
    snaps = [
        train_local(env, _client_cfg("CB", backend, seed=11 + k, eval_every=0), grid3_space).snapshot
        for k, env in enumerate(envs)
    ]
    cfg = AggregateConfig(epochs=8, batch=16, seed=13, backend=backend, hidden=(8, 8), eval_every=2)
    res = aggregate_ab(envs[0], snaps, cfg, space=grid3_space)
    assert _sha(res.snapshot) == GLOBAL_SHA256_V3[backend]
    assert _sha(_v2_layout(res.snapshot)) == GLOBAL_SHA256[backend]
    assert _sha(_v1_layout(res.snapshot, envs[0], grid3_space)) == GLOBAL_SHA256_V1[backend]
