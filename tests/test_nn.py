import tracemalloc

import numpy as np
import pytest

from gfnpool import policy, train
from gfnpool.aggregate import AggregateConfig, aggregate_ab
from gfnpool.envs import MultisetEnv, SequenceEnv
from gfnpool.errors import NumericError
from gfnpool.losses import LossSpec
from gfnpool.nn import (
    ADAMW_BLOCK, AdamWState, MlpSpec, ParamGroup, adamw_step, mlp_backward, mlp_forward, mlp_init,
)
from gfnpool.policy import TabularPolicy
from gfnpool.train import TrainConfig


def test_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec((3, 2))  # no hidden layer
    with pytest.raises(ValueError):
        MlpSpec((3, 0, 2))
    spec = MlpSpec((2, 4, 3))
    assert spec.n_params == (4 * 2 + 4) + (3 * 4 + 3)
    # the forward and backward keep the `np.where` bits only for a slope in [0, 1]
    for slope in (2.0, 1.5, -0.5, -0.0, float("nan"), float("inf"), True, "0.01", None):
        with pytest.raises(ValueError, match="negative_slope"):
            MlpSpec((43, 64, 7), negative_slope=slope)
    for widths in ((2, True, 3), (2, 4.0, 3), (2, np.float64(4), 3), (2.0, 4, 3), (2, "4", 3)):
        with pytest.raises(ValueError, match="widths"):
            MlpSpec(widths)
    for slope in (0, 0.0, 0.01, 1, 1.0, np.float64(0.5)):
        assert MlpSpec((2, np.int64(4), 3), slope).negative_slope == slope


def test_zero_params_zero_output():
    spec = MlpSpec((3, 5, 2))
    out, _ = mlp_forward(spec, np.zeros(spec.n_params), np.ones(3))
    assert np.all(out == 0.0)


def test_identity_composition():
    # 1-1-1 net with unit weights and zero biases maps 2 -> 2
    spec = MlpSpec((1, 1, 1))
    params = np.array([1.0, 0.0, 1.0, 0.0])
    out, _ = mlp_forward(spec, params, np.array([2.0]))
    assert out[0] == pytest.approx(2.0, abs=0)


def test_forward_matches_dense_algebra_oracle(rng):
    # straight matrix-math reimplementation, independent of layer_slices
    spec = MlpSpec((2, 4, 3))
    params = rng.normal(0, 1, spec.n_params)
    x = rng.normal(0, 1, (7, 2))
    w1 = params[0:8].reshape(4, 2)
    b1 = params[8:12]
    w2 = params[12:24].reshape(3, 4)
    b2 = params[24:27]
    z1 = x @ w1.T + b1
    h1 = np.where(z1 > 0, z1, 0.01 * z1)
    expected = h1 @ w2.T + b2
    out, _ = mlp_forward(spec, params, x)
    assert out.tobytes() == expected.tobytes()


def _textbook_forward(spec, params, x):
    """`mlp_forward` with the LeakyReLU as `np.where`."""
    h = np.atleast_2d(x)
    inputs, preacts = [], []
    for li, (w, b, fan_in, fan_out) in enumerate(spec.layer_slices()):
        inputs.append(h)
        z = h @ params[w].reshape(fan_out, fan_in).T + params[b]
        last = li == len(spec.widths) - 2
        preacts.append(None if last else z)
        h = z if last else np.where(z > 0, z, spec.negative_slope * z)
    return (h[0] if x.ndim == 1 else h), (inputs, preacts)


def _textbook_backward(spec, params, cache, dout):
    """`mlp_backward` with the LeakyReLU's derivative as `np.where`."""
    inputs, preacts = cache
    g = np.atleast_2d(dout)
    grad = np.zeros(spec.n_params)
    for li, (w, b, fan_in, fan_out) in reversed(list(enumerate(spec.layer_slices()))):
        if preacts[li] is not None:
            g = g * np.where(preacts[li] > 0, 1.0, spec.negative_slope)
        grad[w] = (g.T @ inputs[li]).ravel()
        grad[b] = g.sum(axis=0)
        g = g @ params[w].reshape(fan_out, fan_in)
    return grad, (g[0] if dout.ndim == 1 else g)


# signed zeros, the smallest subnormals, values whose a*z underflows at some
# slope, the largest magnitudes and the infinities
EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-322, -1e-322, 3e-320, -3e-320, 2.2e-308, -2.2e-308,
                  1e308, -1e308, np.inf, -np.inf])


def _with_edges(rng, shape):
    a = rng.normal(0, 1, shape).ravel()
    at = rng.choice(a.size, size=a.size // 4, replace=False)
    a[at] = EDGES[np.arange(at.size) % EDGES.size]
    return a.reshape(shape)


def _bits(*arrays):
    return [a.view(np.uint64).tobytes() for a in arrays]


@pytest.mark.parametrize("slope", [0.0, 0.01, 0.5, 1.0])
def test_leaky_relu_keeps_the_where_bits_at_its_edges(rng, slope):
    spec = MlpSpec((1, 64, 64, 8), slope)
    params = rng.normal(0, 1, spec.n_params)
    (w1, b1, _, _), *_ = spec.layer_slices()
    # z1 = x * 2^k - 0.0 is exact, so the first layer's pre-activations hold every
    # edge but -0.0, which no matmul gives: its sums start at +0.0
    params[w1] = 2.0 ** rng.integers(-3, 4, 64)
    params[b1] = -0.0
    x = _with_edges(rng, (1024, 1))
    dout = rng.normal(0, 1, (1024, 8))
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 0 * inf
        want, cache = _textbook_forward(spec, params, x)
        z1, h1 = cache[1][0], cache[0][1]
        assert all(np.isin(EDGES[EDGES != 0], z1))
        assert slope == 1 or np.any(np.signbit(h1) & (h1 == 0))  # a*z underflows to -0.0
        if slope == 0:
            # 0 * inf is NaN where `np.where` keeps +inf; either way the row's output is not finite
            inf = np.isposinf(z1).any(axis=1)
            assert inf.any() and not np.isfinite(want[inf]).any()
            assert not np.isfinite(mlp_forward(spec, params, x[inf])[0]).any()
            x = x[~inf]
            want, cache = _textbook_forward(spec, params, x)
        got, got_cache = mlp_forward(spec, params, x)
        assert _bits(got, *got_cache[0], *got_cache[1][:2]) == _bits(want, *cache[0], *cache[1][:2])
        g = dout[: len(x)]
        assert _bits(*mlp_backward(spec, params, got_cache, g)) == _bits(*_textbook_backward(spec, params, cache, g))
    # the backward at every edge, -0.0 and +inf included, through a cache built by hand
    inputs = [rng.normal(0, 1, (1024, 1)), rng.normal(0, 1, (1024, 64)), rng.normal(0, 1, (1024, 64))]
    cache = (inputs, [_with_edges(rng, (1024, 64)), _with_edges(rng, (1024, 64)), None])
    assert _bits(*mlp_backward(spec, params, cache, dout)) == _bits(*_textbook_backward(spec, params, cache, dout))


def test_backward_matches_finite_differences(rng):
    spec = MlpSpec((2, 8, 8, 3))
    params = rng.normal(0, 0.5, spec.n_params)
    x = rng.normal(0, 1, (5, 2))
    dout = rng.normal(0, 1, (5, 3))
    out, cache = mlp_forward(spec, params, x)
    grad, dx = mlp_backward(spec, params, cache, dout)

    def value(p):
        o, _ = mlp_forward(spec, p, x)
        return float((o * dout).sum())

    h = 1e-5
    for i in rng.choice(spec.n_params, size=50, replace=False):
        up = params.copy()
        up[i] += h
        dn = params.copy()
        dn[i] -= h
        fd = (value(up) - value(dn)) / (2 * h)
        assert abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8) <= 1e-5
    # input gradient too
    for j in range(2):
        up = x.copy()
        up[0, j] += h
        dn = x.copy()
        dn[0, j] -= h
        ov, _ = mlp_forward(spec, params, up)
        od, _ = mlp_forward(spec, params, dn)
        fd = float(((ov - od) * dout).sum()) / (2 * h)
        assert abs(fd - dx[0, j]) <= 1e-6 * max(1.0, abs(fd))


def test_zero_outgrad_zero_paramgrad(rng):
    spec = MlpSpec((2, 4, 3))
    params = rng.normal(0, 1, spec.n_params)
    _, cache = mlp_forward(spec, params, rng.normal(0, 1, (4, 2)))
    grad, dx = mlp_backward(spec, params, cache, np.zeros((4, 3)))
    assert np.all(grad == 0.0) and np.all(dx == 0.0)


def test_sum_of_outputs_final_bias_gradient(rng):
    spec = MlpSpec((2, 4, 3))
    params = rng.normal(0, 1, spec.n_params)
    _, cache = mlp_forward(spec, params, rng.normal(0, 1, (6, 2)))
    grad, _ = mlp_backward(spec, params, cache, np.ones((6, 3)))
    _, bias_slice, _, _ = spec.layer_slices()[-1]
    assert np.allclose(grad[bias_slice], 6.0)  # one per output unit per row


def test_backward_rejects_stale_cache(rng):
    spec = MlpSpec((2, 4, 3))
    params = rng.normal(0, 1, spec.n_params)
    _, cache = mlp_forward(spec, params, rng.normal(0, 1, (4, 2)))
    with pytest.raises(ValueError):
        mlp_backward(spec, params, cache, np.zeros((5, 3)))


def test_init_deterministic_and_bounded():
    spec = MlpSpec((3, 8, 2))
    a = mlp_init(spec, np.random.default_rng(9))
    b = mlp_init(spec, np.random.default_rng(9))
    assert a.tobytes() == b.tobytes()
    w, bias, fi, fo = spec.layer_slices()[0]
    assert np.all(np.abs(a[w]) <= np.sqrt(6.0 / (fi + fo)))
    assert np.all(a[bias] == 0.0)


# -- AdamW -------------------------------------------------------------------


def _opt(n, **kw):
    return AdamWState([ParamGroup("p", n)], **kw)


def test_adamw_zero_grad_no_decay_is_identity(rng):
    p = rng.normal(0, 1, 5)
    out = adamw_step(_opt(5, lr=1e-2, weight_decay=0.0), p.copy(), np.zeros(5))
    assert np.array_equal(out, p)


def test_adamw_single_step_closed_form(rng):
    # from zero moments: update = -lr * g / (|g| + eps) after bias correction
    g = rng.normal(0, 1, 5)
    p = np.zeros(5)
    lr, eps = 1e-2, 1e-8
    state = _opt(5, lr=lr, eps=eps)
    out = adamw_step(state, p, g)
    expected = -lr * g / (np.abs(g) + eps)
    assert np.max(np.abs(out - expected)) <= 1e-15


def test_adamw_decoupled_decay(rng):
    p = rng.normal(0, 1, 5)
    lr, lam = 1e-2, 0.5
    out = adamw_step(_opt(5, lr=lr, weight_decay=lam), p.copy(), np.zeros(5))
    assert np.allclose(out, p * (1 - lr * lam))


def test_adamw_per_group_lr_and_decay_flags(rng):
    groups = [
        ParamGroup("policy", 3, weight_decay=0.0),
        ParamGroup("logz", 1, lr=0.1, weight_decay=0.0),
    ]
    state = AdamWState(groups, lr=1e-3, weight_decay=0.9)
    p = np.ones(4)
    g = np.array([0.0, 0.0, 0.0, 1.0])
    out = adamw_step(state, p.copy(), g)
    assert np.array_equal(out[:3], p[:3])  # no grad, decay flagged off
    assert out[3] == pytest.approx(1.0 - 0.1 * 1.0 / (1.0 + state.eps), rel=1e-12)


def test_adamw_rejects_nonfinite():
    with pytest.raises(NumericError):
        adamw_step(_opt(2), np.zeros(2), np.array([np.nan, 0.0]))


def test_adamw_permutation_invariance(rng):
    n = 12
    p = rng.normal(0, 1, n)
    g = rng.normal(0, 1, n)
    perm = rng.permutation(n)
    s1, s2 = _opt(n, lr=3e-3), _opt(n, lr=3e-3)
    out1 = adamw_step(s1, p.copy(), g)
    out2 = adamw_step(s2, p[perm], g[perm])
    for _ in range(3):  # moments persist across steps
        out1 = adamw_step(s1, out1, g)
        out2 = adamw_step(s2, out2, g[perm])
    assert np.max(np.abs(out1[perm] - out2)) == 0.0


def _textbook_adamw(p, m, v, g, t, groups, b1=0.9, b2=0.999, eps=1e-8):
    # the textbook update, written without mutation, with the decay taken
    # from the pre-step parameters
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    mhat, vhat = m / (1 - b1**t), v / (1 - b2**t)
    new = p.copy()
    for sl, lr, wd in groups:
        new[sl] = p[sl] - lr * mhat[sl] / (np.sqrt(vhat[sl]) + eps) - lr * wd * p[sl]
    return new, m, v


def test_adamw_in_place_matches_functional_reference(rng):
    state = AdamWState([ParamGroup("a", 6), ParamGroup("b", 4, lr=0.1, weight_decay=0.0)], lr=3e-3, weight_decay=0.2)
    groups = [(slice(0, 6), 3e-3, 0.2), (slice(6, 10), 0.1, 0.0)]
    params = rng.normal(0, 1, 10)
    ref, m, v = params.copy(), np.zeros(10), np.zeros(10)
    for t in range(1, 8):
        g = rng.normal(0, 1, 10)
        out = adamw_step(state, params, g)
        ref, m, v = _textbook_adamw(ref, m, v, g, t, groups)
        assert out is params
        assert params.tobytes() == ref.tobytes()
        assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()


# Two groups without decay, one with its own lr, and one decaying group, under
# gradients that reach few parameters: every step must keep the textbook bits.
SPARSE_GROUPS = [ParamGroup("policy", 40), ParamGroup("logz", 4, lr=0.1), ParamGroup("mlp", 16, weight_decay=0.2)]
SPARSE_SLICES = [(slice(0, 40), 3e-3, 0.0), (slice(40, 44), 0.1, 0.0), (slice(44, 60), 3e-3, 0.2)]
NEVER = np.r_[30:40, 42]  # no gradient ever reaches these, bar -0.0
ONCE = np.r_[0:3, 43]  # nonzero at step 1 only
TINY = np.array([20, 21])  # first reached at step 5 by 1e-170, whose square underflows to 0


def _sparse_grad(rng, t, n=60, never=NEVER, once=ONCE, tiny=TINY):
    g = np.where(rng.random(n) < 0.15, rng.normal(0, 1, n), 0.0)
    g[rng.random(n) < 0.1] = -0.0
    g[never] = (0.0, -0.0) * (never.size // 2) + (0.0,) * (never.size % 2)
    g[once] = rng.normal(0, 1, once.size) if t == 1 else 0.0
    g[tiny] = 0.0 if t < 5 else (1e-170, -1e-170)[t % 2]
    return g


def test_adamw_sparse_steps_keep_the_dense_bits(rng):
    state = AdamWState(SPARSE_GROUPS, lr=3e-3)
    params = rng.normal(0, 1, 60)
    params[TINY] = 0.0  # as in a fresh table, so a step of ~1e-165 shows
    start = params.copy()
    ref, m, v = params.copy(), np.zeros(60), np.zeros(60)
    for t in range(1, 41):
        g = _sparse_grad(rng, t)
        adamw_step(state, params, g)
        ref, m, v = _textbook_adamw(ref, m, v, g, t, SPARSE_SLICES)
        assert params.tobytes() == ref.tobytes(), t
        assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes(), t
        if t == 5:  # v stays 0 while m moves the parameter
            assert np.all(state.v[TINY] == 0.0) and np.all(state.m[TINY] != 0.0)
            assert np.all(params[TINY] != start[TINY])
    assert params[NEVER].tobytes() == start[NEVER].tobytes()
    assert np.all(params[ONCE] != start[ONCE])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adamw_refuses_a_nonfinite_entry_before_any_change(rng, bad):
    state = AdamWState(SPARSE_GROUPS, lr=3e-3)
    params = rng.normal(0, 1, 60)
    for t in range(1, 4):
        adamw_step(state, params, _sparse_grad(rng, t))
    before = params.copy(), state.m.copy(), state.v.copy()
    g = _sparse_grad(rng, 4)
    for pos in (NEVER[0], 50):  # one no gradient reached in a group without decay, one in the decaying group
        bad_g = g.copy()
        bad_g[pos] = bad
        with pytest.raises(NumericError):
            adamw_step(state, params, bad_g)
        assert state.step == 3
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, (params, state.m, state.v)))
    # the same over blocks: a bad entry in the last block stops the step before the first block moves
    state = AdamWState(BLOCK_GROUPS, lr=3e-3)
    params = rng.normal(0, 1, BLOCK_N)
    adamw_step(state, params, _block_grad(rng, 1))
    before = params.copy(), state.m.copy(), state.v.copy()
    bad_g = _block_grad(rng, 2)
    bad_g[-1] = bad
    with pytest.raises(NumericError):
        adamw_step(state, params, bad_g)
    assert state.step == 1
    assert all(a.tobytes() == b.tobytes() for a, b in zip(before, (params, state.m, state.v)))


# Four groups over more than two blocks: the first ends one short of a block
# edge, log Z (one parameter, its own lr) sits where that edge falls, a
# decaying group crosses its own block edge, and a two-parameter tail ends it.
B = ADAMW_BLOCK
BLOCK_N = 2 * B + 3
BLOCK_GROUPS = [ParamGroup("policy", B - 1), ParamGroup("logz", 1, lr=0.1), ParamGroup("mlp", B + 1, weight_decay=0.2),
                ParamGroup("tail", 2)]
BLOCK_SLICES = [(slice(0, B - 1), 3e-3, 0.0), (slice(B - 1, B), 0.1, 0.0), (slice(B, 2 * B + 1), 3e-3, 0.2),
                (slice(2 * B + 1, BLOCK_N), 3e-3, 0.0)]
BLOCK_NEVER = np.array([B - 3, B - 2, B, 2 * B - 1, 2 * B, BLOCK_N - 1])  # at each edge, either side
BLOCK_ONCE = np.array([0, B - 1, 2 * B + 1])
BLOCK_TINY = np.array([B + 1, 2 * B - 2])


def _block_grad(rng, t):
    return _sparse_grad(rng, t, BLOCK_N, BLOCK_NEVER, BLOCK_ONCE, BLOCK_TINY)


def test_adamw_blocks_keep_the_textbook_bits_at_their_edges(rng):
    state = AdamWState(BLOCK_GROUPS, lr=3e-3)
    params = rng.normal(0, 1, BLOCK_N)
    params[BLOCK_TINY] = 0.0
    start = params.copy()
    ref, m, v = params.copy(), np.zeros(BLOCK_N), np.zeros(BLOCK_N)
    for t in range(1, 11):
        g = _block_grad(rng, t)
        adamw_step(state, params, g)
        ref, m, v = _textbook_adamw(ref, m, v, g, t, BLOCK_SLICES)
        assert params.tobytes() == ref.tobytes(), t
        assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes(), t
    # decay moves the unreached parameters of the decaying group only
    never_decayed = BLOCK_NEVER[(BLOCK_NEVER < B) | (BLOCK_NEVER > 2 * B)]
    assert params[never_decayed].tobytes() == start[never_decayed].tobytes()
    assert np.all(params[BLOCK_TINY] != 0.0) and np.all(params[BLOCK_ONCE] != start[BLOCK_ONCE])


def _textbook_step(state, params, grad):
    """`adamw_step` as the textbook update over whole arrays."""
    state.step += 1
    groups = [(sl, *state.settings(g)) for g, sl in state.group_slices()]
    new, state.m[:], state.v[:] = _textbook_adamw(
        params, state.m, state.v, grad, state.step, groups, state.beta1, state.beta2, state.eps
    )
    params[:] = new
    return params


def test_blocked_training_writes_the_textbook_snapshot(monkeypatch):
    # multiset 10x8 has 218,790 legal edges, several blocks, and TB adds log Z after them
    env = MultisetEnv(values=tuple(np.linspace(-1.0, 1.0, 10)), target_size=8)
    cfg = TrainConfig(epochs=4, batch=64, seed=3, lr=0.1, eval_every=0, loss=LossSpec("TB"))
    space = train.build_space(env, cfg)
    assert TabularPolicy.size(space, env.max_arity) > 2 * ADAMW_BLOCK
    blocked = train.train_local(env, cfg, space).snapshot
    monkeypatch.setattr(train, "adamw_step", _textbook_step)
    assert train.train_local(env, cfg, space).snapshot == blocked


def test_mlp_training_at_scale_writes_the_textbook_snapshots(monkeypatch):
    # sequence 6x6 at batch 512 runs ~900 distinct states per forward, against
    # at most 9 rows in the grid 3x3 goldens
    gen = np.random.default_rng(13)
    envs = [SequenceEnv(pos_scores=tuple(gen.uniform(0, 1, 6)), token_scores=tuple(gen.uniform(-1, 1, 6)))
            for _ in range(2)]
    cfgs = [TrainConfig(epochs=8, batch=512, seed=s, lr=0.005, backend="mlp", hidden=(64, 64), eval_every=0,
                        loss=LossSpec("CB")) for s in (1, 2)]
    agg_cfg = AggregateConfig(epochs=8, batch=512, seed=3, lr=0.005, backend="mlp", hidden=(64, 64), eval_every=0)
    space = train.build_space(envs[0], cfgs[0])

    def run():
        clients = [train.train_local(env, cfg, space).snapshot for env, cfg in zip(envs, cfgs)]
        return clients, aggregate_ab(envs[0], clients, agg_cfg, space=space).snapshot

    snapshots = run()
    calls = []

    def counted(textbook):
        def call(*args):
            calls.append(textbook)
            return textbook(*args)
        return call

    monkeypatch.setattr(policy, "mlp_forward", counted(_textbook_forward))
    monkeypatch.setattr(policy, "mlp_backward", counted(_textbook_backward))
    assert run() == snapshots
    assert set(calls) == {_textbook_forward, _textbook_backward}


def test_adamw_step_allocates_no_parameter_sized_array(rng):
    # the bound is a quarter of one block's float64, the same at both sizes
    for n in (4 * ADAMW_BLOCK + 5, 16 * ADAMW_BLOCK + 5):
        groups = [ParamGroup("a", n // 2), ParamGroup("logz", 1, lr=0.1), ParamGroup("b", n - n // 2 - 1, weight_decay=0.1)]
        state = AdamWState(groups, lr=3e-3)
        assert state.workspace.size <= 2 * ADAMW_BLOCK
        params = rng.normal(0, 1, n)
        grads = rng.normal(0, 1, (3, n))
        held = state.m, state.v, state.workspace
        adamw_step(state, params, grads[0])  # numpy's first call may cache small objects
        tracemalloc.start()
        try:
            for g in grads[1:]:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                adamw_step(state, params, g)
                assert tracemalloc.get_traced_memory()[1] - base < 2 * ADAMW_BLOCK, n
        finally:
            tracemalloc.stop()
        assert all(a is b for a, b in zip(held, (state.m, state.v, state.workspace)))


@pytest.mark.parametrize(
    "kw",
    [
        {"lr": 0.0}, {"lr": -1e-3}, {"lr": np.inf}, {"lr": np.nan},
        {"eps": 0.0}, {"eps": -1e-8}, {"eps": np.inf}, {"eps": np.nan},
        {"beta1": -0.1}, {"beta1": 1.0}, {"beta1": np.nan},
        {"beta2": -0.1}, {"beta2": 1.0}, {"beta2": np.nan},
    ],
    ids=lambda kw: "{}={}".format(*next(iter(kw.items()))),
)
def test_adamw_rejects_bad_hyperparameters(kw):
    with pytest.raises(ValueError, match=next(iter(kw))):
        _opt(3, **kw)


@pytest.mark.parametrize(
    "group", [ParamGroup("p", 3, lr=0.0), ParamGroup("p", 3, lr=np.inf), ParamGroup("p", 3, weight_decay=-0.1),
              ParamGroup("p", 3, weight_decay=np.nan), ParamGroup("p", -2), ParamGroup("p", 0), ParamGroup("p", 2.5)],
    ids=["lr=0", "lr=inf", "weight_decay=-0.1", "weight_decay=nan", "size=-2", "size=0", "size=2.5"],
)
def test_adamw_rejects_bad_group_settings(group):
    with pytest.raises(ValueError, match="group p"):
        AdamWState([group])
    # after a valid group too: a negative size would shrink the earlier group's slice
    with pytest.raises(ValueError, match="group p"):
        AdamWState([ParamGroup("a", 5), group])


def test_adamw_accepts_the_edges():
    state = AdamWState([ParamGroup("p", 2)], beta1=0.0, beta2=0.0, eps=1e-300)
    out = adamw_step(state, np.zeros(2), np.array([2.0, 0.0]))
    assert out[1] == 0.0 and out[0] == pytest.approx(-state.lr)
