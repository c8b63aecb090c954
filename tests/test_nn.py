import numpy as np
import pytest

from gfnpool.errors import NumericError
from gfnpool.nn import AdamWState, MlpSpec, ParamGroup, adamw_step, mlp_backward, mlp_forward, mlp_init


def test_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec((3, 2))  # no hidden layer
    with pytest.raises(ValueError):
        MlpSpec((3, 0, 2))
    spec = MlpSpec((2, 4, 3))
    assert spec.n_params == (4 * 2 + 4) + (3 * 4 + 3)


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
    assert np.max(np.abs(out - expected)) <= 1e-14


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


# Two groups without decay, one with its own lr, and one decaying group: a
# sparse step keeps moments for the parameters a gradient has reached only.
SPARSE_GROUPS = [ParamGroup("policy", 40), ParamGroup("logz", 4, lr=0.1), ParamGroup("mlp", 16, weight_decay=0.2)]
SPARSE_SLICES = [(slice(0, 40), 3e-3, 0.0), (slice(40, 44), 0.1, 0.0), (slice(44, 60), 3e-3, 0.2)]
NEVER = np.r_[30:40, 42]  # no gradient ever reaches these, bar -0.0
ONCE = np.r_[0:3, 43]  # nonzero at step 1 only
TINY = np.array([20, 21])  # first reached at step 5 by 1e-170, whose square underflows to 0


def _sparse_grad(rng, t):
    g = np.where(rng.random(60) < 0.15, rng.normal(0, 1, 60), 0.0)
    g[rng.random(60) < 0.1] = -0.0
    g[NEVER] = (0.0, -0.0) * (NEVER.size // 2) + (0.0,) * (NEVER.size % 2)
    g[ONCE] = rng.normal(0, 1, ONCE.size) if t == 1 else 0.0
    g[TINY] = 0.0 if t < 5 else (1e-170, -1e-170)[t % 2]
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
    assert not state.seen[NEVER].any() and state.seen[ONCE].all() and state.seen[44:].all()
    assert np.all(params[ONCE] != start[ONCE])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adamw_refuses_a_nonfinite_entry_before_any_change(rng, bad):
    state = AdamWState(SPARSE_GROUPS, lr=3e-3)
    params = rng.normal(0, 1, 60)
    for t in range(1, 4):
        adamw_step(state, params, _sparse_grad(rng, t))
    before = params.copy(), state.m, state.v, state.seen.copy()
    g = _sparse_grad(rng, 4)
    assert not state.seen[np.flatnonzero(g[:44])].all()  # the step would make some parameter live
    for pos in (NEVER[0], 50):  # a sparse group's untouched entry, and one of the group live as a whole
        bad_g = g.copy()
        bad_g[pos] = bad
        with pytest.raises(NumericError):
            adamw_step(state, params, bad_g)
        after = params, state.m, state.v, state.seen
        assert state.step == 3
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))


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
              ParamGroup("p", 3, weight_decay=np.nan)],
    ids=["lr=0", "lr=inf", "weight_decay=-0.1", "weight_decay=nan"],
)
def test_adamw_rejects_bad_group_settings(group):
    with pytest.raises(ValueError, match="group p"):
        AdamWState([group])


def test_adamw_accepts_the_edges():
    state = AdamWState([ParamGroup("p", 2)], beta1=0.0, beta2=0.0, eps=1e-300)
    out = adamw_step(state, np.zeros(2), np.array([2.0, 0.0]))
    assert out[1] == 0.0 and out[0] == pytest.approx(-state.lr)
