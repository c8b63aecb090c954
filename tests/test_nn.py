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


def test_adamw_in_place_matches_functional_reference(rng):
    # the textbook update, written without mutation, with the decay taken
    # from the pre-step parameters
    def reference(p, m, v, g, t, groups, b1=0.9, b2=0.999, eps=1e-8):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat, vhat = m / (1 - b1**t), v / (1 - b2**t)
        new = p.copy()
        for sl, lr, wd in groups:
            new[sl] = p[sl] - lr * mhat[sl] / (np.sqrt(vhat[sl]) + eps) - lr * wd * p[sl]
        return new, m, v

    state = AdamWState([ParamGroup("a", 6), ParamGroup("b", 4, lr=0.1, weight_decay=0.0)], lr=3e-3, weight_decay=0.2)
    groups = [(slice(0, 6), 3e-3, 0.2), (slice(6, 10), 0.1, 0.0)]
    params = rng.normal(0, 1, 10)
    ref, m, v = params.copy(), np.zeros(10), np.zeros(10)
    for t in range(1, 8):
        g = rng.normal(0, 1, 10)
        out = adamw_step(state, params, g)
        ref, m, v = reference(ref, m, v, g, t, groups)
        assert out is params
        assert params.tobytes() == ref.tobytes()
        assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()
