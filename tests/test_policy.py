import json

import numpy as np
import pytest
import scipy.stats

from gfnpool.envs import GridEnv, MultisetEnv, SequenceEnv, StateSpace
from gfnpool.envs.space import CHILD_ILLEGAL
from gfnpool.errors import FingerprintMismatchError, SnapshotError
from gfnpool.policy import (
    MlpPolicy,
    _count_below,
    TabularPolicy,
    balanced_tabular_policy,
    load_snapshot,
    masked_log_softmax,
    read_snapshot,
    replay_log_pb,
    replay_log_pf,
    replay_steps,
    row_sums,
    sample_batch,
    save_snapshot,
    step_log_pf,
)
from gfnpool.nn import mlp_backward, mlp_forward
from tests.conftest import (
    RECORD_CASES,
    action_distribution,
    counting_rewards,
    mlp_flow,
    one_row_batch,
    paths,
    random_tabular,
    record_case,
    rewritten_snapshot,
    text_snapshot,
)


def test_uniform_softmax_three_actions(grid3, grid3_space):
    pol = TabularPolicy(grid3_space)  # zero logits
    p = action_distribution(pol, grid3_space, (0, 0))
    assert np.allclose(p, [1 / 3, 1 / 3, 1 / 3])


def test_mask_forces_single_action(grid3, grid3_space, rng):
    pol = random_tabular(grid3_space, rng, scale=5.0)
    p = action_distribution(pol, grid3_space, (2, 2))  # corner: stop only
    assert p[2] == 1.0 and p[0] == 0.0 and p[1] == 0.0


def test_mlp_backend_matches_nn_oracle(rng):
    env = GridEnv(side=9, beacons=((0, 0),))
    space = StateSpace.enumerated(env)
    pol = MlpPolicy.create(env, (16,), rng)
    pol.params = rng.normal(0, 0.7, pol.n_params)
    out, _ = mlp_forward(pol.spec, pol.params, env.featurize((0, 0)))
    expected = np.exp(out) / np.exp(out).sum()  # all three actions legal at (0,0)
    assert np.allclose(action_distribution(pol, space, (0, 0)), expected, atol=1e-12)


@pytest.mark.parametrize("backend", ["tabular", "mlp"])
def test_normalization_and_exact_zero_support(backend, rng):
    env = MultisetEnv(values=tuple(rng.uniform(0, 1, 4)), target_size=3)
    space = StateSpace.enumerated(env)
    if backend == "tabular":
        pol = random_tabular(space, rng, scale=3.0)
    else:
        pol = MlpPolicy.create(env, (8, 8), rng)
        pol.params = rng.normal(0, 1, pol.n_params)
    idx = rng.integers(0, space.n_states, size=1000)
    rows = space.children_rows(idx)
    legal = rows != -1
    logp, p = masked_log_softmax(pol.logits_rows(space, idx)[0], legal)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12
    assert np.all(p[~legal] == 0.0)
    assert np.all(np.isneginf(logp[~legal]))


def test_epsilon_one_uniform_trajectory_chisquare():
    # S=2, |U|=2: seven trajectories with closed-form uniform-policy probs
    env = SequenceEnv(pos_scores=(0.0, 0.0), token_scores=(0.0, 0.0))
    space = StateSpace.enumerated(env)
    pol = TabularPolicy(space, np.random.default_rng(1).normal(0, 2, (space.n_states, space.arity)))
    n = 100_000
    tb = sample_batch(pol, space, n, epsilon=1.0, rng=np.random.default_rng(7))
    # trajectory identity: the terminal key (sequences have unique paths)
    counts: dict = {}
    for i in tb.terminal_idx():
        counts[space.keys[i]] = counts.get(space.keys[i], 0) + 1
    expected = {
        (): 1 / 3,
        (0,): 1 / 9,
        (1,): 1 / 9,
        (0, 0): 1 / 9,
        (0, 1): 1 / 9,
        (1, 0): 1 / 9,
        (1, 1): 1 / 9,
    }
    stat = sum(
        (counts.get(k, 0) - n * q) ** 2 / (n * q) for k, q in expected.items()
    )
    assert stat <= scipy.stats.chi2.ppf(0.999, df=6)


def test_epsilon_zero_deterministic_policy(grid3, grid3_space):
    table = np.zeros((grid3_space.n_states, 3))
    table[:, 0] = 50.0  # push right when legal
    table[:, 2] = 25.0  # otherwise stop
    pol = TabularPolicy(grid3_space, table)
    rng = np.random.default_rng(0)
    tb = sample_batch(pol, grid3_space, 20, 0.0, rng)
    assert {tuple(states) for states, _ in paths(grid3_space, tb)} == {((0, 0), (1, 0), (2, 0))}


def test_sampled_paths_validate_against_children(grid3, grid3_space, rng):
    pol = random_tabular(grid3_space, rng)
    steps = sample_batch(pol, grid3_space, 64, 0.3, rng, want_steps=True)
    tb = steps.tb
    assert np.all(np.isfinite(step_log_pf(steps)))
    for states, actions in paths(grid3_space, tb):
        for s, s2, a in zip(states, states[1:], actions):
            assert (a, s2, False) in grid3.children(s)
        assert (actions[-1], None, True) in grid3.children(states[-1])


def test_mixture_frequencies_at_root(grid3, grid3_space):
    pol = random_tabular(grid3_space, np.random.default_rng(3))
    n = 100_000
    tb = sample_batch(pol, grid3_space, n, epsilon=0.5, rng=np.random.default_rng(5))
    first = tb.actions[:, 0]
    p = action_distribution(pol, grid3_space, (0, 0))
    expected = 0.5 * p + 0.5 / 3
    for a in range(3):
        freq = float(np.mean(first == a))
        sigma = np.sqrt(expected[a] * (1 - expected[a]) / n)
        assert abs(freq - expected[a]) <= 4 * sigma


def test_uniform_backward_normalizes(grid3, grid3_space):
    for i in range(grid3_space.n_states):
        if i == grid3_space.root:
            continue
        npar = grid3_space.nparents(i)
        assert npar >= 1
        assert npar * (1.0 / npar) == 1.0


def test_recorded_vs_recomputed_log_pf(grid3, grid3_space, rng):
    pol = random_tabular(grid3_space, rng)
    steps = sample_batch(pol, grid3_space, 32, 0.4, rng, want_steps=True)
    tb = steps.tb
    recomputed = replay_log_pf(pol, grid3_space, tb)
    assert np.array_equal(recomputed, step_log_pf(steps))  # gathers of one table: the same bits
    for k in (0, 7, 31):
        assert replay_log_pf(pol, grid3_space, tb.subset([k]))[0] == pytest.approx(
            float(recomputed[k]), abs=1e-12
        )


@pytest.mark.parametrize("block", ["policy", "flow"])
def test_mlp_rows_run_once_per_distinct_state(block, rng, monkeypatch):
    import gfnpool.policy as policy_module

    env = SequenceEnv(pos_scores=(0.4, -0.2, 0.3, 0.1), token_scores=(0.5, -0.3, 0.2, 0.1))
    space = StateSpace.enumerated(env)
    net = MlpPolicy.create(env, (8, 8), rng) if block == "policy" else mlp_flow(env, (8, 8), rng)
    net.params = rng.normal(0, 0.7, net.n_params)
    idx = np.concatenate([np.full(6, space.root), rng.integers(0, space.n_states, 60)])
    rng.shuffle(idx)
    assert np.unique(idx).size < idx.size
    seen = []

    def counted(spec, params, x):
        seen.append(x.shape[0])
        return mlp_forward(spec, params, x)

    monkeypatch.setattr(policy_module, "mlp_forward", counted)
    dout = rng.normal(0, 1, (idx.size, net.arity))
    out, cache = net.logits_rows(space, idx)
    grad = net.logits_grad(idx, dout, cache)
    assert seen == [np.unique(idx).size]
    x = space.features(idx)
    ref_grad = np.zeros(net.n_params)
    for k in range(idx.size):  # one forward and one backward per row
        row, row_cache = mlp_forward(net.spec, net.params, x[k])
        assert np.max(np.abs(out[k] - row)) <= 1e-12
        ref_grad += mlp_backward(net.spec, net.params, row_cache, dout[k])[0]
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12


def reference_masked_log_softmax(logits, legal):
    """The masked log-softmax with its row max taken by max(axis=1)."""
    logp = np.where(legal, logits, -np.inf)
    m = logp.max(axis=1, keepdims=True)
    p = np.exp(logp - m)
    logp = logp - (m + np.log(p.sum(axis=1, keepdims=True)))
    return logp, np.exp(logp)


@pytest.mark.parametrize("arity", [1, 2, 7, 11])
def test_masked_log_softmax_column_max_keeps_the_bits(arity, rng):
    for n in (1, 5, 300):
        logits = rng.normal(0.0, 30.0, (n, arity))
        legal = rng.random((n, arity)) < 0.5
        legal[np.arange(n), rng.integers(0, arity, n)] = True  # every row keeps a legal slot
        logp, p = masked_log_softmax(logits, legal)
        ref_logp, ref_p = reference_masked_log_softmax(logits, legal)
        assert np.array_equal(logp, ref_logp) and np.array_equal(p, ref_p)
        assert np.all(np.isneginf(logp) == ~legal)


def test_tabular_scatters_keep_the_bits_of_add_at(grid3_space, rng):
    idx = rng.integers(0, grid3_space.n_states, 200)
    legal = grid3_space.edge_ids() < grid3_space.n_edges
    for k in (grid3_space.arity, 1):  # a policy on its legal edges, and a one-column flow
        block = TabularPolicy(grid3_space, np.zeros((grid3_space.n_states, k)))
        dl = rng.normal(0.0, 1.0, (idx.size, k))
        ref = np.zeros((grid3_space.n_states, k))
        np.add.at(ref, idx, dl)
        assert np.array_equal(block.logits_grad(idx, dl, None), ref[legal] if k > 1 else ref.ravel())


def assert_rows_match(got, want, tol):
    """Equal -inf masks, and the finite entries equal within `tol` (bit for
    bit when it is 0)."""
    assert got.shape == want.shape
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    if tol == 0:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got[finite] - want[finite]), initial=0.0) <= tol


@pytest.mark.parametrize("case", RECORD_CASES)
def test_sampled_step_record_is_the_replay_record(case, rng):
    pol, _, space = record_case(case, rng)
    tol = 0.0 if pol.backend == "tabular" else 1e-12
    reordered = False  # whether some stacked forward was not in np.unique order
    for batch, epsilon in ((33, 0.0), (33, 0.5), (33, 1.0), (1, 0.5)):
        steps = sample_batch(pol, space, batch, epsilon, rng, want_steps=True)
        ref = replay_steps(pol, space, steps.tb)
        assert ref.tb is steps.tb
        for got, want in zip(steps[1:4], ref[1:4]):  # valid, states and actions, row-major
            assert np.array_equal(got, want)
        assert_rows_match(steps.logp, ref.logp, tol)
        assert_rows_match(steps.p, ref.p, tol)
        if pol.backend == "tabular":
            assert steps.cache is None and ref.cache is None
            continue
        # the stacked forwards in np.unique order: the cache mlp_rows builds
        (fwd, inv, uniq), (ref_fwd, ref_inv, ref_uniq) = steps.cache, ref.cache
        assert np.array_equal(uniq, ref_uniq) and np.array_equal(inv, ref_inv)
        for got, want in zip(fwd[0] + fwd[1][:-1], ref_fwd[0] + ref_fwd[1][:-1]):
            assert_rows_match(got, want, tol)
        assert fwd[1][-1] is None
        reordered |= bool(np.any(np.diff(space.depth(uniq)) < 0))
    assert reordered == (not space.complete)  # the lazy case needs the permutation


@pytest.mark.parametrize("backend", ["tabular", "mlp"])
def test_sampled_record_at_scale_is_the_replay_record(backend):
    # sequence 6x6 with the shipped [64, 64] MLP: its steps share forwards of
    # tens to thousands of rows, and BLAS may pick its kernel by the size of
    # a call, so an MLP record equals the replay within rounding only
    env = SequenceEnv(pos_scores=(0.4, -0.2, 0.3, 0.1, -0.5, 0.2), token_scores=(0.5, -0.3, 0.2, 0.1, -0.4, 0.6))
    space = StateSpace.enumerated(env)
    gen = np.random.default_rng(1)
    pol = random_tabular(space, gen) if backend == "tabular" else MlpPolicy.create(env, (64, 64), gen)
    steps = sample_batch(pol, space, 512, 0.1, gen, want_steps=True)
    ref = replay_steps(pol, space, steps.tb)
    tol = 0.0 if backend == "tabular" else 1e-12
    assert_rows_match(steps.logp, ref.logp, tol)
    assert_rows_match(steps.p, ref.p, tol)


@pytest.mark.parametrize("space_name", ["phylo4_space", "mset33_space"])
def test_sampler_evaluates_each_distinct_state_of_a_step_once(space_name, request, rng, monkeypatch):
    space = request.getfixturevalue(space_name)
    pol = random_tabular(space, rng)
    seen = []
    original = pol.logits_rows

    def counted(space, idx):
        seen.append(idx.size)
        return original(space, idx)

    monkeypatch.setattr(pol, "logits_rows", counted)
    tb = sample_batch(pol, space, 64, 0.5, rng)
    valid = tb.valid()
    distinct = [np.unique(tb.states[valid[:, t], t]).size for t in range(tb.horizon) if valid[:, t].any()]
    assert seen == distinct and sum(seen) < valid.sum()


def test_slot_count_is_the_row_count():
    gen = np.random.default_rng(3)
    p = gen.random((200, 7))
    p[gen.random(p.shape) < 0.4] = 0.0  # zero-probability slots repeat a cumulative sum
    c = np.cumsum(p, axis=1)
    cols = gen.integers(0, 7, 200)
    draws = {
        "random": gen.random(200) * c[:, -1],
        "on a cumulative sum": c[np.arange(200), cols],
        "zero": np.zeros(200),
    }
    for name, r in draws.items():
        got = _count_below(np.ascontiguousarray(c.T), r)
        want = (c < r[:, None]).sum(axis=1)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("batch", [0, -1])
@pytest.mark.parametrize("want_steps", [False, True])
def test_sample_batch_rejects_an_empty_batch(grid3_space, batch, want_steps):
    pol = TabularPolicy(grid3_space)
    with pytest.raises(ValueError, match="batch"):
        sample_batch(pol, grid3_space, batch, 0.0, np.random.default_rng(0), want_steps=want_steps)


def test_forced_single_path_log_pf_zero():
    env = MultisetEnv(values=(0.5,), target_size=1)
    space = StateSpace.enumerated(env)
    pol = random_tabular(space, np.random.default_rng(0), scale=4.0)
    tb = sample_batch(pol, space, 1, 0.0, np.random.default_rng(0))
    assert replay_log_pf(pol, space, tb)[0] == 0.0  # every step forced
    assert replay_log_pb(space, tb)[0] == 0.0


def test_multiset_repeat_item_backward_zero():
    env = MultisetEnv(values=(0.5, 0.1), target_size=2)
    space = StateSpace.enumerated(env)
    tb = one_row_batch(space, [(0, 0), (1, 0), (2, 0)], [0, 0, 2])
    # each intermediate state has exactly one distinct removable item
    assert replay_log_pb(space, tb)[0] == 0.0


# -- snapshots ----------------------------------------------------------------


def test_snapshot_roundtrip_idempotent(grid3, grid3_space, rng):
    pol = random_tabular(grid3_space, rng)
    blob = save_snapshot(pol, grid3, meta={"loss": "CB"})
    loaded, meta = load_snapshot(blob, grid3, grid3_space)
    assert save_snapshot(loaded, grid3, meta=meta) == blob
    assert read_snapshot(blob)[0]["backward"] == {"mode": "uniform"} and meta["loss"] == "CB"
    # only the uniform backward policy loads
    with pytest.raises(SnapshotError, match="backward"):
        load_snapshot(rewritten_snapshot(blob, backward={"mode": "learned"}), grid3, grid3_space)


def test_snapshot_distributions_bit_exact(rng):
    env = GridEnv(side=4, beacons=((1, 2),))
    space = StateSpace.enumerated(env)
    pol = MlpPolicy.create(env, (8, 8), rng)
    pol.params = rng.normal(0, 1, pol.n_params)
    loaded, _ = load_snapshot(save_snapshot(pol, env), env, space)
    for _ in range(10):
        key = space.keys[rng.integers(space.n_states)]
        a = action_distribution(pol, space, key)
        b = action_distribution(loaded, space, key)
        assert np.array_equal(a, b)


def test_snapshot_fingerprint_mismatch(grid3, grid3_space, rng, mset33):
    blob = save_snapshot(random_tabular(grid3_space, rng), grid3)
    with pytest.raises(FingerprintMismatchError):
        load_snapshot(blob, mset33)


def test_snapshot_corruption_detected(grid3, grid3_space, rng):
    blob = save_snapshot(random_tabular(grid3_space, rng), grid3)
    with pytest.raises(SnapshotError):
        load_snapshot(blob[: len(blob) // 2], grid3, grid3_space)
    with pytest.raises(SnapshotError):
        load_snapshot(rewritten_snapshot(blob, version=99), grid3, grid3_space)
    params = read_snapshot(blob)[1]
    with pytest.raises(SnapshotError):
        load_snapshot(rewritten_snapshot(blob, params=params[: params.size // 2]), grid3, grid3_space)


def _with_arch(doc, **arch):
    return {**doc, "arch": {**doc["arch"], **arch}}


def _with_nan_param(doc, params):
    params = params.copy()
    params[3] = np.nan
    return doc, params.tobytes()


def _with_bool_width(doc, params):
    # the payload fits the network that the arch would be if True meant 1
    fan_in, *_, fan_out = doc["arch"]["widths"]
    return _with_arch(doc, widths=[fan_in, True, fan_out]), np.zeros(fan_in + 1 + 2 * fan_out).tobytes()


# each case maps a snapshot's (header, parameters) to a (header, payload bytes)
MALFORMED_SNAPSHOTS = {
    "no-arch": lambda d, p: ({k: v for k, v in d.items() if k != "arch"}, p.tobytes()),
    "empty-widths": lambda d, p: (_with_arch(d, widths=[]), p.tobytes()),
    "zero-width": lambda d, p: (_with_arch(d, widths=[d["arch"]["widths"][0], 0, d["arch"]["widths"][-1]]), p.tobytes()),
    "int-widths": lambda d, p: (_with_arch(d, widths=5), p.tobytes()),
    "int-params": lambda d, p: (d, np.arange(5, dtype="<i4").tobytes()),
    "list-arch": lambda d, p: ({**d, "arch": [1, 2]}, p.tobytes()),
    "list-meta": lambda d, p: ({**d, "meta": [1]}, p.tobytes()),
    "null-backward": lambda d, p: ({**d, "backward": None}, p.tobytes()),
    "list-document": lambda d, p: ([d], p.tobytes()),
    "string-slope": lambda d, p: (_with_arch(d, negative_slope="x"), p.tobytes()),
    "slope-above-one": lambda d, p: (_with_arch(d, negative_slope=1.5), p.tobytes()),
    "negative-slope": lambda d, p: (_with_arch(d, negative_slope=-0.5), p.tobytes()),
    "bool-width": _with_bool_width,
    "nan-param": _with_nan_param,
}


def _malformed(blob, case):
    doc, payload = MALFORMED_SNAPSHOTS[case](*read_snapshot(blob))
    return json.dumps(doc).encode() + b"\n" + payload


@pytest.mark.parametrize("case", sorted(MALFORMED_SNAPSHOTS))
def test_malformed_snapshot_is_a_snapshot_error(case, grid3, grid3_space, rng):
    blob = save_snapshot(MlpPolicy.create(grid3, (4,), rng), grid3)
    with pytest.raises(SnapshotError):
        load_snapshot(_malformed(blob, case), grid3, grid3_space)
    if case == "nan-param":  # a tabular payload is checked the same way
        blob = save_snapshot(random_tabular(grid3_space, rng), grid3)
        with pytest.raises(SnapshotError):
            load_snapshot(_malformed(blob, case), grid3, grid3_space)


def test_snapshot_loading_is_strict_about_version_3(mset33, mset33_space, rng):
    space = mset33_space
    pol = random_tabular(space, rng)
    blob = save_snapshot(pol, mset33)
    doc, params = read_snapshot(blob)
    assert doc["arch"] == {"n_states": space.n_states, "arity": space.arity, "n_edges": space.n_edges}
    header = blob[: blob.index(b"\n")]
    cases = {
        r"version 1\b.*version 3": rewritten_snapshot(blob, version=1),
        r"version 2\b.*version 3": text_snapshot({**doc, "version": 2}, params),
        "dense layout of version 1": rewritten_snapshot(blob, params=pol.table),
        f"holds {space.n_edges - 1} values, not one per legal edge": rewritten_snapshot(blob, params=pol.params[:-1]),
        "n_edges": rewritten_snapshot(blob, arch={**doc["arch"], "n_edges": space.n_edges + 1}),
        "undecodable snapshot header": header[: len(header) // 2],
        "not a whole number of float64": blob[:-3],
        "newline after its header": header,
    }
    for cause, bad in cases.items():
        with pytest.raises(SnapshotError, match=cause):
            load_snapshot(bad, mset33, space)
    mlp = save_snapshot(MlpPolicy.create(mset33, (4,), rng), mset33)
    with pytest.raises(SnapshotError, match=r"version 1\b.*version 3"):
        load_snapshot(rewritten_snapshot(mlp, version=1), mset33, space)
    with pytest.raises(SnapshotError, match="not a whole number of float64"):
        load_snapshot(mlp[:-4], mset33, space)


@pytest.mark.parametrize("backend", ["tabular", "mlp"])
def test_snapshot_file_is_its_header_and_its_float64s(backend, mset33, mset33_space, rng, tmp_path):
    if backend == "tabular":
        pol = random_tabular(mset33_space, rng)
    else:
        pol = MlpPolicy.create(mset33, (4,), rng)
    path = tmp_path / "p.gfnpolicy"
    path.write_bytes(save_snapshot(pol, mset33, meta={"note": "a\nb"}))  # a newline in meta is escaped
    doc, params = read_snapshot(path.read_bytes())
    header = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    assert path.stat().st_size == len(header) + 1 + 8 * pol.n_params
    assert np.array_equal(params, pol.get_params()) and doc["meta"] == {"note": "a\nb"}


# -- tabular parameters on legal edges ------------------------------------------

EDGE_SPACES = ["grid3_space", "mset33_space", "seq22_space", "phylo4_space"]


@pytest.mark.parametrize("name", EDGE_SPACES)
def test_edge_map_numbers_the_legal_slots_row_major(name, request):
    space = request.getfixturevalue(name)
    legal = space.children_rows(np.arange(space.n_states)) != CHILD_ILLEGAL
    ids = space.edge_ids()
    assert space.n_edges == legal.sum() < legal.size
    assert np.array_equal(ids[legal], np.arange(space.n_edges))
    assert np.all(ids[~legal] == space.n_edges)


def test_edge_map_is_built_on_first_use_and_shared_by_views(grid3):
    space = StateSpace.enumerated(grid3)
    assert "ids" not in space._shared  # enumeration does not pay for it
    view = space.for_env(GridEnv(side=3, beacons=((2, 0),)))
    assert view.edge_ids() is space.edge_ids()
    assert view.n_edges == space.n_edges


@pytest.mark.parametrize("name", EDGE_SPACES)
def test_tabular_policy_on_edges_keeps_the_dense_rows_and_gradients(name, request, rng):
    space = request.getfixturevalue(name)
    n, k = space.n_states, space.arity
    table = rng.normal(0.0, 1.0, (n, k))
    pol = TabularPolicy(space, table)
    legal = space.children_rows(np.arange(n)) != CHILD_ILLEGAL
    assert pol.n_params == space.n_edges
    assert np.array_equal(pol.table, np.where(legal, table, 0.0))
    assert not pol.table.flags.writeable
    idx = rng.integers(0, n, 300)
    rows, _ = pol.logits_rows(space, idx)
    assert np.array_equal(rows[legal[idx]], table[idx][legal[idx]])
    dl = rng.normal(0.0, 1.0, (idx.size, k))
    assert np.array_equal(pol.logits_grad(idx, dl, None), row_sums(idx, dl, n)[legal])
    # a one-column flow keeps one value per state
    col = rng.normal(0.0, 1.0, (n, 1))
    flow = TabularPolicy(space, col)
    assert flow.n_params == n and np.array_equal(flow.table, col)
    assert np.array_equal(flow.logits_rows(space, idx)[0], col[idx])
    # the snapshot payload is one float64 per legal edge
    assert read_snapshot(save_snapshot(pol, space.env))[1].size == space.n_edges
    assert np.array_equal(load_snapshot(save_snapshot(pol, space.env), space.env, space)[0].table, pol.table)


@pytest.mark.parametrize("name", EDGE_SPACES)
def test_one_column_block_equals_the_dense_row_major_reference(name, request, rng):
    # the dense reference a non-policy block kept before every block read
    # through an id map: a reshape of its params, and `row_sums` for the gradient
    space = request.getfixturevalue(name)
    n = space.n_states
    flow = TabularPolicy(space, k=1, params=rng.normal(0.0, 1.0, n))
    dense = flow.params.reshape(n, 1)
    idx = rng.integers(0, n, 300)
    dl = rng.normal(0.0, 1.0, (idx.size, 1))
    for got, want in [
        (flow.table, dense),
        (flow.logits_rows(space, idx)[0], dense[idx]),
        (flow.logits_grad(idx, dl, None), row_sums(idx, dl, n).ravel()),
    ]:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("backend", ["tabular", "mlp"])
def test_sample_batch_evaluates_no_reward(seq22, backend, rng):
    # sampling reads no reward; a loss reads log R through the space's cache
    env, seen = counting_rewards(seq22)
    if backend == "tabular":
        space = StateSpace.enumerated(env)
        pol = random_tabular(space, rng)
    else:  # a lazily expanded space
        space = StateSpace(env)
        pol = MlpPolicy.create(env, (8,), rng)
    tb = sample_batch(pol, space, 32, 0.5, rng)
    sample_batch(pol, space, 32, 0.5, rng, want_steps=True)
    assert seen[0] == 0
    space.log_rewards(tb.terminal_idx())  # the count sees a read
    assert seen[0] == np.unique(tb.terminal_idx()).size


def test_balanced_policy_satisfies_trajectory_balance(mset33, mset33_space, rng):
    pol = balanced_tabular_policy(mset33_space)
    tb = sample_batch(pol, mset33_space, 64, 0.5, rng)
    pf = replay_log_pf(pol, mset33_space, tb)
    pb = replay_log_pb(mset33_space, tb)
    v = pf - pb - mset33_space.log_rewards(tb.terminal_idx())  # should be constant -log Z across trajectories
    assert np.max(v) - np.min(v) <= 1e-10
