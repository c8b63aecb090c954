"""Property-based invariants over randomized environments and policies."""

import numpy as np
from hypothesis import given, settings, strategies as st

import gfnpool.policy
from gfnpool.envs import GridEnv, MultisetEnv, SequenceEnv, StateSpace
from gfnpool.envs.phylo import encode_tree, parse_tree
from gfnpool.evaluation import exact_pT
from gfnpool.losses import PooledLocals, cb_loss_batch, tb_violations, vl_loss_batch
from gfnpool.nn import AdamWState, ParamGroup, adamw_step
from gfnpool.policy import (
    MlpPolicy,
    TabularPolicy,
    masked_log_softmax,
    replay_log_pb,
    replay_log_pf,
    sample_batch,
    step_log_pf,
)
from tests.conftest import (
    assert_key_matrix,
    assert_same_space,
    key_walk,
    level_walk,
    reference_exact_pT,
    reference_key_walk,
    reference_pooled_table,
)

small_envs = st.one_of(
    st.builds(
        GridEnv,
        side=st.integers(2, 4),
        beacons=st.just(((1, 1),)),
    ),
    st.builds(
        MultisetEnv,
        values=st.tuples(*[st.floats(-1, 1) for _ in range(3)]),
        target_size=st.integers(1, 3),
    ),
    st.builds(
        SequenceEnv,
        pos_scores=st.tuples(*[st.floats(-1, 1) for _ in range(3)]),
        token_scores=st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
    ),
)


small_int_key_envs = st.one_of(
    st.builds(
        MultisetEnv,
        values=st.lists(st.floats(-1, 1), min_size=1, max_size=5).map(tuple),
        target_size=st.integers(1, 5),
    ),
    st.builds(
        SequenceEnv,
        pos_scores=st.lists(st.floats(-1, 1), min_size=1, max_size=4).map(tuple),
        token_scores=st.lists(st.floats(-1, 1), min_size=1, max_size=4).map(tuple),
    ),
)


@settings(max_examples=25, deadline=None)
@given(env=small_int_key_envs)
def test_level_walk_equals_per_key_walk_everywhere(env):
    want = reference_key_walk(env)
    got = level_walk(env)
    assert_key_matrix(got, want)
    assert_same_space(got, want)  # builds the keys from the matrix
    assert_same_space(key_walk(env), want)


@settings(max_examples=25, deadline=None)
@given(env=small_envs, seed=st.integers(0, 2**31 - 1), chunk=st.integers(1, 12))
def test_chunked_reads_match_the_whole_level_call_everywhere(env, seed, chunk):
    # any chunk reads every row once and in place; a chunk no smaller than
    # any level reads each level in one call, and so keeps its bits
    gen = np.random.default_rng(seed)
    space = StateSpace.enumerated(env)
    pols = [MlpPolicy.create(env, (5, 4), gen) for _ in range(2)]
    for pol in pols:
        pol.params = gen.normal(0.0, 1.0, pol.n_params)
    weights = (0.5, 1.5)
    want_p = reference_exact_pT(pols[0], space)
    want_rows = reference_pooled_table(space, pols, weights)
    widest = max(lv.size for lv in space.levels())
    shipped = gfnpool.policy.FORWARD_CHUNK
    for c, exact in ((chunk, chunk >= widest), (widest, True)):
        gfnpool.policy.FORWARD_CHUNK = c
        try:
            got_p = exact_pT(pols[0], space).p
            pooled = PooledLocals(space, pols, weights)
            got_rows = np.concatenate([pooled.rows(lv) for lv in space.levels()])
        finally:
            gfnpool.policy.FORWARD_CHUNK = shipped
        want = want_rows[np.concatenate(space.levels())]
        if exact:
            assert got_p.tobytes() == want_p.tobytes() and got_rows.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got_p, want_p, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got_rows, want, rtol=0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(env=small_envs, seed=st.integers(0, 2**31 - 1))
def test_children_parents_duality_everywhere(env, seed):
    space = StateSpace.enumerated(env)
    for key in space.keys:
        for a, child, stop in env.children(key):
            if not stop:
                assert (key, a) in env.parents(child)
        if key != env.initial_key():
            for parent, a in env.parents(key):
                assert (a, key, False) in env.children(parent)


@settings(max_examples=25, deadline=None)
@given(env=small_envs, seed=st.integers(0, 2**31 - 1))
def test_sampled_trajectories_consistent(env, seed):
    rng = np.random.default_rng(seed)
    space = StateSpace.enumerated(env)
    pol = TabularPolicy(space, rng.normal(0, 2, (space.n_states, space.arity)))
    steps = sample_batch(pol, space, 8, float(rng.uniform(0, 1)), rng, want_steps=True)
    tb = steps.tb
    # the sampler's on-policy record equals recomputation, bit for bit
    assert np.array_equal(replay_log_pf(pol, space, tb), step_log_pf(steps))
    # replayed backward log-probs equal the parent counts of the env itself
    oracle = [
        -sum(np.log(len(env.parents(space.keys[i]))) for i in tb.states[k, 1:n])
        for k, n in enumerate(tb.lengths)
    ]
    assert np.max(np.abs(replay_log_pb(space, tb) - oracle)) <= 1e-12
    # lengths respect the step budget; terminals are terminal
    assert np.all(tb.lengths <= env.max_traj_len)
    assert np.all(space.terminal_mask(tb.terminal_idx()))


@settings(max_examples=50, deadline=None)
@given(
    logits=st.lists(st.floats(-30, 30), min_size=4, max_size=4),
    mask=st.lists(st.booleans(), min_size=4, max_size=4).filter(any),
)
def test_masked_softmax_normalizes_and_zeroes(logits, mask):
    lp, p = masked_log_softmax(np.array([logits]), np.array([mask]))
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.all(p[0][~np.array(mask)] == 0.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), logz=st.floats(-20, 20))
def test_cb_invariant_to_logz_and_vl_pair_identity(seed, logz):
    rng = np.random.default_rng(seed)
    env = MultisetEnv(values=(0.4, -0.7), target_size=2)
    space = StateSpace.enumerated(env)
    pol = TabularPolicy(space, rng.normal(0, 1, (space.n_states, space.arity)))
    steps = sample_batch(pol, space, 8, 0.5, rng, want_steps=True)
    v = tb_violations(space, steps, logz)
    cb, _ = cb_loss_batch(pol, space, steps)
    assert abs(cb - float(np.mean((v[:4] - v[4:]) ** 2))) <= 1e-10
    vl, _ = vl_loss_batch(pol, space, steps)
    pairs = float(np.mean([(a - b) ** 2 for a in v for b in v]))
    assert abs(pairs - 2 * vl) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_phylo_tree_encoding_idempotent_under_shuffle(seed):
    rng = np.random.default_rng(seed)
    from gfnpool.envs import random_topology

    key = random_topology(rng.integers(3, 8), rng)[0]

    def shuffled(node):
        if isinstance(node, int):
            return node
        a, b = node
        if rng.random() < 0.5:
            a, b = b, a
        return (shuffled(a), shuffled(b))

    assert encode_tree(shuffled(parse_tree(key))) == key
    assert encode_tree(parse_tree(key)) == key


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), steps=st.integers(1, 5))
def test_adamw_steps_stay_finite_and_deterministic(seed, steps):
    rng = np.random.default_rng(seed)
    n = 16
    s1 = AdamWState([ParamGroup("p", n)], lr=3e-3, weight_decay=1e-4)
    s2 = AdamWState([ParamGroup("p", n)], lr=3e-3, weight_decay=1e-4)
    p1 = rng.normal(0, 1, n)
    p2 = p1.copy()
    for k in range(steps):
        g = np.sin(p1 * (k + 1))  # deterministic pseudo-gradient
        p1 = adamw_step(s1, p1, g)
        p2 = adamw_step(s2, p2, np.sin(p2 * (k + 1)))
    assert np.array_equal(p1, p2)
    assert np.all(np.isfinite(p1))
