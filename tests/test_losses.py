import numpy as np
import pytest

from gfnpool.envs import GridEnv, MultisetEnv, SequenceEnv, StateSpace
from gfnpool.errors import RewardSupportError, UnsupportedLossError
from gfnpool.losses import (
    LossSpec,
    PooledLocals,
    ab_loss_batch,
    cb_loss_batch,
    db_loss_batch,
    dbc_loss_batch,
    tb_loss_batch,
    tb_violations,
    vl_loss_batch,
)
from gfnpool.evaluation import count_trajectories, enumerate_trajectory_batches
from gfnpool.policy import (
    MlpPolicy,
    TabularPolicy,
    apply_log_pf_grad,
    balanced_tabular_policy,
    masked_log_softmax,
    replay_log_pb,
    replay_log_pf,
    replay_steps,
    sample_batch,
    step_log_pf,
)
from tests.conftest import (
    RECORD_CASES,
    action_distribution,
    mlp_flow,
    one_row_batch,
    paths,
    random_tabular,
    record_case,
)


def oracle_log_pf(policy, space, env, path):
    """Test-side recomputation from per-state action distributions."""
    states, actions = path
    total = 0.0
    for s, a in zip(states, actions):
        total += np.log(action_distribution(policy, space, s)[a])
    return total


def loop_log_pf(policy, space, tb):
    """Reference replay: one masked softmax per step t, added in t order."""
    sums = np.zeros(tb.batch_size)
    for t in range(tb.horizon):
        sel = np.flatnonzero(t < tb.lengths)
        s, a = tb.states[sel, t], tb.actions[sel, t]
        logp, _ = masked_log_softmax(policy.logits_rows(space, s)[0], space.children_rows(s) != -1)
        sums[sel] += logp[np.arange(sel.size), a]
    return sums


def oracle_log_pb(env, path):
    return -sum(np.log(len(env.parents(s))) for s in path[0][1:])


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        LossSpec("XX")
    with pytest.raises(ValueError):
        LossSpec("CB", weights=(1.0, -1.0))


# -- TB ------------------------------------------------------------------------


def test_tb_zero_at_balance():
    env = MultisetEnv(values=(0.7, -0.4), target_size=1)  # two-terminal chain
    space = StateSpace.enumerated(env)
    pol = balanced_tabular_policy(space)
    logz = float(np.log(np.exp(0.7) + np.exp(-0.4)))
    steps = sample_batch(pol, space, 8, 0.0, np.random.default_rng(0), want_steps=True)
    loss, grads = tb_loss_batch(pol, space, steps, logz)
    assert loss <= 1e-16
    assert np.max(np.abs(grads["policy"])) <= 1e-7


def test_tb_quadratic_in_logz_offset():
    env = MultisetEnv(values=(0.7, -0.4), target_size=1)
    space = StateSpace.enumerated(env)
    pol = balanced_tabular_policy(space)
    logz = float(np.log(np.exp(0.7) + np.exp(-0.4)))
    steps = sample_batch(pol, space, 8, 0.0, np.random.default_rng(0), want_steps=True)
    c = 0.37
    loss, _ = tb_loss_batch(pol, space, steps, logz + c)
    assert loss == pytest.approx(c**2, rel=1e-10)


def test_tb_value_matches_formula_oracle(grid3, grid3_space, rng):
    pol = random_tabular(grid3_space, rng)
    steps = sample_batch(pol, grid3_space, 16, 0.3, rng, want_steps=True)
    logz = 0.42
    loss, _ = tb_loss_batch(pol, grid3_space, steps, logz)
    expected = []
    for path in paths(grid3_space, steps.tb):
        v = (
            logz
            + oracle_log_pf(pol, grid3_space, grid3, path)
            - oracle_log_pb(grid3, path)
            - grid3.log_reward(path[0][-1])
        )
        expected.append(v**2)
    assert loss == pytest.approx(float(np.mean(expected)), rel=1e-12)
    # a one-row batch agrees
    single, _ = tb_loss_batch(pol, grid3_space, replay_steps(pol, grid3_space, steps.tb.subset([0])), logz)
    assert single == pytest.approx(expected[0], rel=1e-12)


def test_tb_rejects_a_zero_reward(grid3, rng):
    # the loss reads log R from the space, and a terminal of zero reward raises
    zero = type("ZeroGrid", (GridEnv,), {"log_reward": lambda self, s: -np.inf})
    env = zero(side=grid3.side, beacons=grid3.beacons, kappa=grid3.kappa, delta=grid3.delta)
    space = StateSpace.enumerated(env)
    pol = random_tabular(space, rng)
    steps = sample_batch(pol, space, 4, 0.0, rng, want_steps=True)
    with pytest.raises(RewardSupportError, match="zero or non-finite reward"):
        tb_loss_batch(pol, space, steps, 0.0)


# -- DB ------------------------------------------------------------------------


def test_db_zero_on_forced_chain_with_matched_flow():
    env = MultisetEnv(values=(0.9,), target_size=3)  # single forced chain
    space = StateSpace.enumerated(env)
    pol = TabularPolicy(space)  # forced probabilities are 1 regardless
    flow = TabularPolicy(space, np.zeros((space.n_states, 1)))  # log F = 0 everywhere: interior edges balance
    # boundary: set log F(x) = log R(x) - log p(stop|x) = log R(x)
    term = space.terminal_indices()
    vals = flow.get_params()
    vals[term] = space.log_rewards(term)
    flow.set_params(vals)
    # interior flows must match too: F(s) = F(s') since pF = pB = 1
    vals[:] = space.log_rewards(term)[0]
    flow.set_params(vals)
    steps = sample_batch(pol, space, 4, 0.0, np.random.default_rng(0), want_steps=True)
    loss, _ = db_loss_batch(pol, flow, space, steps)
    assert loss <= 1e-20


def test_db_zero_at_exact_flows(mset33, mset33_space, rng):
    # flows from the same dynamic program that balances the policy
    from gfnpool.policy import balanced_tabular_policy as btp

    pol = btp(mset33_space)
    # reconstruct log G from the policy construction: G(s) = R(s)/p(stop|s) at terminals
    n = mset33_space.n_states
    log_g = np.full(n, -np.inf)
    term = mset33_space.terminal_indices()
    stop = mset33.stop_action
    for i in term:
        p_stop = action_distribution(pol, mset33_space, mset33_space.keys[i])[stop]
        log_g[i] = mset33_space.log_rewards(np.array([i]))[0] - np.log(p_stop)
    for lv in reversed(mset33_space.levels()):
        for i in lv:
            if np.isfinite(log_g[i]):
                continue
            row = mset33_space.children_rows(np.array([i]))[0]
            p = action_distribution(pol, mset33_space, mset33_space.keys[i])
            a = int(np.flatnonzero(row >= 0)[0])
            c = int(row[a])
            # G(s) = G(c) p_B(s|c) / p_F(c|s)
            log_g[i] = log_g[c] - np.log(mset33_space.nparents(c)) - np.log(p[a])
    flow = TabularPolicy(mset33_space, log_g[:, None])
    steps = sample_batch(pol, mset33_space, 32, 0.5, rng, want_steps=True)
    loss, _ = db_loss_batch(pol, flow, mset33_space, steps)
    assert loss <= 1e-18


def test_db_terminal_edge_boundary_condition(grid3, grid3_space, rng):
    pol = random_tabular(grid3_space, rng)
    flow = TabularPolicy(grid3_space, rng.normal(0, 1, (grid3_space.n_states, 1)))
    s = (0, 0)  # a batch that stops at the root: its one edge is the stop edge
    i = grid3_space.index[s]
    p_stop = action_distribution(pol, grid3_space, s)[2]
    vals = flow.get_params()
    vals[i] = grid3.log_reward(s) - np.log(p_stop)
    flow.set_params(vals)
    steps = replay_steps(pol, grid3_space, one_row_batch(grid3_space, [s], [2]))
    loss, _ = db_loss_batch(pol, flow, grid3_space, steps)
    assert loss <= 1e-20


def test_db_value_matches_formula_oracle(grid3, grid3_space, rng):
    pol = random_tabular(grid3_space, rng)
    flow = TabularPolicy(grid3_space, rng.normal(0, 1, (grid3_space.n_states, 1)))
    steps = sample_batch(pol, grid3_space, 8, 0.3, rng, want_steps=True)
    loss, _ = db_loss_batch(pol, flow, grid3_space, steps)
    viols = []
    for states, actions in paths(grid3_space, steps.tb):
        for t, (s, a) in enumerate(zip(states, actions)):
            p = action_distribution(pol, grid3_space, s)
            lf_s = flow.logits_rows(grid3_space, np.array([grid3_space.index[s]]))[0][0, 0]
            if t == len(actions) - 1:
                v = lf_s + np.log(p[a]) - grid3.log_reward(s)
            else:
                s2 = states[t + 1]
                lf_n = flow.logits_rows(grid3_space, np.array([grid3_space.index[s2]]))[0][0, 0]
                v = np.log(p[a]) + np.log(len(grid3.parents(s2))) + lf_s - lf_n
            viols.append(v**2)
    assert loss == pytest.approx(float(np.mean(viols)), rel=1e-12)


# -- DBC -----------------------------------------------------------------------


def test_dbc_zero_on_symmetric_two_cell_graph():
    # one token, length one, zero scores: R constant, graph fully symmetric
    env = SequenceEnv(pos_scores=(0.0,), token_scores=(0.0,))
    space = StateSpace.enumerated(env)
    pol = TabularPolicy(space)  # uniform
    steps = replay_steps(pol, space, one_row_batch(space, [(), (0,)], [0, env.stop_action]))
    loss, grads = dbc_loss_batch(pol, space, steps)
    assert loss <= 1e-30
    assert np.max(np.abs(grads["policy"])) <= 1e-15


def test_dbc_unsupported_on_multiset(mset33, mset33_space, rng):
    pol = random_tabular(mset33_space, rng)
    steps = sample_batch(pol, mset33_space, 4, 0.0, rng, want_steps=True)
    with pytest.raises(UnsupportedLossError):
        dbc_loss_batch(pol, mset33_space, steps)


def test_dbc_value_matches_formula_oracle(grid3, grid3_space, rng):
    pol = random_tabular(grid3_space, rng)
    steps = sample_batch(pol, grid3_space, 8, 0.3, rng, want_steps=True)
    loss, _ = dbc_loss_batch(pol, grid3_space, steps)
    viols = []
    for states, actions in paths(grid3_space, steps.tb):
        for t in range(len(actions) - 1):
            s, a, s2 = states[t], actions[t], states[t + 1]
            p_s = action_distribution(pol, grid3_space, s)
            p_n = action_distribution(pol, grid3_space, s2)
            v = (
                grid3.log_reward(s2)
                - np.log(len(grid3.parents(s2)))
                + np.log(p_s[2])
                - grid3.log_reward(s)
                - np.log(p_s[a])
                - np.log(p_n[2])
            )
            viols.append(v**2)
    assert loss == pytest.approx(float(np.mean(viols)), rel=1e-12)


# -- CB ------------------------------------------------------------------------


def test_cb_identical_pair_is_zero(grid3, grid3_space, rng):
    pol = random_tabular(grid3_space, rng)
    tb = sample_batch(pol, grid3_space, 4, 0.2, rng)
    twice = tb.subset(np.tile(np.arange(4), 2))  # trajectory k paired with itself
    loss, grads = cb_loss_batch(pol, grid3_space, replay_steps(pol, grid3_space, twice))
    assert loss == 0.0
    assert np.all(grads["policy"] == 0.0)


def test_cb_equals_violation_contrast_any_logz(grid3, grid3_space, rng):
    pol = random_tabular(grid3_space, rng)
    steps = sample_batch(pol, grid3_space, 200, 0.3, rng, want_steps=True)
    loss, _ = cb_loss_batch(pol, grid3_space, steps)
    for logz in (0.0, -3.7, 12.5):
        v = tb_violations(grid3_space, steps, logz)
        assert loss == pytest.approx(float(np.mean((v[:100] - v[100:]) ** 2)), rel=1e-12)


def test_cb_value_matches_formula_oracle(grid3, grid3_space, rng):
    pol = random_tabular(grid3_space, rng)
    steps = sample_batch(pol, grid3_space, 2, 0.5, rng, want_steps=True)
    tr1, tr2 = paths(grid3_space, steps.tb)
    ratio1 = oracle_log_pf(pol, grid3_space, grid3, tr1) - oracle_log_pb(grid3, tr1)
    ratio2 = oracle_log_pf(pol, grid3_space, grid3, tr2) - oracle_log_pb(grid3, tr2)
    expected = (
        ratio1
        - ratio2
        + grid3.log_reward(tr2[0][-1])
        - grid3.log_reward(tr1[0][-1])
    ) ** 2
    loss, _ = cb_loss_batch(pol, grid3_space, steps)
    assert loss == pytest.approx(float(expected), rel=1e-12)


# -- VL ------------------------------------------------------------------------


def test_vl_identical_violations_zero(grid3, grid3_space, rng):
    pol = random_tabular(grid3_space, rng)
    one = sample_batch(pol, grid3_space, 1, 0.0, rng)
    rep = one.subset(np.zeros(4, dtype=int))
    loss, _ = vl_loss_batch(pol, grid3_space, replay_steps(pol, grid3_space, rep))
    assert loss == 0.0


def test_vl_matches_deviation_arithmetic(grid3, grid3_space, rng):
    pol = random_tabular(grid3_space, rng)
    steps = sample_batch(pol, grid3_space, 2, 0.5, rng, want_steps=True)
    v = tb_violations(grid3_space, steps)
    loss, _ = vl_loss_batch(pol, grid3_space, steps)
    # two-element batch: mean squared deviation is ((v1-v2)/2)^2
    assert loss == pytest.approx(float(((v[0] - v[1]) / 2) ** 2), rel=1e-12)
    with pytest.raises(ValueError):
        vl_loss_batch(pol, grid3_space, replay_steps(pol, grid3_space, steps.tb.subset(slice(0, 1))))


def test_cb_vl_pair_identity_sixteen(grid3, grid3_space, rng):
    pol = random_tabular(grid3_space, rng)
    steps = sample_batch(pol, grid3_space, 16, 0.4, rng, want_steps=True)
    v = tb_violations(grid3_space, steps)
    pair_mean = float(np.mean([(a - b) ** 2 for a in v for b in v]))
    vl, _ = vl_loss_batch(pol, grid3_space, steps)
    assert abs(pair_mean - 2.0 * vl) <= 1e-10


# -- AB ------------------------------------------------------------------------


def test_ab_identical_pair_and_self_pooling(grid3, grid3_space, rng):
    pol = random_tabular(grid3_space, rng)
    tb = sample_batch(pol, grid3_space, 8, 0.5, rng)
    pooled = PooledLocals(grid3_space, [pol])
    twice = tb.subset(np.tile(np.arange(8), 2))  # trajectory k paired with itself
    loss, _ = ab_loss_batch(pol, grid3_space, replay_steps(pol, grid3_space, twice), pooled)
    assert loss == 0.0  # identical pairs: both deltas vanish
    steps = sample_batch(pol, grid3_space, 16, 0.5, rng, want_steps=True)
    loss, grads = ab_loss_batch(pol, grid3_space, steps, pooled)
    assert loss == 0.0  # global == single local: deltas cancel exactly
    assert np.all(grads["policy"] == 0.0)


def test_ab_value_matches_formula_oracle(grid3, grid3_space, rng):
    glob = random_tabular(grid3_space, rng)
    locs = [random_tabular(grid3_space, rng) for _ in range(3)]
    omega = (0.5, 1.0, 2.0)
    steps = sample_batch(glob, grid3_space, 2, 0.5, rng, want_steps=True)
    tr1, tr2 = paths(grid3_space, steps.tb)

    def delta(policy):
        r1 = oracle_log_pf(policy, grid3_space, grid3, tr1) - oracle_log_pb(grid3, tr1)
        r2 = oracle_log_pf(policy, grid3_space, grid3, tr2) - oracle_log_pb(grid3, tr2)
        return r1 - r2

    expected = (delta(glob) - sum(w * delta(p) for w, p in zip(omega, locs))) ** 2
    loss, _ = ab_loss_batch(glob, grid3_space, steps, PooledLocals(grid3_space, locs, omega))
    assert loss == pytest.approx(float(expected), rel=1e-11)


def test_ab_requires_locals(grid3, grid3_space, rng):
    pol = random_tabular(grid3_space, rng)
    steps = sample_batch(pol, grid3_space, 4, 0.5, rng, want_steps=True)
    with pytest.raises(ValueError):
        ab_loss_batch(pol, grid3_space, steps, PooledLocals(grid3_space))
    for bad in [(1.0, 2.0), (0.0,), (-1.0,), (float("nan"),), (float("inf"),), ("1",)]:
        with pytest.raises(ValueError):
            PooledLocals(grid3_space, [pol], bad)
    pooled = PooledLocals(grid3_space, [MlpPolicy.create(grid3, (8,), rng)])
    pooled.log_pf(steps.tb)
    with pytest.raises(ValueError):  # its rows already met would miss it
        pooled.add(MlpPolicy.create(grid3, (8,), rng))


def test_ab_never_touches_rewards(grid3, grid3_space, rng):
    # batches without rewards are accepted: the loss cannot depend on R
    pol = random_tabular(grid3_space, rng)
    steps = sample_batch(pol, grid3_space, 8, 0.5, rng, want_steps=True)
    loss, _ = ab_loss_batch(pol, grid3_space, steps, PooledLocals(grid3_space, [random_tabular(grid3_space, rng)]))
    assert np.isfinite(loss)


@pytest.mark.parametrize(
    "env",
    [
        GridEnv(side=3, beacons=((1, 1),)),
        SequenceEnv(pos_scores=(1.0, 0.5, -0.5, 2.0), token_scores=(0.3, -0.2, 0.1, 0.4)),
        # 9 steps: np.sum(axis=1) would sum pairwise and miss the loop's bits here
        MultisetEnv(values=(0.2, -0.4, 0.9, 0.1), target_size=8),
    ],
    ids=["grid3x3", "sequence4x4", "multiset4x8"],
)
def test_pooled_locals_log_pf_equals_replay(env, rng):
    space = StateSpace.enumerated(env)
    tabular = [random_tabular(space, rng) for _ in range(3)]
    mlp = [MlpPolicy.create(env, (8, 8), rng) for _ in range(3)]
    omega = (0.5, 1.0, 2.0)
    for sampler in (tabular[0], mlp[0]):
        for epsilon in (0.0, 0.5, 1.0):
            tb = sample_batch(sampler, space, 64, epsilon, rng)
            # the flat step gather of replay_log_pf against the per-step loop
            for pol in tabular:
                assert np.array_equal(replay_log_pf(pol, space, tb), loop_log_pf(pol, space, tb))
            for pol in mlp:
                assert np.max(np.abs(replay_log_pf(pol, space, tb) - loop_log_pf(pol, space, tb))) <= 1e-12
            # one tabular local of weight 1: L is its log-softmax table, bit for bit
            ref = replay_log_pf(tabular[0], space, tb)
            assert np.array_equal(PooledLocals(space, tabular[:1]).log_pf(tb), ref)
            for pols in (tabular, mlp):
                pooled = PooledLocals(space, pols, omega)
                assert pooled.total_weight == 3.5
                ref = sum(w * replay_log_pf(p, space, tb) for w, p in zip(omega, pols))
                assert np.max(np.abs(pooled.log_pf(tb) - ref)) <= 1e-12


@pytest.mark.parametrize("space_name", ["grid2_space", "mset33_space"])
def test_ab_pair_gradient_is_four_kl_gradients(request, space_name, rng):
    # E_{tau1, tau2 ~ p_F} grad AB = 4 grad KL(p_F || q_hat), with
    # q_hat(tau) prop. to p_B(tau|x) prod_n (p_F^n(tau) / p_B(tau|x))^w_n
    space = request.getfixturevalue(space_name)
    glob = random_tabular(space, rng)
    locs = [random_tabular(space, rng) for _ in range(3)]
    omega = (0.5, 1.0, 2.0)
    (tb,) = enumerate_trajectory_batches(space, chunk=count_trajectories(space))
    steps = replay_steps(glob, space, tb)
    pf = step_log_pf(steps)
    pb = replay_log_pb(space, tb)
    log_q = pb + sum(w * (replay_log_pf(p, space, tb) - pb) for w, p in zip(omega, locs))
    kl_grad = apply_log_pf_grad(glob, space, steps, np.exp(pf) * (pf - log_q))
    n = tb.batch_size
    rep, til = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
    pairs = replay_steps(glob, space, tb.subset(np.concatenate([rep, til])))
    _, grads = ab_loss_batch(
        glob, space, pairs, PooledLocals(space, locs, omega), pair_weights=np.exp(pf[rep] + pf[til])
    )
    assert np.max(np.abs(grads["policy"] - 4.0 * kl_grad)) <= 1e-12


# -- zero at optimum, all criteria ----------------------------------------------


def test_all_losses_vanish_at_exact_flows(rng):
    env = GridEnv(side=3, beacons=((2, 1),))
    space = StateSpace.enumerated(env)
    pol = balanced_tabular_policy(space)
    # logZ for TB is the root flow; recover via one trajectory's violation
    steps = sample_batch(pol, space, 64, 0.5, rng, want_steps=True)
    logz = -float(tb_violations(space, steps, 0.0)[0])
    loss_tb, _ = tb_loss_batch(pol, space, steps, logz)
    assert loss_tb <= 1e-18
    loss_cb, _ = cb_loss_batch(pol, space, steps)
    assert loss_cb <= 1e-18
    loss_vl, _ = vl_loss_batch(pol, space, steps)
    assert loss_vl <= 1e-18
    loss_dbc, _ = dbc_loss_batch(pol, space, steps)
    assert loss_dbc <= 1e-18


# -- the sampler's step record against a replay ----------------------------------


def _loss_from(kind, pol, flow, space, pooled, steps):
    if kind == "TB":
        return tb_loss_batch(pol, space, steps, 0.3)
    if kind == "DB":
        return db_loss_batch(pol, flow, space, steps)
    if kind == "DBC":
        return dbc_loss_batch(pol, space, steps)
    if kind == "CB":
        return cb_loss_batch(pol, space, steps)
    if kind == "VL":
        return vl_loss_batch(pol, space, steps)
    return ab_loss_batch(pol, space, steps, pooled)


def _case_locals(pol, space, rng):
    if pol.backend == "tabular":
        locs = [random_tabular(space, rng) for _ in range(2)]
    else:
        locs = [MlpPolicy.create(space.env, (8, 8), rng) for _ in range(2)]
    return PooledLocals(space, locs, (0.5, 1.5))


def _assert_same_loss(got, want, tol):
    (got_loss, got), (want_loss, want) = got, want
    assert abs(got_loss - want_loss) <= tol * max(1.0, abs(want_loss))
    assert sorted(got) == sorted(want)
    for name in want:
        assert np.max(np.abs(np.subtract(got[name], want[name]))) <= tol, name


@pytest.mark.parametrize("kind", ["TB", "DB", "DBC", "CB", "VL", "AB"])
@pytest.mark.parametrize("case", [c for c in RECORD_CASES if not c.startswith("multiset")])
def test_losses_read_the_sampled_record_as_a_replay(case, kind, rng):
    pol, flow, space = record_case(case, rng)
    pooled = _case_locals(pol, space, rng)
    tol = 0.0 if pol.backend == "tabular" else 1e-12
    for batch in (16, 13):
        steps = sample_batch(pol, space, batch, 0.4, rng, want_steps=True)
        replay = replay_steps(pol, space, steps.tb)
        got, want = (_loss_from(kind, pol, flow, space, pooled, s) for s in (steps, replay))
        _assert_same_loss(got, want, tol)


@pytest.mark.parametrize("kind", ["CB", "AB"])
@pytest.mark.parametrize("case", ["grid3-tabular", "grid3-mlp", "lazy-sequence-mlp"])
def test_an_odd_batch_leaves_its_last_trajectory_out_of_the_pairs(case, kind, rng):
    # a pair loss on 2n + 1 trajectories is the same loss on the first 2n
    pol, flow, space = record_case(case, rng)
    pooled = _case_locals(pol, space, rng)
    for n in (1, 6):
        steps = sample_batch(pol, space, 2 * n + 1, 0.4, rng, want_steps=True)
        even = replay_steps(pol, space, steps.tb.subset(slice(0, 2 * n)))
        got, want = (_loss_from(kind, pol, flow, space, pooled, s) for s in (steps, even))
        if pol.backend == "tabular":
            assert got[0] == want[0] and np.array_equal(got[1]["policy"], want[1]["policy"])
        else:
            _assert_same_loss(got, want, 1e-12)
    with pytest.raises(ValueError, match="at least 2"):
        _loss_from(kind, pol, flow, space, pooled, sample_batch(pol, space, 1, 0.4, rng, want_steps=True))


# -- gradient checks on both backends --------------------------------------------


def _fd_worst(fn, obj, rng, key="policy", probes=40, h=1e-5):
    loss, grads_all = fn()
    g = grads_all[key]
    assert np.isfinite(loss) and np.all(np.isfinite(g))  # max() below would skip a NaN
    base = obj.get_params()
    worst = 0.0
    for i in rng.choice(g.size, size=min(probes, g.size), replace=False):
        p = base.copy()
        p[i] += h
        obj.set_params(p)
        up, _ = fn()
        p = base.copy()
        p[i] -= h
        obj.set_params(p)
        dn, _ = fn()
        obj.set_params(base)
        fd = (up - dn) / (2 * h)
        worst = max(worst, abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-8))
    return worst


@pytest.mark.parametrize("backend", ["tabular", "mlp"])
def test_gradients_match_finite_differences(backend, rng):
    env = GridEnv(side=3, beacons=((1, 1),))
    space = StateSpace.enumerated(env)
    if backend == "tabular":
        # the flat-step scatters (np.add.at) of every loss and the DB flow
        pol = random_tabular(space, rng)
        flow = TabularPolicy(space, rng.normal(0, 0.5, (space.n_states, 1)))
    else:
        pol = MlpPolicy.create(env, (8, 8), rng)
        pol.params = rng.normal(0, 0.5, pol.n_params)  # kink-free parameters
        flow = mlp_flow(env, (8, 8), rng)
        flow.params = rng.normal(0, 0.5, flow.n_params)
    locs = [random_tabular(space, rng) for _ in range(2)]
    tb = sample_batch(pol, space, 12, 0.4, rng)

    def rec():  # the batch's record under the current parameters
        return replay_steps(pol, space, tb)

    checks = {
        "TB": lambda: tb_loss_batch(pol, space, rec(), 0.3),
        "CB": lambda: cb_loss_batch(pol, space, rec()),
        "VL": lambda: vl_loss_batch(pol, space, rec()),
        "DB": lambda: db_loss_batch(pol, flow, space, rec()),
        "DBC": lambda: dbc_loss_batch(pol, space, rec()),
        "AB": lambda: ab_loss_batch(pol, space, rec(), PooledLocals(space, locs, (1.0, 0.5))),
    }
    for name, fn in checks.items():
        assert _fd_worst(fn, pol, rng) <= 1e-4, name
    assert _fd_worst(checks["DB"], flow, rng, key="flow") <= 1e-4
    # logZ gradient by finite differences
    _, grads = tb_loss_batch(pol, space, rec(), 0.3)
    h = 1e-5
    up, _ = tb_loss_batch(pol, space, rec(), 0.3 + h)
    dn, _ = tb_loss_batch(pol, space, rec(), 0.3 - h)
    fd = (up - dn) / (2 * h)
    assert abs(fd - grads["logz"]) / max(abs(fd), 1e-8) <= 1e-6
