import base64
import copy
import json

import numpy as np
import pytest

from gfnpool.envs import GridEnv, MultisetEnv, SequenceEnv, PhyloEnv, StateSpace
from gfnpool.envs import random_topology, simulate_sites
from gfnpool.envs.base import int_key_matrix
from gfnpool.envs.space import DEFAULT_STATE_GUARD


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


@pytest.fixture(scope="session")
def grid3():
    return GridEnv(side=3, beacons=((1, 1),))


@pytest.fixture(scope="session")
def grid3_space(grid3):
    return StateSpace.enumerated(grid3)


@pytest.fixture(scope="session")
def grid2():
    return GridEnv(side=2, beacons=((1, 1),))


@pytest.fixture(scope="session")
def grid2_space(grid2):
    return StateSpace.enumerated(grid2)


@pytest.fixture(scope="session")
def mset33():
    gen = np.random.default_rng(5)
    return MultisetEnv(values=tuple(gen.uniform(0, 1, 3)), target_size=3)


@pytest.fixture(scope="session")
def mset33_space(mset33):
    return StateSpace.enumerated(mset33)


@pytest.fixture(scope="session")
def seq22():
    return SequenceEnv(pos_scores=(1.0, 2.0), token_scores=(0.5, -0.25))


@pytest.fixture(scope="session")
def seq22_space(seq22):
    return StateSpace.enumerated(seq22)


@pytest.fixture(scope="session")
def phylo4():
    gen = np.random.default_rng(11)
    truth = random_topology(4, gen)
    sites = simulate_sites(truth, 4, 30, mu=1.0, b=0.1, rng=gen)
    return PhyloEnv(n_leaves=4, sites=sites, branch_length=0.1, mu=1.0, gamma=1.0, n_clients=1)


@pytest.fixture(scope="session")
def phylo4_space(phylo4):
    return StateSpace.enumerated(phylo4)


def _with(env, **attrs):
    """A copy of `env` with some attributes replaced."""
    env = copy.copy(env)
    for name, value in attrs.items():
        object.__setattr__(env, name, value)
    return env


def level_walk(env, guard=DEFAULT_STATE_GUARD):
    """`StateSpace.enumerated` by the level walk alone: any per-key
    `_children` call fails."""

    def per_key(s):
        raise AssertionError(f"the level walk expanded {s!r} on its own")

    return StateSpace.enumerated(_with(env, _children=per_key), guard)


def key_walk(env, guard=DEFAULT_STATE_GUARD):
    """`StateSpace.enumerated` by the per-key walk, the lazy space's own
    expansion."""
    return StateSpace.enumerated(_with(env, _children_rows=None), guard)


def reference_key_walk(env, guard=DEFAULT_STATE_GUARD):
    """A complete space built by the per-key walk that `StateSpace` kept
    before the lazy expansion took its place: one `_children` call per
    state, the child table filled from flat (state, slot, code) lists. The
    reference both walks must equal, and the memory the level walk must
    stay within."""
    from gfnpool.envs.space import CHILD_ILLEGAL, CHILD_STOP

    space = StateSpace(env, guard=guard)
    keys, index, depth = space.keys, space.index, [0]
    src: list[int] = []
    slot: list[int] = []
    code: list[int] = []
    children, find = env._children, index.get
    i = 0
    while i < len(keys):
        for action, child, is_stop in children(keys[i]):
            if is_stop:
                c = CHILD_STOP
            else:
                c = find(child)
                if c is None:
                    space._check_guard(1)
                    c = len(keys)
                    keys.append(child)
                    index[child] = c
                    space._n += 1
                    depth.append(depth[i] + 1)
            src.append(i)
            slot.append(action)
            code.append(c)
        i += 1
    n = len(keys)
    table = np.full((n, space.arity), CHILD_ILLEGAL, dtype=np.int64)
    table[src, slot] = code
    space._children = table
    space._expanded = np.ones(n, dtype=bool)
    space._nparents = np.bincount(table[table >= 0], minlength=n)
    space._terminal = table[:, env.stop_action] == CHILD_STOP
    space._depth = np.array(depth, dtype=np.int64)
    space._logr = np.full(n, np.nan)
    space._featurized = np.zeros(n, dtype=bool)
    space.complete = True
    return space


def assert_same_space(a, b):
    """Two complete spaces agree on every key, number and table, dtypes
    included, and `a`'s keys hold plain ints only."""
    assert a.keys == b.keys and a.index == b.index
    assert all(type(v) is int for key in a.keys for v in key)
    for name in ("_children", "_nparents", "_terminal", "_depth"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def assert_key_matrix(space, want):
    """A level-walked space holds `want`'s keys as one zero-padded key
    matrix in the narrowest integer dtype of its values, and has not built
    its tuple keys yet."""
    assert "keys" not in space._shared and "index" not in space._shared
    rows, lengths = int_key_matrix(want.keys, space.env.key_width)
    assert space._rows.dtype == np.min_scalar_type(int(rows.max()))
    assert np.array_equal(space._rows, rows) and np.array_equal(space._lengths, lengths)


def random_tabular(space, gen, scale=1.0):
    from gfnpool.policy import TabularPolicy

    return TabularPolicy(space, gen.normal(0.0, scale, (space.n_states, space.arity)))


def mlp_flow(env, hidden, gen):
    """A one-column MLP block, log F(s), drawn from `gen` as
    `MlpPolicy.create` draws a policy."""
    from gfnpool.nn import MlpSpec, mlp_init
    from gfnpool.policy import MlpPolicy

    spec = MlpSpec((env.feature_dim, *hidden, 1))
    return MlpPolicy(spec, mlp_init(spec, gen))


def paths(space, tb):
    """Each row of a batch as (state keys, actions), stop action last."""
    return [
        ([space.keys[i] for i in tb.states[k, :n]], list(tb.actions[k, :n]))
        for k, n in enumerate(tb.lengths)
    ]


def one_row_batch(space, keys, actions):
    """The one-trajectory batch through `keys` taking `actions` (stop last)."""
    from gfnpool.policy import TrajectoryBatch

    h = space.env.max_traj_len
    states = np.full((1, h), -1, dtype=np.int64)
    states[0, : len(keys)] = [space.index[k] for k in keys]
    acts = np.full((1, h), -1, dtype=np.int64)
    acts[0, : len(actions)] = actions
    return TrajectoryBatch(states, acts, np.array([len(actions)]))


def action_distribution(policy, space, key):
    """The policy's action probabilities at the state `key` of `space`: the
    full arity vector, exactly 0 on illegal slots."""
    from gfnpool.policy import policy_probs

    return policy_probs(policy, space, np.array([space.index[key]]))[2][0]


def text_snapshot(doc, params) -> bytes:
    """The one-line text snapshot of versions 1 and 2: `doc` with the base64
    of the little-endian float64 `params` as `params_b64`, as sorted,
    compact JSON."""
    payload = base64.b64encode(np.asarray(params, dtype="<f8").tobytes()).decode()
    return (json.dumps({**doc, "params_b64": payload}, sort_keys=True, separators=(",", ":")) + "\n").encode()


def reference_site_logliks(tree, sites, trans, memo=None):
    """Log P(site | tree) for every column of `sites`, by the recursive
    post-order pruning `PhyloEnv` ran before its batch kernel: a parsed
    tree (an int leaf or a (left, right) pair), each internal node's
    conditionals rescaled by their per-site maximum, trees that share
    subtrees sharing one `memo`. The reference the kernel must equal bit
    for bit."""
    memo = {} if memo is None else memo

    def conditionals(node):
        out = memo.get(node)
        if out is None:
            if isinstance(node, int):
                out = (sites[node][None, :] == np.arange(4)[:, None]).astype(np.float64), np.zeros(sites.shape[1])
            else:
                (ll, sl), (lr, sr) = (conditionals(child) for child in node)
                v = (trans @ ll) * (trans @ lr)
                c = v.max(axis=0)
                out = v / c, sl + sr + np.log(c)
            memo[node] = out
        return out

    lik, scale = conditionals(tree)
    return np.log(0.25 * lik.sum(axis=0)) + scale  # uniform root prior


def reference_log_rewards(env, keys):
    """`env.log_rewards(keys)` of complete trees by `reference_site_logliks`,
    one memo over the batch, tempered as the scalar reward always was."""
    from gfnpool.envs import jc69_transition, num_topologies, parse_tree

    trans, memo = jc69_transition(env.mu, env.branch_length), {}
    data = [float(reference_site_logliks(parse_tree(s[0]), env.sites, trans, memo).sum()) for s in keys]
    log_prior = -np.log(num_topologies(env.n_leaves))
    return env.gamma * np.array(data, dtype=np.float64) + log_prior / env.n_clients


def rewritten_snapshot(blob, **changes) -> bytes:
    """`blob` with the header keys in `changes` replaced; a `params` key
    replaces the payload."""
    from gfnpool.policy import read_snapshot, snapshot_bytes

    doc, params = read_snapshot(blob)
    params = changes.pop("params", params)
    return snapshot_bytes({**doc, **changes}, params)


def pcvi_read(path):
    """The `PcviParams` that `aggregate.pcvi_write` wrote to `path`."""
    from gfnpool.aggregate import PcviParams

    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or not lines[0].startswith("kind "):
        raise ValueError("malformed PCVI parameter file")
    kind = lines[0].split(" ", 1)[1]
    blocks: dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines):
        if not lines[i].startswith("block "):
            raise ValueError(f"expected a block header at line {i + 1}")
        _, name, shape = lines[i].split(" ")
        dims = tuple(int(d) for d in shape.split("x"))
        vals = np.array([float(v) for v in lines[i + 1].split()])
        blocks[name] = vals.reshape(dims)
        i += 2
    return PcviParams(kind, blocks)


def counting_rewards(env):
    """A copy of `env` whose class counts the keys its `log_rewards` is given,
    and the one-element list that holds the count. Overriding `log_rewards`
    also sends every read of a space through the keys."""
    seen = [0]
    cls = type(env)

    def log_rewards(self, keys):
        seen[0] += len(keys)
        return cls.log_rewards(self, keys)

    counted = type(f"Counted{cls.__name__}", (cls,), {"log_rewards": log_rewards})
    return counted(*(getattr(env, f) for f in env.__dataclass_fields__)), seen


def noise_cell_views(tmp_path, monkeypatch, doc, values, seed=1) -> list:
    """The client views each cell of a noise sweep of `doc` over `values`
    (variances) at sweep seed `seed` would train on, one list per cell in
    value order; nothing is trained."""
    import yaml

    import gfnpool.cli

    seen = []

    def cell(run, views):
        seen.append(views)
        return [], float("nan")

    monkeypatch.setattr(gfnpool.cli, "_pipeline_final_l1", cell)
    monkeypatch.setenv("GFNPOOL_OUTPUT_ROOT", str(tmp_path / "out"))
    path = tmp_path / "noise.yaml"
    path.write_text(yaml.safe_dump({**doc, "sweep": {"axis": "noise", "values": values, "seeds": [seed]}}))
    assert gfnpool.cli.main(["sweep", "--config", str(path)]) == 0
    errors = tmp_path / "out" / doc["name"] / "sweep_errors.json"
    assert not errors.exists(), errors.read_text()
    assert len(seen) == len(values)
    return seen


def count_replays(monkeypatch) -> list:
    """Patch every module's reference to the replay entry points
    (`replay_log_pf`, `replay_steps`) with one that records the policy it
    replays; returns the list it appends to."""
    import gfnpool.evaluation
    import gfnpool.losses
    import gfnpool.policy

    replayed = []

    def counting(fn):
        def counted(policy, *args, **kw):
            replayed.append(policy)
            return fn(policy, *args, **kw)

        return counted

    for name in ("replay_log_pf", "replay_steps"):
        original = getattr(gfnpool.policy, name)
        for module in (gfnpool.policy, gfnpool.losses, gfnpool.evaluation):
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counting(original))
    return replayed


RECORD_CASES = ["grid3-tabular", "multiset-tabular", "grid3-mlp", "lazy-sequence-mlp"]


def record_case(case, gen):
    """(policy, flow, space) for comparing a sampled step record with a
    replay; the flow is a one-column block of the policy's backend. The lazy
    case's space has grown over earlier batches, so its discovery order is
    no longer depth order."""
    from gfnpool.policy import MlpPolicy, TabularPolicy, sample_batch

    env_name, backend = case.rsplit("-", 1)
    if env_name == "grid3":
        env = GridEnv(side=3, beacons=((1, 1),))
    elif env_name == "multiset":
        env = MultisetEnv(values=(0.2, -0.4, 0.9, 0.1), target_size=8)
    else:
        env = SequenceEnv(pos_scores=(0.4, -0.2, 0.3, 0.1, -0.5, 0.2), token_scores=(0.5, -0.3, 0.2, 0.1))
    if backend == "tabular":
        space = StateSpace.enumerated(env)
        pol = random_tabular(space, gen)
        return pol, TabularPolicy(space, gen.normal(0, 0.5, (space.n_states, 1))), space
    space = StateSpace.enumerated(env) if env_name == "grid3" else StateSpace(env, guard=3000)
    pol, flow = MlpPolicy.create(env, (8, 8), gen), mlp_flow(env, (8, 8), gen)
    pol.params = gen.normal(0, 0.5, pol.n_params)
    flow.params = gen.normal(0, 0.5, flow.n_params)
    if not space.complete:
        for _ in range(2):
            sample_batch(pol, space, 32, 1.0, gen)
    return pol, flow, space


def reference_exact_pT(policy, space):
    """`exact_pT`'s terminal array with each level read by one cache-keeping
    `policy_rows` call over the whole level: the reference a chunked read
    must equal byte for byte."""
    from gfnpool.envs.space import CHILD_STOP
    from gfnpool.policy import policy_rows

    mass = np.zeros(space.n_states)
    mass[space.root] = 1.0
    p_term = np.zeros(space.n_states)
    for lv in space.levels():
        rows, _, p, _ = policy_rows(policy, space, lv)
        contrib = mass[lv][:, None] * p
        p_term[lv] += np.where(rows == CHILD_STOP, contrib, 0.0).sum(axis=1)
        interior = rows >= 0
        np.add.at(mass, rows[interior], contrib[interior])
    return p_term


def reference_pooled_table(space, policies, weights):
    """The pooled local log-policy of `PooledLocals`, with each level of
    each local read by one cache-keeping `policy_rows` call, the locals
    summed in order."""
    from gfnpool.policy import policy_rows

    table = np.zeros((space.n_states, space.arity))
    for lv in space.levels():
        for policy, w in zip(policies, weights):
            table[lv] += w * policy_rows(policy, space, lv)[1]
    return table


def reference_levels(space):
    """State indices grouped by depth, one comparison pass per depth: the
    grouping `StateSpace.levels` must equal."""
    d = space.depth(np.arange(space.n_states))
    return [np.flatnonzero(d == lv) for lv in range(int(d.max()) + 1)]


def reference_effective_target(space, policies, weights):
    """`effective_target`'s array over `reference_pooled_table`, by a
    hand-written forward log-sum-exp loop over `reference_levels`: each
    state's log mass scattered into its children with `np.logaddexp.at`,
    each terminal's taken from its stop edge."""
    from gfnpool.envs.space import CHILD_STOP
    from gfnpool.evaluation import _logsumexp

    table = reference_pooled_table(space, policies, weights)
    coef = sum(weights) - 1.0
    node = np.full(space.n_states, -np.inf)
    node[space.root] = 0.0
    log_mass = np.full(space.n_states, -np.inf)
    for lv in reference_levels(space):
        rows = space.children_rows(lv)
        vals = node[lv][:, None] + table[lv]
        r, a = np.nonzero(rows == CHILD_STOP)
        np.logaddexp.at(log_mass, lv[r], vals[r, a])
        r, a = np.nonzero(rows >= 0)
        child = rows[r, a]
        np.logaddexp.at(node, child, vals[r, a] + coef * np.log(space.nparents(child)))
    return np.exp(log_mass - _logsumexp(log_mass[space.terminal_indices()]))
