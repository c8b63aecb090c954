import hashlib
import itertools
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from gfnpool.config import RunConfig, load_config
from gfnpool.envs import PhyloEnv, StateSpace
from gfnpool.envs.phylo import (
    encode_tree,
    jc69_transition,
    num_forests,
    num_topologies,
    pair_action_id,
    parse_tree,
    random_topology,
    read_sites,
    simulate_sites,
    split_sites,
    write_sites,
)
from gfnpool.errors import MalformedStateError, ShardError
from gfnpool.evaluation import terminal_log_rewards
from tests.conftest import reference_log_rewards, reference_site_logliks

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def all_rooted_topologies(leaves):
    """Every rooted binary leaf-labeled tree, by recursive splitting."""
    leaves = tuple(leaves)
    if len(leaves) == 1:
        return [leaves[0]]
    out = []
    rest = leaves[1:]
    # the block containing leaves[0] on the left side, nonempty proper subsets
    for r in range(len(rest) + 1):
        for right in itertools.combinations(rest, r):
            left = tuple(v for v in leaves if v not in right)
            if not right or len(left) == 0:
                continue
            for lt in all_rooted_topologies(left):
                for rt in all_rooted_topologies(right):
                    out.append((lt, rt))
    return out


def brute_force_site_lik(tree, site, trans):
    """Sum over all internal-node assignments of the product of edge
    transition probabilities times the uniform root prior."""
    internals = []

    def collect(node):
        if isinstance(node, int):
            return
        internals.append(node)
        collect(node[0])
        collect(node[1])

    collect(tree)
    if not internals:  # single leaf
        return 0.25

    total = 0.0
    for assign in itertools.product(range(4), repeat=len(internals)):
        lookup = {id(node): a for node, a in zip(internals, assign)}

        def symbol(node):
            return site[node] if isinstance(node, int) else lookup[id(node)]

        prob = 0.25  # uniform prior at the root
        stack = [tree]
        while stack:
            node = stack.pop()
            if isinstance(node, int):
                continue
            for child in node:
                prob *= trans[symbol(node), symbol(child)]
                stack.append(child)
        total += prob
    return total


def test_transition_matrix_vs_matrix_exponential():
    # eigendecomposition oracle: expm of the JC69 rate matrix
    mu, b = 1.3, 0.23
    q = mu * (np.full((4, 4), 0.25) - np.eye(4))
    expected = scipy.linalg.expm(q * b)
    assert np.max(np.abs(jc69_transition(mu, b) - expected)) <= 1e-12


def test_counts():
    assert num_topologies(4) == 15
    assert num_topologies(5) == 105
    assert num_topologies(7) == 10395
    assert num_forests(5) == 266


def site_logliks(trees, sites, b=0.1, mu=1.0):
    """Untempered log P(site | tree) through `PhyloEnv`'s batch reward, one
    row per tree (nested pairs) and one column per site: each column is its
    own one-site env, with the log prior added back."""
    keys = [(encode_tree(t),) for t in trees]
    out = []
    for j in range(sites.shape[1]):
        env = PhyloEnv(n_leaves=sites.shape[0], sites=sites[:, j : j + 1], branch_length=b, mu=mu, gamma=1.0)
        out.append(env.log_rewards(keys) + np.log(num_topologies(env.n_leaves)))
    return np.array(out).T


def test_single_leaf_site_loglik_is_quarter():
    # one leaf is no PhyloEnv tree, so the reference recursion is checked
    ll = reference_site_logliks(0, np.array([[2]]), jc69_transition(1.0, 0.1))
    assert ll[0] == pytest.approx(np.log(0.25), abs=1e-15)


def test_long_branch_limit_three_leaves():
    # every base is equally likely at every leaf, whatever the tree
    sites = np.array([[0], [3], [1]])
    ll = site_logliks([((0, 1), 2), ((0, 2), 1), ((1, 2), 0)], sites, b=1e9)
    assert np.all(np.abs(ll - np.log(1.0 / 64.0)) <= 1e-12)


def test_three_leaves_same_base_closed_form():
    mu, b = 1.0, 0.1
    e = np.exp(-mu * b)
    stay, move = 0.25 + 0.75 * e, 0.25 - 0.25 * e
    sites = np.array([[1], [1], [1]])
    # the cherry's parent u and the root r: 1/4 sum_r P(r->1) sum_u P(r->u) P(u->1)^2
    below_same = stay**3 + 3 * move**3  # u summed with r = 1
    below_other = move * stay**2 + stay * move**2 + 2 * move**3  # with r != 1
    expected = np.log(0.25 * (stay * below_same + 3 * move * below_other))
    assert site_logliks([((0, 1), 2)], sites, b=b, mu=mu)[0, 0] == pytest.approx(expected, abs=1e-13)


def test_three_leaf_tree_vs_exhaustive_assignment(rng):
    trans = jc69_transition(1.0, 0.1)
    tree = ((0, 1), 2)
    sites = rng.integers(0, 4, size=(3, 5))
    got = site_logliks([tree], sites)[0]
    for m in range(5):
        want = np.log(brute_force_site_lik(tree, sites[:, m], trans))
        assert got[m] == pytest.approx(want, rel=1e-12)


def test_felsenstein_all_four_leaf_topologies(rng):
    # acceptance oracle: pruning == exhaustive latent-state summation
    trans = jc69_transition(1.0, 0.1)
    topologies = all_rooted_topologies(range(4))
    # remove mirror duplicates via canonical encoding
    unique = {encode_tree(t): t for t in topologies if not isinstance(t, int)}
    assert len(unique) == 15
    sites = rng.integers(0, 4, size=(4, 20))
    got = site_logliks(list(unique.values()), sites)
    for tree, row in zip(unique.values(), got):
        for m in range(20):
            want = np.log(brute_force_site_lik(tree, sites[:, m], trans))
            assert abs(row[m] - want) / max(abs(want), 1e-12) <= 1e-12


def test_log_reward_tempering_and_prior(phylo4):
    tree = ((0, 1), (2, 3))
    trans = jc69_transition(phylo4.mu, phylo4.branch_length)
    ll = reference_site_logliks(tree, phylo4.sites, trans).sum()
    expected = phylo4.gamma * ll - np.log(num_topologies(4)) / phylo4.n_clients
    assert phylo4.log_reward((encode_tree(tree),)) == pytest.approx(expected, rel=1e-12)


def _all_trees(n_leaves, m, b, seed):
    sites = np.random.default_rng(seed).integers(0, 4, size=(n_leaves, m))
    env = PhyloEnv(n_leaves=n_leaves, sites=sites, branch_length=b, gamma=1.7, n_clients=3)
    space = StateSpace.enumerated(env)
    return env, [space.keys[i] for i in space.terminal_indices()]


@pytest.mark.parametrize("n_leaves", [4, 5, 6])
@pytest.mark.parametrize("m, b", [(1, 0.1), (37, 0.1), (37, 1e9)])
def test_batch_scalar_and_reference_agree_bit_for_bit(n_leaves, m, b):
    env, keys = _all_trees(n_leaves, m, b, seed=n_leaves * 100 + m)
    got = env.log_rewards(keys)
    assert np.array_equal(got, reference_log_rewards(env, keys))
    assert np.array_equal(got, [env.log_reward(k) for k in keys])
    # repeated keys in any order keep each key's bits
    order = np.random.default_rng(m).permutation(len(keys))[: len(keys) // 2]
    again = [keys[i] for i in order] * 2
    assert np.array_equal(env.log_rewards(again), np.tile(got[order], 2))


def test_phylo_config_rewards_keep_their_bits():
    # configs/phylo.yaml: 3 clients x 105 trees, as the recursive pruning gave them
    run = RunConfig(load_config(CONFIGS / "phylo.yaml"))
    envs = run.client_envs()
    space = StateSpace.enumerated(envs[0])
    blob = b"".join(terminal_log_rewards(env, space).tobytes() for env in envs)
    assert hashlib.sha256(blob).hexdigest() == "da8c851fb3f2840df130315492c625ed2aa6d74250286c5b352f98a1978a4e66"


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reward_pass_peaks_within_the_reference():
    env, keys = _all_trees(6, 500, 0.1, seed=6)
    want = reference_log_rewards(env, keys)
    assert np.array_equal(env.log_rewards(keys), want)
    assert _traced_peak(lambda: env.log_rewards(keys)) <= _traced_peak(lambda: reference_log_rewards(env, keys))


NOT_CANONICAL = [
    "((0,1),(2,3)",  # unbalanced
    "(0,1),(2,3))",
    "((0,1)(2,3))",  # no comma at depth 1
    "((0,1),(2,3))x",
    "((0,1),(2,03))",  # a leaf is exactly its index
    "((0,1),(2,+3))",
    "((0,1),(2, 3))",
    "((0,1),(2,4))",  # no such leaf
    "((2,3),(0,1))",  # children out of order
    "(((0,1),2),3),",
    "((0,1),(2,3),)",
    "()",
    pytest.param("", id="empty"),
    pytest.param("(" * 3000 + "0" + ",1)" * 3000, id="nested-3000-deep"),  # deeper than any tree
]


@pytest.mark.parametrize("tree", NOT_CANONICAL)
def test_a_tree_that_is_not_canonical_is_malformed(phylo4, tree):
    with pytest.raises(MalformedStateError):
        phylo4.validate_key((tree,))
    with pytest.raises(MalformedStateError):
        phylo4.log_rewards([("((0,1),(2,3))",), (tree,)])


def test_canonical_key_invariance(rng):
    # shuffling child order and tree order never changes the key
    def shuffled(node):
        if isinstance(node, int):
            return node
        a, b = node
        if rng.random() < 0.5:
            a, b = b, a
        return (shuffled(a), shuffled(b))

    base = random_topology(6, rng)[0]
    tree = parse_tree(base)
    keys = {encode_tree(shuffled(tree)) for _ in range(100)}
    assert keys == {base}


def test_children_join_count(phylo4):
    s0 = phylo4.initial_key()
    kids = phylo4.children(s0)
    assert len(kids) == 6  # C(4,2) joins, no stop yet
    assert all(not stop for _, _, stop in kids)
    # single tree: only the stop action
    full = (encode_tree(((0, 1), (2, 3))),)
    assert phylo4.children(full) == [(phylo4.stop_action, None, True)]


def test_parents_by_bruteforce_edge_inversion(phylo4):
    # generate the full edge set forward, then check parents() inverts it
    space = StateSpace.enumerated(phylo4)
    edges = set()
    for i in range(space.n_states):
        for a, child, stop in phylo4.children(space.keys[i]):
            if not stop:
                edges.add((space.keys[i], a, child))
    for key in space.keys:
        if key == phylo4.initial_key():
            continue
        got = {(p, a) for p, a in phylo4.parents(key)}
        want = {(p, a) for (p, a, c) in edges if c == key}
        assert got == want


def test_pair_action_ids_unique():
    n = 7
    ids = [pair_action_id(i, j, n) for i in range(n) for j in range(i + 1, n)]
    assert sorted(ids) == list(range(n * (n - 1) // 2))


def test_malformed_forests(phylo4):
    with pytest.raises(MalformedStateError):
        phylo4.validate_key(("(0,1)", "(1,2)", "3"))  # duplicated leaf
    with pytest.raises(MalformedStateError):
        phylo4.validate_key(("(1,0)",))  # not canonical (child order)
    with pytest.raises(MalformedStateError):
        phylo4.validate_key(("0", "1", "2"))  # missing leaf 3
    with pytest.raises(MalformedStateError):
        phylo4.validate_key(("((0,1),2", "3"))  # unbalanced


@pytest.mark.parametrize("forest", [("(0,0)", "1", "2", "3"), ("((0,1),0)", "2", "3")])
def test_forest_with_a_leaf_twice_in_one_tree(phylo4, forest):
    with pytest.raises(MalformedStateError, match="duplicated"):
        phylo4.validate_key(forest)


def test_simulate_sites_zero_branch_copies_root(rng):
    truth = random_topology(5, rng)
    sites = simulate_sites(truth, 5, 50, mu=1.0, b=0.0, rng=rng)
    assert np.all(sites == sites[0])


def test_simulate_sites_stationary_frequencies():
    gen = np.random.default_rng(99)
    truth = random_topology(4, gen)
    n = 100_000
    sites = simulate_sites(truth, 4, n, mu=1.0, b=0.3, rng=gen)
    freqs = np.bincount(sites.ravel(), minlength=4) / sites.size
    sigma = np.sqrt(0.25 * 0.75 / sites.size)
    assert np.all(np.abs(freqs - 0.25) <= 3 * sigma)


def test_split_sites_even_and_prior_exponent(phylo4):
    gen = np.random.default_rng(3)
    truth = random_topology(5, gen)
    sites = simulate_sites(truth, 5, 10, 1.0, 0.1, gen)
    env = PhyloEnv(n_leaves=5, sites=sites)
    shards = split_sites(env, 5)
    assert [s.n_sites for s in shards] == [2] * 5
    assert np.concatenate([s.sites for s in shards], axis=1).tobytes() == sites.tobytes()
    assert all(s.n_clients == 5 for s in shards)
    # prior exponent shows up as a 1/N scaling of the log prior
    key = truth
    trans = jc69_transition(shards[0].mu, shards[0].branch_length)
    full_ll = shards[0].gamma * reference_site_logliks(parse_tree(key[0]), shards[0].sites, trans).sum()
    assert shards[0].log_reward(key) == pytest.approx(
        full_ll - np.log(num_topologies(5)) / 5, rel=1e-12
    )
    with pytest.raises(ShardError):
        split_sites(env, 11)


def test_split_sites_randomized_permutes_columns(phylo4):
    gen = np.random.default_rng(3)
    truth = random_topology(5, gen)
    sites = simulate_sites(truth, 5, 12, 1.0, 0.1, gen)
    env = PhyloEnv(n_leaves=5, sites=sites)
    shards = split_sites(env, 3, randomized=True, rng=np.random.default_rng(1))
    merged = np.concatenate([s.sites for s in shards], axis=1)
    assert merged.shape == sites.shape
    assert sorted(map(tuple, merged.T)) == sorted(map(tuple, sites.T))


def test_sites_text_roundtrip(tmp_path, rng):
    sites = rng.integers(0, 4, size=(5, 17))
    path = tmp_path / "sites.txt"
    write_sites(path, sites)
    assert read_sites(path).tobytes() == sites.tobytes()
    text = path.read_text().splitlines()
    assert len(text) == 5 and set("".join(text)) <= set("ACGT")


def test_tree_leaves_and_parse_roundtrip(rng):
    key = random_topology(6, rng)[0]
    assert sorted(map(int, re.findall(r"\d+", key))) == list(range(6))
    assert encode_tree(parse_tree(key)) == key
