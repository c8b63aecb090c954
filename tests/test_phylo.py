import itertools

import numpy as np
import pytest
import scipy.linalg

from gfnpool.envs import PhyloEnv, StateSpace
from gfnpool.envs.phylo import (
    _site_logliks,
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
    tree_leaves,
    write_sites,
)
from gfnpool.errors import MalformedStateError, ShardError


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


def test_single_leaf_site_loglik_is_quarter():
    sites = np.array([[2]])
    ll = _site_logliks(0, sites, jc69_transition(1.0, 0.1))
    assert ll[0] == pytest.approx(np.log(0.25), abs=1e-15)


def test_long_branch_limit_two_leaves():
    sites = np.array([[0], [3]])
    ll = _site_logliks((0, 1), sites, jc69_transition(1.0, 1e9))
    assert ll[0] == pytest.approx(np.log(1.0 / 16.0), abs=1e-12)


def test_two_leaf_cherry_same_base_closed_form():
    mu, b = 1.0, 0.1
    trans = jc69_transition(mu, b)
    sites = np.array([[1], [1]])
    # sum over root r of 1/4 P(r->1)^2
    expected = np.log(sum(0.25 * trans[r, 1] ** 2 for r in range(4)))
    assert _site_logliks((0, 1), sites, trans)[0] == pytest.approx(expected, abs=1e-13)


def test_three_leaf_tree_vs_exhaustive_assignment(rng):
    trans = jc69_transition(1.0, 0.1)
    tree = ((0, 1), 2)
    for _ in range(5):
        site = rng.integers(0, 4, size=3)
        got = _site_logliks(tree, site.reshape(-1, 1), trans)[0]
        want = np.log(brute_force_site_lik(tree, site, trans))
        assert got == pytest.approx(want, rel=1e-12)


def test_felsenstein_all_four_leaf_topologies(rng):
    # acceptance oracle: recursion == exhaustive latent-state summation
    trans = jc69_transition(1.0, 0.1)
    topologies = all_rooted_topologies(range(4))
    # remove mirror duplicates via canonical encoding
    unique = {encode_tree(t): t for t in topologies if not isinstance(t, int)}
    assert len(unique) == 15
    sites = rng.integers(0, 4, size=(4, 20))
    for tree in unique.values():
        got = _site_logliks(tree, sites, trans)
        for m in range(20):
            want = np.log(brute_force_site_lik(tree, sites[:, m], trans))
            assert abs(got[m] - want) / max(abs(want), 1e-12) <= 1e-12


def test_log_reward_tempering_and_prior(phylo4):
    key = (encode_tree(((0, 1), (2, 3))),)
    ll = phylo4.data_loglik(key)
    expected = phylo4.gamma * ll - np.log(num_topologies(4)) / phylo4.n_clients
    assert phylo4.log_reward(key) == pytest.approx(expected, rel=1e-12)


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
    full_ll = shards[0].gamma * shards[0].data_loglik(key)
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
    assert tree_leaves(key) == set(range(6))
    assert encode_tree(parse_tree(key)) == key
