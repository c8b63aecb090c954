"""Rooted-forest states over a fixed leaf set: an action joins two trees'
roots, and the terminal reward is a tempered Jukes-Cantor likelihood of the
observed sites plus a scaled uniform-prior term.

Trees are encoded as canonical strings - a leaf is its decimal index, an
internal node is "(a,b)" with the children's encodings in lexicographic
order - and a forest is the sorted tuple of its tree strings. This makes
keys invariant to child order and tree insertion order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from ..errors import MalformedStateError, NoParentsError, NotTerminalError, ShardError
from .base import Environment, StateKey

NUCLEOBASES = "ACGT"


def encode_tree(node) -> str:
    """Canonical string of a nested (left, right) / int leaf structure."""
    if isinstance(node, int):
        return str(node)
    a, b = encode_tree(node[0]), encode_tree(node[1])
    return f"({min(a, b)},{max(a, b)})"


def parse_tree(s: str):
    """Inverse of encode_tree; returns an int leaf or a (left, right) pair."""
    if not s.startswith("("):
        return int(s)
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 1:
            return (parse_tree(s[1:i]), parse_tree(s[i + 1 : -1]))
    raise MalformedStateError(f"unbalanced tree encoding: {s!r}")


def _node_leaves(node) -> list[int]:
    """Leaf labels of a parsed tree, one per leaf occurrence."""
    out: list[int] = []
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, int):
            out.append(n)
        else:
            stack.extend(n)
    return out


def tree_leaves(s: str) -> set[int]:
    return set(_node_leaves(parse_tree(s)))


def pair_action_id(i: int, j: int, n: int) -> int:
    """Lexicographic index of the pair (i, j), i < j, among pairs over range(n)."""
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def num_topologies(n_leaves: int) -> int:
    """Rooted binary leaf-labeled trees on n leaves: (2n-3)!!."""
    out = 1
    for k in range(1, 2 * n_leaves - 2, 2):
        out *= k
    return out


@lru_cache(maxsize=None)
def num_forests(n_leaves: int) -> int:
    """Rooted binary forests on n labeled leaves (all reachable states)."""
    if n_leaves == 0:
        return 1
    total = 0
    for k in range(1, n_leaves + 1):
        total += comb(n_leaves - 1, k - 1) * num_topologies(k) * num_forests(n_leaves - k)
    return total


def jc69_transition(mu: float, b: float) -> np.ndarray:
    """4x4 transition matrix: 1/4 + 3/4 e^(-mu b) on the diagonal, 1/4 - 1/4 e^(-mu b) off it."""
    e = np.exp(-mu * b)
    return np.full((4, 4), 0.25 * (1.0 - e)) + e * np.eye(4)


def _conditionals(node, sites: np.ndarray, trans: np.ndarray, memo: dict):
    """Rescaled post-order conditionals (lik, log scale) of one subtree,
    memoised in `memo` by subtree. A module-level recursion, not a closure
    over `memo`, so no reference cycle keeps a batch's arrays alive."""
    out = memo.get(node)
    if out is None:
        if isinstance(node, int):
            out = (sites[node][None, :] == np.arange(4)[:, None]).astype(np.float64), np.zeros(sites.shape[1])
        else:
            (ll, sl), (lr, sr) = (_conditionals(child, sites, trans, memo) for child in node)
            v = (trans @ ll) * (trans @ lr)
            c = v.max(axis=0)
            out = v / c, sl + sr + np.log(c)
        memo[node] = out
    return out


def _site_logliks(tree, sites: np.ndarray, trans: np.ndarray, memo: dict | None = None) -> np.ndarray:
    """Log P(site | tree) for every column, via post-order pruning.

    Conditionals are rescaled by their per-site maximum at every internal
    node so that thousands of sites stay clear of underflow. Trees that
    share subtrees can share one `memo`; the result is the same bits.
    """
    lik, scale = _conditionals(tree, sites, trans, {} if memo is None else memo)
    return np.log(0.25 * lik.sum(axis=0)) + scale  # uniform root prior


def simulate_sites(truth: StateKey, n_leaves: int, m: int, mu: float, b: float, rng: np.random.Generator) -> np.ndarray:
    """Sample an (n_leaves, m) nucleobase-index matrix root-down under JC69."""
    if len(truth) != 1:
        raise MalformedStateError("truth must be a single complete topology")
    tree = parse_tree(truth[0])
    stay = np.exp(-mu * b)
    out = np.zeros((n_leaves, m), dtype=np.int64)

    def down(node, symbols):
        moved = rng.random(m) >= stay
        child = np.where(moved, rng.integers(0, 4, size=m), symbols)
        if isinstance(node, int):
            out[node] = child
        else:
            down(node[0], child)
            down(node[1], child)

    root = rng.integers(0, 4, size=m)
    if isinstance(tree, int):
        out[tree] = root
    else:
        down(tree[0], root)
        down(tree[1], root)
    return out


def write_sites(path, sites: np.ndarray) -> None:
    with open(path, "w") as fh:
        for row in sites:
            fh.write("".join(NUCLEOBASES[v] for v in row) + "\n")


def read_sites(path) -> np.ndarray:
    lookup = {c: i for i, c in enumerate(NUCLEOBASES)}
    with open(path) as fh:
        rows = [[lookup[c] for c in line.strip()] for line in fh if line.strip()]
    return np.asarray(rows, dtype=np.int64)


def random_topology(n_leaves: int, rng: np.random.Generator) -> StateKey:
    """Uniform-over-join-orders random complete topology (not uniform over trees)."""
    trees: list = list(range(n_leaves))
    while len(trees) > 1:
        i, j = sorted(rng.choice(len(trees), size=2, replace=False))
        b = trees.pop(j)
        a = trees.pop(i)
        trees.append((a, b))
    return (encode_tree(trees[0]),)


@dataclass(frozen=True)
class PhyloEnv(Environment):
    n_leaves: int
    sites: np.ndarray  # (n_leaves, m) nucleobase indices in {0..3}
    branch_length: float = 0.1
    mu: float = 1.0
    gamma: float = 2.0
    n_clients: int = 1  # prior exponent is 1/n_clients

    kind = "phylo"

    def __post_init__(self):
        if self.n_leaves < 3:
            raise ValueError("need at least 3 leaves")
        if self.branch_length <= 0 or self.mu <= 0 or self.gamma <= 0:
            raise ValueError("branch length, rate and temperature must be positive")
        sites = np.asarray(self.sites, dtype=np.int64)
        if sites.ndim != 2 or sites.shape[0] != self.n_leaves or sites.shape[1] < 1:
            raise ValueError("sites must be an (n_leaves, m>=1) matrix")
        if sites.min() < 0 or sites.max() > 3:
            raise ValueError("site entries must be nucleobase indices 0..3")
        sites.setflags(write=False)
        object.__setattr__(self, "sites", sites)

    @property
    def n_sites(self) -> int:
        return self.sites.shape[1]

    @property
    def max_arity(self) -> int:
        return comb(self.n_leaves, 2) + 1

    @property
    def max_traj_len(self) -> int:
        return self.n_leaves  # n-1 joins plus the stop transition

    def initial_key(self) -> StateKey:
        return tuple(sorted(str(i) for i in range(self.n_leaves)))

    def validate_key(self, s: StateKey) -> None:
        if not isinstance(s, tuple) or not s or not all(isinstance(t, str) for t in s):
            raise MalformedStateError(f"not a forest: {s!r}")
        if tuple(sorted(s)) != s:
            raise MalformedStateError(f"forest not in canonical order: {s!r}")
        seen: set[int] = set()
        try:
            for t in s:
                node = parse_tree(t)
                if encode_tree(node) != t:
                    raise MalformedStateError(f"tree not canonical: {t!r}")
                leaves = _node_leaves(node)
                if len(set(leaves)) < len(leaves) or seen.intersection(leaves):
                    raise MalformedStateError(f"duplicated leaves in forest: {s!r}")
                seen.update(leaves)
        except (ValueError, IndexError) as exc:
            raise MalformedStateError(f"undecodable forest: {s!r}") from exc
        if seen != set(range(self.n_leaves)):
            raise MalformedStateError(f"forest does not cover all leaves: {s!r}")

    def _children(self, s: StateKey) -> list:
        k = len(s)
        if k == 1:
            return [(self.stop_action, None, True)]
        out = []
        for i in range(k):
            for j in range(i + 1, k):
                merged = f"({min(s[i], s[j])},{max(s[i], s[j])})"
                rest = [t for idx, t in enumerate(s) if idx not in (i, j)]
                child = tuple(sorted(rest + [merged]))
                out.append((pair_action_id(i, j, self.n_leaves), child, False))
        return out

    def parents(self, s: StateKey) -> list:
        self.validate_key(s)
        if len(s) == self.n_leaves:
            raise NoParentsError("all-singleton forest has no parents")
        out = []
        for idx, t in enumerate(s):
            node = parse_tree(t)
            if isinstance(node, int):
                continue
            a, b = encode_tree(node[0]), encode_tree(node[1])
            rest = [u for j, u in enumerate(s) if j != idx]
            parent = tuple(sorted(rest + [a, b]))
            i, j = sorted((parent.index(a), parent.index(b)))
            out.append((parent, pair_action_id(i, j, self.n_leaves)))
        return out

    def _is_terminal(self, s: StateKey) -> bool:
        return len(s) == 1

    def data_loglik(self, s: StateKey) -> float:
        """Untempered log likelihood of all sites."""
        if len(s) != 1:
            raise NotTerminalError("likelihood needs a single complete tree")
        trans = jc69_transition(self.mu, self.branch_length)
        return float(_site_logliks(parse_tree(s[0]), self.sites, trans).sum())

    def log_reward(self, s: StateKey) -> float:
        if not self.is_terminal(s):
            raise NotTerminalError("reward is defined on complete trees only")
        log_prior = -np.log(num_topologies(self.n_leaves))
        return self.gamma * self.data_loglik(s) + log_prior / self.n_clients

    def _log_rewards(self, keys: list) -> np.ndarray:
        # the terminal trees of a batch share subtrees; each subtree's
        # conditionals are computed once
        if not all(map(self.is_terminal, keys)):
            return None
        trans = jc69_transition(self.mu, self.branch_length)
        memo: dict = {}
        data = [float(_site_logliks(parse_tree(s[0]), self.sites, trans, memo).sum()) for s in keys]
        log_prior = -np.log(num_topologies(self.n_leaves))
        return self.gamma * np.array(data, dtype=np.float64) + log_prior / self.n_clients

    def n_states_estimate(self) -> int:
        return num_forests(self.n_leaves)

    def structure(self) -> dict:
        return {"kind": self.kind, "n_leaves": self.n_leaves}


def split_sites(env: PhyloEnv, n: int, randomized: bool = False, rng: np.random.Generator | None = None) -> list[PhyloEnv]:
    """Partition the site columns into n client shards (contiguous by default),
    each with prior exponent 1/n."""
    m = env.n_sites
    if n < 1 or m < n:
        raise ShardError(f"cannot split {m} sites across {n} clients")
    cols = np.arange(m)
    if randomized:
        if rng is None:
            raise ShardError("randomized sharding needs an rng")
        cols = rng.permutation(m)
    bounds = np.linspace(0, m, n + 1).astype(int)
    return [
        PhyloEnv(
            n_leaves=env.n_leaves,
            sites=env.sites[:, cols[a:b]],
            branch_length=env.branch_length,
            mu=env.mu,
            gamma=env.gamma,
            n_clients=n,
        )
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
