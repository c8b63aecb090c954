"""Rooted-forest states over a fixed leaf set: an action joins two trees'
roots, and the terminal reward is a tempered Jukes-Cantor likelihood of the
observed sites plus a scaled uniform-prior term.

Trees are encoded as canonical strings - a leaf is its decimal index, an
internal node is "(a,b)" with the children's encodings in lexicographic
order - and a forest is the sorted tuple of its tree strings. This makes
keys invariant to child order and tree insertion order.

Rewards are computed a batch at a time (`_log_rewards`; `log_reward` is its
one-key batch), in two steps:

- The walk reads each distinct subtree string of the batch once, through a
  memo from string to (node id, leaf bitmask). A leaf is exactly `str(i)`
  for a leaf i; "(a,b)" splits at its comma of depth 1 and needs disjoint
  canonical a < b. Each subtree is numbered after its children, with its
  children's ids and its height. `validate_key` runs the same walk, so one
  function decides what a canonical tree is.
- The pass is Felsenstein pruning over the walked subtrees, one height at a
  time: every subtree another one joins, at one height, is one stacked
  product of its children's messages trans @ lik, a per-site maximum, a
  rescale and a log-scale update. These are the operations of a recursion
  over one tree, in its order, so every reward keeps the bits that
  recursion gives. Complete trees are not stored: each goes straight to
  its site sum. No memo outlives the call.
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


# Values (subtrees x 4 states x sites) a stacked pruning step holds at once.
PRUNE_CHUNK = 1 << 16


def _leaf_memo(n_leaves: int) -> tuple[dict, list]:
    """The walk's starting memo, leaf string -> (node id, leaf bitmask), and
    its node list, one (left id, right id, height) per node; leaf i is node i."""
    return {str(i): (i, 1 << i) for i in range(n_leaves)}, [(-1, -1, 0)] * n_leaves


def _walk(s: str, memo: dict, nodes: list, depth: int) -> tuple[int, int]:
    """(node id, leaf bitmask) of the canonical tree string `s`, read once
    per memo: a subtree is numbered after its children, and recorded in
    `nodes`. Raises MalformedStateError unless `s` is a leaf of the memo or
    "(a,b)" with a and b disjoint canonical trees and a < b, nested at most
    `depth` deep. A module-level recursion, not a closure, so no reference
    cycle outlives a batch."""
    got = memo.get(s)
    if got is not None:
        return got
    if depth < 1 or s[:1] != "(" or s[-1:] != ")":
        raise MalformedStateError(f"undecodable tree: {s!r}")
    if s[-2] != ")":  # a leaf on the right follows the last comma
        i = s.rfind(",")
    else:  # else the first comma at depth 1
        i = s.find(",")
        while i != -1 and s.count("(", 1, i) != s.count(")", 1, i):
            i = s.find(",", i + 1)
    if i == -1:
        raise MalformedStateError(f"unbalanced tree encoding: {s!r}")
    a, b = s[1:i], s[i + 1 : -1]
    (na, ma), (nb, mb) = _walk(a, memo, nodes, depth - 1), _walk(b, memo, nodes, depth - 1)
    if ma & mb:
        raise MalformedStateError(f"duplicated leaves in tree: {s!r}")
    if not a < b:
        raise MalformedStateError(f"tree not canonical: {s!r}")
    memo[s] = got = len(nodes), ma | mb
    nodes.append((na, nb, 1 + max(nodes[na][2], nodes[nb][2])))
    return got


def _join(up: np.ndarray, scale: np.ndarray, left: np.ndarray, right: np.ndarray):
    """Rescaled conditionals (lik, log scale) of the subtrees joining the
    table rows `left` and `right`: the children's messages multiplied, then
    divided by their per-site maximum, whose log joins the children's log
    scales. In place on fresh gathers, which keeps the recursion's bits."""
    lik = up[left]
    lik *= up[right]
    c = lik.max(axis=1)
    lik /= c[:, None]
    s = scale[left]
    s += scale[right]
    s += np.log(c, out=c)
    return lik, s


def _prune(sites: np.ndarray, trans: np.ndarray, nodes: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Log P(sites | tree) of every complete tree in `roots`, by post-order
    pruning over the walked `nodes`, one height at a time.

    A table row holds the message trans @ lik that a subtree sends to its
    parent, and its log scale; it is kept for the leaves and every subtree
    another one joins. Complete trees are reduced straight to their site
    sums. Each step stacks at most `PRUNE_CHUNK` values.
    """
    n, m = sites.shape
    left, right, height = nodes.T
    kept = np.ones(len(nodes), dtype=bool)
    kept[roots] = False
    order = np.flatnonzero(kept)
    order = order[np.argsort(height[order], kind="stable")]  # the leaves first
    row = np.empty(len(nodes), dtype=np.int64)
    row[order] = np.arange(len(order))
    up = np.empty((len(order), 4, m))
    up[:n] = trans[:, sites].transpose(1, 0, 2)  # trans @ the one-hot leaf
    scale = np.zeros((len(order), m))
    step = max(1, PRUNE_CHUNK // (4 * m))
    cuts = np.searchsorted(height[order], np.arange(1, height.max() + 2))
    for lo, hi in zip(cuts[:-1], cuts[1:]):  # the rows of one height
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            ids = order[a:b]
            lik, s = _join(up, scale, row[left[ids]], row[right[ids]])
            np.matmul(trans, lik, out=up[a:b])
            scale[a:b] = s
    out = np.empty(len(roots))
    for a in range(0, len(roots), step):
        ids = roots[a : a + step]
        lik, s = _join(up, scale, row[left[ids]], row[right[ids]])
        site = lik.sum(axis=1)
        site *= 0.25  # uniform root prior
        s += np.log(site, out=site)
        out[a : a + step] = s.sum(axis=1)
    return out


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
    """The site matrix `write_sites` wrote: one line of ACGT per leaf, blank
    lines skipped. Raises ValueError on another letter or on ragged rows."""
    with open(path) as fh:
        rows = [line.strip() for line in fh if line.strip()]
    bad = set("".join(rows)) - set(NUCLEOBASES)
    if bad:
        raise ValueError(f"site letters outside {NUCLEOBASES}: {''.join(sorted(bad))!r}")
    if len(set(map(len, rows))) > 1:
        raise ValueError(f"rows of unequal length {sorted(set(map(len, rows)))}")
    lookup = {c: i for i, c in enumerate(NUCLEOBASES)}
    return np.array([[lookup[c] for c in row] for row in rows], dtype=np.int64)


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
        memo, nodes = _leaf_memo(self.n_leaves)
        seen = 0
        for t in s:
            mask = _walk(t, memo, nodes, self.n_leaves - 1)[1]
            if seen & mask:
                raise MalformedStateError(f"duplicated leaves in forest: {s!r}")
            seen |= mask
        if seen != (1 << self.n_leaves) - 1:
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

    def log_reward(self, s: StateKey) -> float:
        return self._log_rewards([s])[0]

    def _log_rewards(self, keys: list) -> np.ndarray:
        # one walk over the batch's tree strings, then one pruning pass
        memo, nodes = _leaf_memo(self.n_leaves)
        full = (1 << self.n_leaves) - 1
        roots = np.empty(len(keys), dtype=np.int64)
        for k, s in enumerate(keys):
            if not (isinstance(s, tuple) and len(s) == 1 and isinstance(s[0], str)):
                self.validate_key(s)
                raise NotTerminalError("reward is defined on complete trees only")
            roots[k], mask = _walk(s[0], memo, nodes, self.n_leaves - 1)
            if mask != full:
                raise MalformedStateError(f"forest does not cover all leaves: {s!r}")
        unique, inverse = np.unique(roots, return_inverse=True)
        trans = jc69_transition(self.mu, self.branch_length)
        data = _prune(self.sites, trans, np.array(nodes, dtype=np.int64), unique)[inverse]
        log_prior = -np.log(num_topologies(self.n_leaves))
        return self.gamma * data + log_prior / self.n_clients

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
