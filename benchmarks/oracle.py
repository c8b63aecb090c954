"""Reference computations made apart from gfnpool.

Each function rebuilds a quantity from an environment's defining parameters
(item values, position and token scores, site columns) by direct
enumeration, without the package's state space, reward code or dynamic
programs. The benchmark compares the program's outputs with these.
State keys follow the environments' documented canonical forms, so the
tables can be compared key by key.
"""

from __future__ import annotations

import itertools
from math import comb, factorial, log

import numpy as np


def normalize(log_r: dict) -> dict:
    keys = list(log_r)
    vals = np.array([log_r[k] for k in keys])
    p = np.exp(vals - vals.max())
    p /= p.sum()
    return dict(zip(keys, p.tolist()))


def l1(p: dict, q: dict) -> float:
    return float(sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q)))


# ---------------------------------------------------------------------------
# multiset: count vectors of a fixed size over the dictionary


def multiset_terminals(dict_size: int, size: int) -> tuple[list[tuple], np.ndarray]:
    rows = [np.bincount(c, minlength=dict_size) for c in itertools.combinations_with_replacement(range(dict_size), size)]
    counts = np.array(rows, dtype=np.int64)
    return [tuple(int(v) for v in r) for r in counts], counts


def multiset_log_rewards(values, size: int) -> dict:
    keys, counts = multiset_terminals(len(values), size)
    return dict(zip(keys, (counts @ np.asarray(values, dtype=np.float64)).tolist()))


def multiset_uniform(dict_size: int, size: int) -> dict:
    """Terminal law of the uniform forward policy: a multinomial over items."""
    keys, counts = multiset_terminals(dict_size, size)
    out = {}
    for k, c in zip(keys, counts):
        coef = factorial(size)
        for v in c:
            coef //= factorial(int(v))
        out[k] = coef / dict_size**size
    return out


# ---------------------------------------------------------------------------
# sequence: every token string up to the maximum length is terminal


def sequence_keys(num_tokens: int, max_len: int) -> list[tuple]:
    return [s for n in range(max_len + 1) for s in itertools.product(range(num_tokens), repeat=n)]


def sequence_log_rewards(pos_scores, token_scores) -> dict:
    pos, tok = np.asarray(pos_scores), np.asarray(token_scores)
    out = {}
    for n in range(len(pos) + 1):
        seqs = list(itertools.product(range(len(tok)), repeat=n))
        arr = np.array(seqs, dtype=np.int64).reshape(len(seqs), n)
        out.update(zip(seqs, (tok[arr] * pos[:n]).sum(axis=1).tolist()))
    return out


def sequence_uniform(num_tokens: int, max_len: int) -> dict:
    """Uniform over the tokens plus stop below the maximum length; stop only at it."""
    a = num_tokens + 1
    return {s: a ** -(len(s) + (len(s) < max_len)) for s in sequence_keys(num_tokens, max_len)}


# ---------------------------------------------------------------------------
# phylogenetics: forests of rooted binary trees, joined two roots at a time


def pair_action(i: int, j: int, n: int) -> int:
    """Action id of joining the i-th and j-th trees (i < j) of a sorted forest."""
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def phylo_trajectories(n_leaves: int) -> list[tuple[list[tuple], list[int]]]:
    """Every complete join order, as (forests visited, actions taken)."""
    stop = comb(n_leaves, 2)
    out = []

    def rec(forest: tuple, states: list, actions: list):
        if len(forest) == 1:
            out.append((states, actions + [stop]))
            return
        for i, j in itertools.combinations(range(len(forest)), 2):
            rest = [t for k, t in enumerate(forest) if k not in (i, j)]
            child = tuple(sorted(rest + [f"({forest[i]},{forest[j]})"]))
            rec(child, states + [child], actions + [pair_action(i, j, n_leaves)])

    root = tuple(sorted(str(i) for i in range(n_leaves)))
    rec(root, [root], [])
    return out


def _parse(s: str):
    if not s.startswith("("):
        return int(s)
    depth = 0
    for i, ch in enumerate(s):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 1:
            return (_parse(s[1:i]), _parse(s[i + 1 : -1]))
    raise ValueError(s)


def site_log_likelihoods(tree: str, sites: np.ndarray, mu: float, branch: float) -> np.ndarray:
    """log P(column | tree) for every site column under Jukes-Cantor, by summing
    over every assignment of bases to the internal nodes (no pruning)."""
    e = np.exp(-mu * branch)
    log_p = np.log(np.full((4, 4), 0.25 * (1 - e)) + e * np.eye(4))
    internal, edges = [], []  # edges: (parent internal id, child internal id or leaf)

    def walk(node) -> int:
        me = len(internal)
        internal.append(node)
        for child in node:
            if isinstance(child, int):
                edges.append((me, ("leaf", child)))
            else:
                edges.append((me, ("node", walk(child))))
        return me

    walk(_parse(tree))
    assign = np.array(list(itertools.product(range(4), repeat=len(internal))))
    acc = np.full((assign.shape[0], sites.shape[1]), log(0.25))
    for parent, (kind, child) in edges:
        up = assign[:, parent]
        if kind == "leaf":
            acc += log_p[up[:, None], sites[child][None, :]]
        else:
            acc += log_p[up, assign[:, child]][:, None]
    m = acc.max(axis=0)
    return m + np.log(np.exp(acc - m).sum(axis=0))


def phylo_log_rewards(sites, n_leaves: int, mu: float, branch: float, gamma: float, n_clients: int) -> dict:
    trees = sorted({states[-1][0] for states, _ in phylo_trajectories(n_leaves)})
    log_prior = -log(len(trees))
    sites = np.asarray(sites)
    return {(t,): gamma * float(site_log_likelihoods(t, sites, mu, branch).sum()) + log_prior / n_clients for t in trees}


def phylo_uniform(n_leaves: int) -> dict:
    """Uniform joins make every join order equally likely."""
    trajs = phylo_trajectories(n_leaves)
    out: dict = {}
    for states, _ in trajs:
        out[states[-1]] = out.get(states[-1], 0.0) + 1.0 / len(trajs)
    return out


def double_factorial(k: int) -> int:
    return 1 if k <= 1 else k * double_factorial(k - 2)


# ---------------------------------------------------------------------------
# dispatch on environment kind


def log_rewards(env) -> dict:
    if env.kind == "multiset":
        return multiset_log_rewards(env.values, env.target_size)
    if env.kind == "sequence":
        return sequence_log_rewards(env.pos_scores, env.token_scores)
    return phylo_log_rewards(env.sites, env.n_leaves, env.mu, env.branch_length, env.gamma, env.n_clients)


def product_target(envs) -> dict:
    tables = [log_rewards(e) for e in envs]
    return normalize({k: sum(t[k] for t in tables) for k in tables[0]})


def uniform_terminal(env) -> dict:
    if env.kind == "multiset":
        return multiset_uniform(env.dict_size, env.target_size)
    if env.kind == "sequence":
        return sequence_uniform(env.num_tokens, env.max_len)
    return phylo_uniform(env.n_leaves)


def terminal_count(env) -> int:
    """Closed-form number of terminal states."""
    if env.kind == "multiset":
        return comb(env.dict_size + env.target_size - 1, env.target_size)
    if env.kind == "sequence":
        return sum(env.num_tokens**n for n in range(env.max_len + 1))
    return double_factorial(2 * env.n_leaves - 3)
