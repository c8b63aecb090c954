"""Integer-indexed view of an environment's state DAG.

States are assigned dense indices as they are discovered, and per-state
rows (children, parent counts, terminal flags, features, cached rewards)
live in flat numpy arrays so that trajectory sampling, log-probability
replay, and exact dynamic programs all run as batched array operations.

`StateSpace.enumerated` walks the whole graph breadth-first; because every
environment is a graded DAG, discovery order is then a topological order
(index i's depth never exceeds index i+1's). Envs whose keys are tuples of
ints are walked a whole level at a time with array operations; the others
by the lazy space's own expansion, `_expand` on each state in index order.
Both walks number the states alike, so a space's indices, and every table
and snapshot built on them, do not depend on which walk built it. A space
that is not complete fills each row on first use, and has no terminal flags.

A level-walked space keeps the walk's rows as its keys: one zero-padded
(n_states, key_width) integer matrix and the key lengths. Its rewards and
features are computed from slices of that matrix, and the tuple `keys` and
the `index` dict are built only when something reads them. Every other space
keeps `keys` and `index` from the start.
"""

from __future__ import annotations

import copy

import numpy as np

from ..errors import EnumerationGuardError, FingerprintMismatchError
from .base import Environment, StateKey, int_key_matrix, reward_rows

CHILD_ILLEGAL = -1
CHILD_STOP = -2

DEFAULT_STATE_GUARD = 5_000_000

_INT64_MAX = np.iinfo(np.int64).max

# the reductions `StateSpace.forward` takes: op -> (the root's start, every
# other state's start); np.add pushes linear mass, the others log-space sums
_FORWARD_STARTS = {
    np.add: (1.0, 0.0),
    np.logaddexp: (0.0, -np.inf),
    np.minimum: (0.0, np.inf),
    np.maximum: (0.0, -np.inf),
}


def unique_ints(a, return_inverse: bool = False):
    """`np.unique(a)`, and with `return_inverse` its inverse as well: the
    sorted entries that differ from their left neighbour, and the inverse as
    the running count of kept entries scattered back through an argsort.
    Equal to `np.unique`'s arrays. On numpy 2.4, without the inverse it
    takes a twentieth of `np.unique`'s time on sequence 6x6's 55,987 states;
    with it, a little less than `np.unique` on a sampler's 512 (a
    `searchsorted` inverse is faster only on a repeated input, whose branches
    the CPU has learnt)."""
    a = np.asarray(a)
    flat = a.ravel()
    order = np.argsort(flat) if return_inverse else None
    s = np.sort(flat) if order is None else flat[order]
    keep = np.empty(s.size, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    uniq = s[keep]
    if not return_inverse:
        return uniq
    inv = np.empty(flat.size, dtype=np.intp)
    inv[order] = np.cumsum(keep) - 1
    return uniq, inv.reshape(a.shape)


def _key_codes(rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """One int64 per key, equal exactly for equal (row, length) pairs: a
    mixed-radix number over the length and the columns, each radix the span
    of its column. Before a radix would overflow int64, the codes so far are
    renumbered densely, so any key width works."""
    code = np.zeros(len(lengths), dtype=np.int64)
    if not code.size:
        return code
    span = 1
    for col in (lengths, *rows.T):
        lo = int(col.min())
        radix = int(col.max()) - lo + 1
        if radix == 1:
            continue
        if span * radix > _INT64_MAX:
            _, code = unique_ints(code, return_inverse=True)
            span = int(code.max()) + 1
        code = code * radix + (col.astype(np.int64) - lo)
        span *= radix
    return code


class StateSpace:
    def __init__(self, env: Environment, guard: int = DEFAULT_STATE_GUARD):
        self.env = env
        self.guard = int(guard)
        self.arity = env.max_arity
        self._n = 0  # states registered so far
        # a level-walked space's key matrix and key lengths; None on any other
        self._rows = self._lengths = None
        cap = 256
        self._children = np.full((cap, self.arity), CHILD_ILLEGAL, dtype=np.int64)
        self._expanded = np.zeros(cap, dtype=bool)
        self._nparents = np.full(cap, -1, dtype=np.int64)  # -1: not counted yet
        self._depth = np.zeros(cap, dtype=np.int64)
        self._logr = np.full(cap, np.nan)
        self._feats = None  # allocated by the first `features` call
        self._featurized = np.zeros(cap, dtype=bool)
        self.complete = False
        # keys, index and edge map; some are built on first use, and views
        # of the space share this dict
        self._shared: dict = {"keys": [], "index": {}}
        self._initial = env.initial_key()
        self.root = self._register(self._initial, depth=0)
        self._nparents[self.root] = 0

    # -- registration ------------------------------------------------------

    def _grow(self, need: int) -> None:
        cap = self._children.shape[0]
        if need <= cap:
            return
        new = max(need, cap * 2)
        pad = new - cap
        self._children = np.concatenate(
            [self._children, np.full((pad, self.arity), CHILD_ILLEGAL, dtype=np.int64)]
        )
        self._expanded = np.concatenate([self._expanded, np.zeros(pad, dtype=bool)])
        self._nparents = np.concatenate([self._nparents, np.full(pad, -1, dtype=np.int64)])
        self._depth = np.concatenate([self._depth, np.zeros(pad, dtype=np.int64)])
        self._logr = np.concatenate([self._logr, np.full(pad, np.nan)])
        self._featurized = np.concatenate([self._featurized, np.zeros(pad, dtype=bool)])
        if self._feats is not None:
            self._feats = np.concatenate([self._feats, np.zeros((pad, self._feats.shape[1]))])

    def _check_guard(self, count: int) -> None:
        """Raise if `count` more states would cross the guard."""
        if self._n + count > self.guard:
            raise EnumerationGuardError(
                f"{self.env.kind} state space exceeds guard of {self.guard}"
            )

    def _register(self, key: StateKey, depth: int) -> int:
        """Add a key the env produced."""
        index = self._shared["index"]
        idx = index.get(key)
        if idx is not None:
            return idx
        self._check_guard(1)
        idx = self._n
        self._grow(idx + 1)
        self._shared["keys"].append(key)
        index[key] = idx
        self._n = idx + 1
        self._depth[idx] = depth
        return idx

    def _expand(self, idx: int) -> None:
        depth = int(self._depth[idx]) + 1
        for action, child, is_stop in self.env._children(self.keys[idx]):
            self._children[idx, action] = (
                CHILD_STOP if is_stop else self._register(child, depth)
            )
        self._expanded[idx] = True

    @property
    def keys(self) -> list[StateKey]:
        """Every state's key, by index; a level-walked space builds them
        from its key matrix the first time they are read."""
        shared = self._shared
        if "keys" not in shared:
            # plain ints, as the env's own keys hold
            keys = [tuple(r[:m]) for r, m in zip(self._rows.tolist(), self._lengths.tolist())]
            shared.update(keys=keys, index=dict(zip(keys, range(len(keys)))))
        return shared["keys"]

    @property
    def index(self) -> dict[StateKey, int]:
        """Each key's state index; built with `keys`."""
        self.keys  # builds the index with the keys
        return self._shared["index"]

    # -- vectorized accessors ------------------------------------------------

    @property
    def n_states(self) -> int:
        return self._n

    def children_rows(self, idx: np.ndarray) -> np.ndarray:
        """(batch, arity) child codes; CHILD_STOP marks the sink, CHILD_ILLEGAL a masked slot."""
        if self.complete:
            return self._children[idx]
        pending = np.asarray(idx)[~self._expanded[idx]]
        for i in unique_ints(pending):
            self._expand(int(i))
        return self._children[idx]

    def nparents(self, idx) -> np.ndarray:
        """Parent counts; a space that is not complete counts each state's
        parents the first time it reads them."""
        if not self.complete:
            pending = np.asarray(idx)[self._nparents[idx] < 0]
            for i in unique_ints(pending).tolist():
                self._nparents[i] = len(self.env.parents(self.keys[i]))
        return self._nparents[idx]

    def terminal_mask(self, idx) -> np.ndarray:
        self.require_complete()
        return self._terminal[idx]

    def depth(self, idx) -> np.ndarray:
        return self._depth[idx]

    def features(self, idx) -> np.ndarray:
        """Feature rows, each computed on first use. The buffer itself is
        allocated on the first call, so a tabular run never holds one.

        The missing rows take one `_featurize_rows` call: a level-walked
        space passes it the rows of its key matrix, any other space the
        `int_key_matrix` of its keys."""
        env = self.env
        if self._feats is None:
            fd = env.feature_dim
            if not fd:
                return env.featurize(self._initial)  # raises the env's error
            self._feats = np.zeros((self._featurized.shape[0], fd))
        idx = np.asarray(idx)
        missing = unique_ints(idx[~self._featurized[idx]])
        if missing.size:
            if self._rows is not None:
                got = self._rows[missing], self._lengths[missing]
            else:
                got = int_key_matrix([self.keys[i] for i in missing.tolist()], env.key_width)
            self._feats[missing] = env._featurize_rows(*got)
            self._featurized[missing] = True
        return self._feats[idx]

    def log_rewards(self, idx: np.ndarray) -> np.ndarray:
        """Cached log-rewards, bit for bit equal to `env.log_rewards` of the
        states' keys. The states not cached yet take one batch: a
        level-walked space passes the rows of its key matrix to the env's
        row form, where `reward_rows` gives one and every state is terminal;
        otherwise the keys go to `env.log_rewards`, so an override sees each
        of them and a non-terminal key raises the scalar's error."""
        idx = np.asarray(idx)
        missing = unique_ints(idx[np.isnan(self._logr[idx])])  # each state once, in index order
        if missing.size:
            rows_form = reward_rows(self.env)
            if rows_form is not None and self._rows is not None and self._terminal[missing].all():
                self._logr[missing] = rows_form(self._rows[missing], self._lengths[missing])
            else:
                keys = self.keys
                self._logr[missing] = self.env.log_rewards([keys[i] for i in missing])
        return self._logr[idx]

    # -- enumeration ---------------------------------------------------------

    @classmethod
    def enumerated(cls, env: Environment, guard: int = DEFAULT_STATE_GUARD) -> "StateSpace":
        """Breadth-first enumeration of the whole DAG.

        States are numbered in the order a breadth-first walk discovers
        them: level by level, and within a level by first occurrence over
        (parent index, slot). An env that gives `_children_rows` and whose
        initial key is a tuple of ints is walked a whole level per env call;
        any other env is walked by `_expand` on each state in index order,
        until no new state appears. The two walks number every state alike
        and fill every array with the same values. Parent counts are
        in-degrees of the finished child table, and a state is terminal
        exactly when its stop slot is legal.
        """
        est = env.n_states_estimate()
        if est > guard:
            raise EnumerationGuardError(
                f"{env.kind} has ~{est} states, above the guard of {guard}"
            )
        space = cls(env, guard=guard)
        children_rows = env._children_rows
        root = None if children_rows is None else int_key_matrix([space._initial], env.key_width)
        if root is None:
            i = 0
            while i < space._n:
                space._expand(i)
                i += 1
            # copies, so the growth buffers' spare rows are freed
            children, depth = space._children[:i].copy(), space._depth[:i].copy()
        else:
            children, depth = space._walk_levels(children_rows, *root)
        n = space._n
        space._children = children
        space._expanded = np.ones(n, dtype=bool)
        space._nparents = np.bincount(children[children >= 0], minlength=n)
        space._terminal = children[:, env.stop_action] == CHILD_STOP
        space._depth = depth
        space._logr = np.full(n, np.nan)
        space._featurized = np.zeros(n, dtype=bool)
        space.complete = True
        return space

    def _walk_levels(
        self, children_rows, rows: np.ndarray, lengths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The level walk: one `_children_rows` call per breadth-first level.

        In a graded DAG a level's children are exactly the next level, so
        equal keys are found within the level alone. `np.unique` gives each
        distinct child its first (parent, slot) occurrence, and the new
        states take their numbers in that order. A level costs some tens of
        microseconds of numpy calls however few states it holds, so a deep,
        narrow DAG is walked faster key by key.

        The levels' rows, the root's included, become the space's key
        matrix, in one integer dtype wide enough for each of them; the root
        registered by the constructor is dropped from `keys`, which are
        rebuilt from that matrix when read.
        """
        blocks, row_blocks, length_blocks = [], [rows], [lengths]
        while len(rows):
            child, child_lengths, legal, stop = children_rows(rows, lengths)
            _, first, inverse = np.unique(
                _key_codes(child, child_lengths), return_index=True, return_inverse=True
            )
            order = np.argsort(first)
            self._check_guard(order.size)
            number = np.empty_like(order)
            number[order] = np.arange(self._n, self._n + order.size)
            block = np.full(legal.shape, CHILD_ILLEGAL, dtype=np.int64)
            block[legal] = number[inverse]
            block[stop] = CHILD_STOP
            blocks.append(block)
            new = first[order]
            rows, lengths = child[new], child_lengths[new]
            row_blocks.append(rows)
            length_blocks.append(lengths)
            self._n += order.size
        root = row_blocks[0]
        dtype = np.result_type(
            np.min_scalar_type(int(root.min())), np.min_scalar_type(int(root.max())), *row_blocks[1:]
        )
        self._rows = np.concatenate([b.astype(dtype, copy=False) for b in row_blocks])
        self._lengths = np.concatenate(length_blocks)
        del self._shared["keys"], self._shared["index"]
        sizes = [len(b) for b in row_blocks]  # one block per depth
        return np.concatenate(blocks), np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)

    def for_env(self, env: Environment) -> "StateSpace":
        """This space if it belongs to `env`; otherwise a view of this
        complete space for `env`, which must have the same DAG.

        A view shares keys (built or not), key matrix, child table, parent
        counts, depths, features and the edge map, and keeps its own reward
        cache, so clients whose rewards differ can share one enumeration.
        """
        if env is self.env:
            return self
        return self.view(env)

    def view(self, env: Environment) -> "StateSpace":
        """A view of this complete space for `env`, which must have the same
        DAG, with an empty reward cache of its own, even where `env` is this
        space's: a server handed one reads no reward a client cached."""
        self.require_complete()
        if env.fingerprint() != self.env.fingerprint():
            raise FingerprintMismatchError(
                f"space of {self.env.fingerprint()!r} cannot serve environment {env.fingerprint()!r}"
            )
        return self._view(env, np.full(self.n_states, np.nan))

    def with_log_rewards(self, table: np.ndarray) -> "StateSpace":
        """A view of this complete space, for the same env, whose reward
        cache is a copy of `table`: the (n_states,) log-rewards it holds at
        the terminals, where it must not be NaN. Its reward reads never call
        the env, and off the terminals they raise the env's error."""
        self.require_complete()
        logr = np.array(table, dtype=np.float64)
        terminal = self._terminal[: self.n_states]
        if logr.shape != (self.n_states,) or np.isnan(logr[terminal]).any():
            raise ValueError(f"need a log-reward at each terminal of {self.n_states} states")
        logr[~terminal] = np.nan
        return self._view(self.env, logr)

    def _view(self, env: Environment, logr: np.ndarray) -> "StateSpace":
        """A shallow copy for `env` with the reward cache `logr`."""
        view = copy.copy(self)
        view.env = env
        view._logr = logr
        view.features = self.features  # one lazily allocated feature buffer
        return view

    def edge_ids(self) -> np.ndarray:
        """(n_states, arity) parameter id of each (state, slot): the legal
        slots, stop included, are numbered 0..n_edges-1 in row-major order,
        and every illegal slot holds n_edges, one past the last id. Built on
        the first call and kept; every view of the space shares it."""
        self.require_complete()
        if "ids" not in self._shared:
            legal = self._children[: self.n_states] != CHILD_ILLEGAL
            n_edges = int(np.count_nonzero(legal))
            ids = np.full(legal.shape, n_edges, dtype=np.intp)
            ids[legal] = np.arange(n_edges)
            self._shared.update(ids=ids, n=n_edges)
        return self._shared["ids"]

    @property
    def n_edges(self) -> int:
        """The number of legal (state, slot) pairs of a complete space."""
        self.edge_ids()
        return self._shared["n"]

    def require_complete(self) -> None:
        if not self.complete:
            raise EnumerationGuardError("operation requires a fully enumerated state space")

    def terminal_indices(self) -> np.ndarray:
        self.require_complete()
        return np.flatnonzero(self._terminal[: self.n_states])

    def levels(self) -> list[np.ndarray]:
        """State indices grouped by depth, ascending (a topological layering).
        A complete space is numbered breadth-first, so each depth is a run of
        consecutive indices."""
        self.require_complete()
        d = self._depth[: self.n_states]
        return np.split(np.arange(self.n_states), np.flatnonzero(np.diff(d)) + 1)

    def forward(self, step, op) -> np.ndarray:
        """`op` (np.add, np.logaddexp, np.minimum or np.maximum) over every
        trajectory into each terminal, by one pass over `levels()`.

        The root holds op's unit (1 for np.add, else 0) and every other state
        op's identity. At each level `step(lv, held, rows)` gives the value of
        every slot of the states `lv`, from their held values and child codes.
        A stop slot's value is the state's result; a child slot's value goes
        into the child's held value by `op.at`, in row-major order. Off the
        terminals the result is op's identity."""
        self.require_complete()
        unit, identity = _FORWARD_STARTS[op]
        held = np.full(self.n_states, identity)
        held[self.root] = unit
        out = np.full(self.n_states, identity)
        for lv in self.levels():
            rows = self.children_rows(lv)
            vals = step(lv, held[lv], rows)
            r, a = np.nonzero(rows == CHILD_STOP)
            out[lv[r]] = vals[r, a]  # at most one stop slot per state
            interior = rows >= 0
            op.at(held, rows[interior], vals[interior])
        return out
